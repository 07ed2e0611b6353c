"""qgrass: q-deformed information theory over finite vector spaces.

Exact q-combinatorics, finite-field subspace algebra, the q-binomial
distribution and its Grassmannian process, typical subspaces with the
equipartition property, subspace block coding, maximum-likelihood
estimation, and quadratic-entropy maximization.

Importing the package loads none of its modules: each public name is read
from its module on first use (PEP 562), so `import qgrass.cli` loads only
what a CLI call runs.
"""

# The public names of each module.
_NAMES = {
    "qcomb": """q_integer q_factorial q_binomial q_multinomial multinomial
        pochhammer pochhammer_inf gamma_q check_gauss_identity
        check_flag_identity""",
    "gf": """FieldSpec Subspace rref zero_subspace full_space
        enumerate_grassmannian dilations format_subspace parse_subspace""",
    "entropy": """ln_alpha tsallis_entropy quadratic_entropy check_chain_rule
        asymptotic_constant check_multinomial_asymptotics
        check_qmultinomial_asymptotics""",
    "qdist": """QBinomialParams pmf log_pmf pmf_xy mean variance c_n c_inf
        m_qn mle_theta log_pmf_by_codim""",
    "grassproc": "ProcessState Trajectory simulate outcome_tree_law",
    "aep": """MuTable TypicalSet BlockCode mu build_mu_table delta
        is_continuity_point typical_set check_aep greedy_min_set_size
        make_block_code encode decode grassmannian_growth
        check_tail_quotient_bounds""",
    "maxent": "EnergyModel MaxEntSolution solve finite_n_check",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name or module, imported on first use."""
    if name not in _MODULE and name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _MODULE.get(name, name)
    __import__(f"{__name__}.{home}")  # binds the module here; importlib costs ~0.4 ms
    module = globals()[home]
    if name == home:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
