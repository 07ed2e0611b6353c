import types

import qgrass

# Every public name of the package.  Each has a CLI path, states one of the
# paper's identities, serves as an oracle or is a type that one of these
# returns; adding or removing one is a deliberate change to this list.
PUBLIC_SURFACE = [
    "BlockCode", "EnergyModel", "FieldSpec", "MaxEntSolution", "MuTable",
    "ProcessState", "QBinomialParams", "Subspace", "Trajectory",
    "TypicalSet", "asymptotic_constant", "build_mu_table", "c_inf", "c_n",
    "check_aep", "check_chain_rule", "check_flag_identity",
    "check_gauss_identity", "check_multinomial_asymptotics",
    "check_qmultinomial_asymptotics", "check_tail_quotient_bounds",
    "decode", "delta", "dilations", "encode", "enumerate_grassmannian",
    "finite_n_check", "format_subspace", "full_space", "gamma_q",
    "grassmannian_growth", "greedy_min_set_size", "is_continuity_point",
    "ln_alpha", "log_pmf", "log_pmf_by_codim", "m_qn", "make_block_code",
    "mean", "mle_theta", "mu", "multinomial", "outcome_tree_law",
    "parse_subspace", "pmf", "pmf_xy", "pochhammer", "pochhammer_inf",
    "q_binomial", "q_factorial", "q_integer", "q_multinomial",
    "quadratic_entropy", "rref", "simulate", "solve", "tsallis_entropy",
    "typical_set", "variance", "zero_subspace",
]


def test_public_surface():
    names = sorted(
        name for name, value in vars(qgrass).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_SURFACE
