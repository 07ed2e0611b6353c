"""qgrass: q-deformed information theory over finite vector spaces.

Exact q-combinatorics, finite-field subspace algebra, the q-binomial
distribution and its Grassmannian process, typical subspaces with the
equipartition property, subspace block coding, maximum-likelihood
estimation, and quadratic-entropy maximization.
"""

from .qcomb import (
    q_integer,
    q_factorial,
    q_binomial,
    q_multinomial,
    multinomial,
    pochhammer,
    pochhammer_inf,
    gamma_q,
    check_gauss_identity,
    check_flag_identity,
)
from .gf import (
    FieldSpec,
    Subspace,
    rref,
    zero_subspace,
    full_space,
    enumerate_grassmannian,
    dilations,
    format_subspace,
    parse_subspace,
)
from .entropy import (
    ln_alpha,
    tsallis_entropy,
    quadratic_entropy,
    check_chain_rule,
    asymptotic_constant,
    check_multinomial_asymptotics,
    check_qmultinomial_asymptotics,
)
from .qdist import (
    QBinomialParams,
    pmf,
    log_pmf,
    pmf_xy,
    mean,
    variance,
    c_n,
    c_inf,
    m_qn,
    mle_theta,
    log_pmf_by_codim,
)
from .grassproc import (
    ProcessState,
    Trajectory,
    simulate,
    outcome_tree_law,
)
from .aep import (
    MuTable,
    TypicalSet,
    BlockCode,
    mu,
    build_mu_table,
    delta,
    is_continuity_point,
    typical_set,
    check_aep,
    greedy_min_set_size,
    make_block_code,
    encode,
    decode,
    grassmannian_growth,
    check_tail_quotient_bounds,
)
from .maxent import EnergyModel, MaxEntSolution, solve, finite_n_check

__version__ = "0.1.0"
