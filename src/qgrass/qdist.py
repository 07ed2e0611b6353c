"""The q-binomial distribution Bin_q(n, theta) and the law of the
Grassmannian process: dim V_n has the pmf, and V_n is uniform on each
Gr(k, n), so the codimension-d class has mass pmf(n - d).

`growth_prob` is the one float chain factor theta q^i / (1 + theta q^i) and
`growth_complement` its complement 1 / (1 + theta q^i), kept to relative
accuracy; the mean, variance, c_n and c_inf sum them.  `_ln1p_q_pow` is the
one factor ln(1 + q^u) of the log products (-theta; q)_n, (-1/theta; 1/q)_n
and the two-parameter normaliser.  `_log_class_masses`, one walk of the
Gaussian column, yields every float class mass, for the pmf column and
`aep`'s class-mass stop.  `_completed_square` holds x0 = 1/2 - log_q theta
and the exponent -(d - x0)^2/2 + x0^2/2 that the codimension form and
`aep`'s mu share.  The exact rational pmf and subspace law are the oracles.
MLE of theta bisects on the mean scale, on log theta below the reach of 200
linear halvings.  The chain's one sampler is `grassproc.simulate`.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .entropy import binary_quadratic_entropy, log_q_int
from .qcomb import _gaussian_column, pochhammer, q_binomial

LOG_DOMAIN_THRESHOLD = 30
MLE_DEFAULT_TOL = 1e-12
C_INF_TOL = 1e-12


@dataclass(frozen=True)
class QBinomialParams:
    n: int
    theta: float
    q: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        if not self.theta >= 0:
            raise ValueError(f"theta must be >= 0, got {self.theta!r}")
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")


def growth_prob(theta, q, i):
    """Growth probability theta q^i / (1 + theta q^i) of step i + 1; 1.0
    once theta q^i overflows to inf, where the quotient would be NaN.

    Past the double range of q^i (i > 1023 at q = 2) it is the logistic
    1 / (1 + exp(-ln(theta q^i))), or 0.0 at theta = 0.
    """
    try:
        t = theta * q**i
        return 1.0 if t == math.inf else t / (1.0 + t)
    except OverflowError:  # the int q^i (or theta q^i, for an int theta) has no float
        if not theta:
            return 0.0
        return 1.0 / (1.0 + math.exp(-(math.log(theta) + i * math.log(q))))


def growth_complement(theta, q, i):
    """1 - growth_prob(theta, q, i) = 1 / (1 + theta q^i), computed directly
    so that it keeps its relative accuracy when theta q^i >> 1.

    Once theta q^i has no float (or overflows to inf) it is
    e / (1 + e) with e = exp(-ln(theta q^i)), or 1.0 at theta = 0.
    """
    try:
        t = theta * q**i
        if t != math.inf:
            return 1.0 / (1.0 + t)
    except OverflowError:  # as in growth_prob
        if not theta:
            return 1.0
    e = math.exp(-(math.log(theta) + i * math.log(q)))
    return e / (1.0 + e)


def bernoulli_chain(params):
    """Success probabilities p_i = theta q^(i-1) / (1 + theta q^(i-1)), i = 1..n."""
    t, q = params.theta, params.q
    return tuple(growth_prob(t, q, i) for i in range(params.n))


def _ln1p_q_pow(u, q):
    """ln(1 + q^u) for real u; q^u is never formed when it exceeds 1."""
    if u <= 0:
        return math.log1p(q**u)
    return u * math.log(q) + math.log1p(q**-u)


def log_q_neg_pochhammer(theta, n, q):
    """log_q of (-theta; q)_n = prod_{i<n} (1 + q^u), u = log_q theta + i.

    theta > 0.  Finite for every n: no power of q above 1 is formed.
    """
    u = math.log(theta) / math.log(q)
    return sum(_ln1p_q_pow(u + i, q) for i in range(n)) / math.log(q)


def log_q_neg_inv_pochhammer(theta, n, q):
    """log_q of (-1/theta; 1/q)_n = prod_{i<n} (1 + q^u), u = -log_q theta - i.

    theta > 0, down to the smallest subnormal.  Bounded in n: the factors
    tend to 1 geometrically.
    """
    u = -math.log(theta) / math.log(q)
    return sum(_ln1p_q_pow(u - i, q) for i in range(n)) / math.log(q)


def _log_pmf_term(k, coeff, t, q, log_poch):
    """log_q pmf(k) from coeff = [n, k]_q and log_poch = log_q (-t; q)_n."""
    return (
        log_q_int(coeff, q)
        + k * (k - 1) / 2.0
        + k * math.log(t) / math.log(q)
        - log_poch
    )


def log_pmf(k, params):
    """log_q of the pmf; -inf outside the support."""
    n, t, q = params.n, params.theta, params.q
    if k < 0 or k > n:
        return -math.inf
    if t == 0:
        return 0.0 if k == 0 else -math.inf
    return _log_pmf_term(k, q_binomial(n, k, q), t, q, log_q_neg_pochhammer(t, n, q))


def _log_class_masses(params):
    """Yield log_pmf(n - d, params), the log_q mass of the codimension-d
    class, for d = 0..n: one normaliser, and [n, d]_q = [n, n - d]_q is
    entry d of one walk of the Gaussian column."""
    n, t, q = params.n, params.theta, params.q
    if t == 0:
        yield from itertools.repeat(-math.inf, n)
        yield 0.0
        return
    log_poch = log_q_neg_pochhammer(t, n, q)
    for d, coeff in enumerate(_gaussian_column(n, q)):
        yield _log_pmf_term(n - d, coeff, t, q, log_poch)


def pmf(k, params):
    """Probability of dimension k; 0 outside {0..n} by contract."""
    if k < 0 or k > params.n:
        return 0.0
    return _pmf_column(params)[k]


def _pmf_column(params):
    """[pmf(k, params) for k in 0..n] in one pass over the Gaussian column
    `qcomb._gaussian_column`, with the normaliser computed once.

    Linear-domain evaluation at small n, log-domain beyond (the factor
    q^(k(k-1)/2) overflows doubles quickly) from the class masses, d = n - k.
    """
    n, t, q = params.n, params.theta, params.q
    if t == 0:
        return [1.0] + [0.0] * n
    # linear domain only while every intermediate stays well under 1e308
    magnitude = (n * (n - 1) / 2) * math.log10(q) + n * math.log10(max(t, 1.0))
    if n > LOG_DOMAIN_THRESHOLD or magnitude >= 140:
        return [float(q) ** log_p for log_p in _log_class_masses(params)][::-1]
    den = math.prod(1.0 + t * q**i for i in range(n))
    return [
        coeff * float(q) ** (k * (k - 1) // 2) * t**k / den
        for k, coeff in enumerate(_gaussian_column(n, q))
    ]


def pmf_fraction(k, n, theta, q):
    """Exact rational pmf for rational theta (oracle path)."""
    t = Fraction(theta)
    if k < 0 or k > n:
        return Fraction(0)
    num = q_binomial(n, k, q) * Fraction(q) ** (k * (k - 1) // 2) * t**k
    return num / pochhammer(-t, q, n)


def exact_pmf_fraction(k, n, theta, q):
    """Exact rational Pr{V_n = v}, dim v = k, for rational theta (oracle path)."""
    return pmf_fraction(k, n, theta, q) / q_binomial(n, k, q)


def _completed_square(theta, q):
    """Yield (d - x0, -(d - x0)^2/2 + x0^2/2) for d = 0, 1, ..., x0 = 1/2 - log_q theta."""
    x0 = 0.5 - math.log(theta) / math.log(q)
    for d in itertools.count():
        off = d - x0
        yield off, -0.5 * off**2 + 0.5 * x0**2


def _codim_log_probs(n, theta, q):
    """Yield (log_pmf_by_codim(d, n, theta, q), g(d, n)) for d = 0..n from one
    tail log_q (-1/theta; 1/q)_n; g(d, n) is the tail minus the completed square."""
    tail = log_q_neg_inv_pochhammer(theta, n, q)
    for d, (_, expo) in zip(range(n + 1), _completed_square(theta, q)):
        h2_term = (n * n) * binary_quadratic_entropy(d / n) / 2.0 if n else 0.0
        yield expo - h2_term - tail, -expo + tail


def log_pmf_by_codim(d, n, theta, q):
    """log_q Pr{V_n = v}, dim v = n - d, by the completed-square codimension form
    -(d - x0)^2/2 + x0^2/2 - (n^2/2) H_2(d/n) - log_q (-1/theta; 1/q)_n."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if not theta > 0:
        raise ValueError("theta must be positive")
    return next(itertools.islice(_codim_log_probs(n, theta, q), d, None))[0]


def _log_q_binomial_real(n, k, q):
    """ln [n, k]_q for real q > 1, forming no power of q above 1: the factor
    (q^(n-k+i) - 1) / (q^i - 1) is q^(n-k) (1 - q^-(n-k+i)) / (1 - q^-i),
    and 1 - q^-u is -expm1(-u ln q)."""
    ln_q = math.log(q)
    return k * (n - k) * ln_q + math.fsum(
        math.log(math.expm1(-(n - k + i) * ln_q) / math.expm1(-i * ln_q))
        for i in range(1, k + 1)
    )


def pmf_xy(k, n, x, y, q):
    """Two-parameter pmf with weights x, y >= 0 (theta = y/x when x > 0).

    q may be a real number > 1 here; the q -> 1 limit recovers the
    classical binomial with success probability y/(x+y).
    """
    if not q > 1:
        raise ValueError(f"q must exceed 1, got {q!r}")
    if x < 0 or y < 0:
        raise ValueError("x and y must be nonnegative")
    if x == 0 and y == 0:
        raise ValueError("x and y cannot both vanish")
    if k < 0 or k > n:
        return 0.0
    if x == 0:
        return 1.0 if k == n else 0.0
    if y == 0:
        return 1.0 if k == 0 else 0.0
    if isinstance(q, int):
        log_coeff = math.log(q_binomial(n, k, q))
    else:
        log_coeff = _log_q_binomial_real(n, k, q)
    # log domain, divided through by x^n: x + y q^i = x (1 + q^(u + i))
    u = (math.log(y) - math.log(x)) / math.log(q)
    log_num = log_coeff + (k * (k - 1) / 2.0 + k * u) * math.log(q)
    log_den = sum(_ln1p_q_pow(u + i, q) for i in range(n))
    return math.exp(log_num - log_den)


def mean(params):
    """Expected dimension: sum_j theta q^j / (1 + theta q^j)."""
    return sum(bernoulli_chain(params))


def variance(params):
    """Variance of the dimension: sum_j p_j (1 - p_j) over the chain."""
    t, q = params.theta, params.q
    return sum(
        growth_prob(t, q, j) * growth_complement(t, q, j) for j in range(params.n)
    )


def c_n(theta, n, q):
    """Partial sum sum_{j<n} (1 - p_j) = sum_{j<n} 1/(1 + theta q^j) = n - mean."""
    return sum(growth_complement(theta, q, j) for j in range(n))


def c_inf(theta, q):
    """Limit of c_n: terms decay geometrically, truncated below C_INF_TOL."""
    if not theta > 0:
        raise ValueError("theta must be positive for a finite limit")
    total = 0.0
    for j in itertools.count():
        term = growth_complement(theta, q, j)
        total += term
        if term < C_INF_TOL:
            return total


def m_qn(theta, n, q):
    """Theoretical mean as a function of theta, extended by m(inf) = n."""
    if theta == math.inf:
        return float(n)
    return mean(QBinomialParams(n, theta, q))


def mle_theta(samples, n, q, tol=MLE_DEFAULT_TOL):
    """Maximum-likelihood theta from dimension samples in {0..n}.

    Solves m_qn(theta) = sample mean by bracketing bisection, converging
    on the mean scale (theta itself is ill-conditioned near mean = n).
    Returns math.inf when every sample equals n.  When the root lies below
    hi 2^-200, the least midpoint that bisecting [0, hi] can reach, it
    bisects log theta down to the smallest positive double instead, and
    refuses a root below that.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("at least one sample is required")
    for s in samples:
        if s < 0 or s > n:
            raise ValueError(f"sample {s!r} outside [0, {n}]")
    ybar = sum(samples) / len(samples)
    if ybar == 0:
        return 0.0
    if ybar == n:
        return math.inf

    lo, hi = 0.0, 1.0
    while m_qn(hi, n, q) <= ybar:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    reach = hi * 2.0**-200
    if m_qn(reach, n, q) <= ybar:
        return _bisect_mean(lo, hi, ybar, n, q, tol, float)  # float(x) is x
    least = math.ulp(0.0)
    if m_qn(least, n, q) > ybar:
        raise ValueError(
            f"theta_hat lies below the double range: m_qn({least}) exceeds "
            f"the sample mean {ybar}"
        )
    return _bisect_mean(math.log(least), math.log(reach), ybar, n, q, tol, math.exp)


def _bisect_mean(lo, hi, ybar, n, q, tol, theta_at):
    """Bisect x in [lo, hi] for m_qn(theta_at(x)) = ybar, 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = m_qn(theta_at(mid), n, q)
        if abs(m - ybar) < tol:
            return theta_at(mid)
        if m < ybar:
            lo = mid
        else:
            hi = mid
    return theta_at(0.5 * (lo + hi))
