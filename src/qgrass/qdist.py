"""The q-binomial distribution Bin_q(n, theta), home of the process law.

The growth probability, the log q-Pochhammer products (-theta; q)_n and
(-1/theta; 1/q)_n, and the pmf in the one- and two-parameter forms, with
the exact rational pmf for oracle checks; the subspace and class laws of
the Grassmannian process derive from these.  Also moments, sampling
through the heterogeneous Bernoulli chain, and maximum-likelihood
estimation of theta by bracketing bisection on the mean scale.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .entropy import log_q_int
from .qcomb import pochhammer, q_binomial

LOG_DOMAIN_THRESHOLD = 30
MLE_DEFAULT_TOL = 1e-12


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
    """Growth probability theta q^i / (1 + theta q^i) of step i + 1."""
    return theta * q**i / (1.0 + theta * q**i)


def bernoulli_chain(params):
    """Success probabilities p_i = theta q^(i-1) / (1 + theta q^(i-1)), i = 1..n."""
    t, q = params.theta, params.q
    return tuple(growth_prob(t, q, i) for i in range(params.n))


def log_q_neg_pochhammer(theta, n, q):
    """log_q of (-theta; q)_n = prod_{i<n} (1 + theta q^i), theta >= 0.

    Split per factor to stay accurate across the whole range of theta q^i.
    """
    total = 0.0
    lnq = math.log(q)
    for i in range(n):
        t = theta * q**i
        if t <= 1.0:
            total += math.log1p(t) / lnq
        else:
            total += i + math.log(theta + q**-i) / lnq
    return total


def log_q_neg_inv_pochhammer(theta, n, q):
    """log_q of (-1/theta; 1/q)_n = prod_{i<n} (1 + q^-i / theta), theta > 0.

    Bounded in n: the factors tend to 1 geometrically.
    """
    return sum(math.log1p(q**-i / theta) for i in range(n)) / math.log(q)


def log_pmf(k, params):
    """log_q of the pmf; -inf outside the support."""
    n, t, q = params.n, params.theta, params.q
    if k < 0 or k > n:
        return -math.inf
    if t == 0:
        return 0.0 if k == 0 else -math.inf
    return (
        log_q_int(q_binomial(n, k, q), q)
        + k * (k - 1) / 2.0
        + k * math.log(t) / math.log(q)
        - log_q_neg_pochhammer(t, n, q)
    )


def pmf(k, params):
    """Probability of dimension k; 0 outside {0..n} by contract.

    Linear-domain evaluation at small n, log-domain beyond (the factor
    q^(k(k-1)/2) overflows doubles quickly).
    """
    n, t, q = params.n, params.theta, params.q
    if k < 0 or k > n:
        return 0.0
    if t == 0:
        return 1.0 if k == 0 else 0.0
    # linear domain only while every intermediate stays well under 1e308
    magnitude = (n * (n - 1) / 2) * math.log10(q) + n * math.log10(max(t, 1.0))
    if n <= LOG_DOMAIN_THRESHOLD and magnitude < 140:
        num = q_binomial(n, k, q) * float(q) ** (k * (k - 1) // 2) * t**k
        den = 1.0
        for i in range(n):
            den *= 1.0 + t * q**i
        return num / den
    return float(q) ** log_pmf(k, params)


def pmf_fraction(k, n, theta, q):
    """Exact rational pmf for rational theta (oracle path)."""
    t = Fraction(theta)
    if k < 0 or k > n:
        return Fraction(0)
    num = q_binomial(n, k, q) * Fraction(q) ** (k * (k - 1) // 2) * t**k
    return num / pochhammer(-t, q, n)


def _q_binomial_real(n, k, q):
    """Gaussian binomial by the telescoping product; tolerates real q > 1."""
    out = 1.0
    for i in range(1, k + 1):
        out *= (q ** (n - k + i) - 1.0) / (q**i - 1.0)
    return out


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
        log_coeff = math.log(_q_binomial_real(n, k, q))
    # log domain: q^(k(k-1)/2) and the x+y q-power product both explode
    log_num = (
        log_coeff
        + k * (k - 1) / 2.0 * math.log(q)
        + k * math.log(y)
        + (n - k) * math.log(x)
    )
    log_den = sum(math.log(x + y * q**i) for i in range(n))
    return math.exp(log_num - log_den)


def mean(params):
    """Expected dimension: sum_j theta q^j / (1 + theta q^j)."""
    return sum(bernoulli_chain(params))


def variance(params):
    t, q = params.theta, params.q
    return sum(t * q**j / (1.0 + t * q**j) ** 2 for j in range(params.n))


def c_n(theta, n, q):
    """Partial sum sum_{j<n} 1/(1 + theta q^j); equals n - mean."""
    return sum(1.0 / (1.0 + theta * q**j) for j in range(n))


def c_inf(theta, q, tol=1e-12):
    """Limit of c_n: terms decay geometrically, truncated below tol."""
    if not theta > 0:
        raise ValueError("theta must be positive for a finite limit")
    total = 0.0
    j = 0
    while True:
        term = 1.0 / (1.0 + theta * q**j)
        total += term
        if term < tol:
            return total
        j += 1


def sample(params, rng):
    """One draw: sum of independent Bernoullis along the chain."""
    k = 0
    for p in bernoulli_chain(params):
        if rng.random() < p:
            k += 1
    return k


def m_qn(theta, n, q):
    """Theoretical mean as a function of theta, extended by m(inf) = n."""
    if theta == math.inf:
        return float(n)
    return mean(QBinomialParams(n, theta, q))


def mle_theta(samples, n, q, tol=MLE_DEFAULT_TOL):
    """Maximum-likelihood theta from dimension samples in {0..n}.

    Solves m_qn(theta) = sample mean by bracketing bisection, converging
    on the mean scale (theta itself is ill-conditioned near mean = n).
    Returns math.inf when every sample equals n.
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = m_qn(mid, n, q)
        if abs(m - ybar) < tol:
            return mid
        if m < ybar:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
