"""The q-binomial distribution Bin_q(n, theta) and the law of the
Grassmannian process: dim V_n has the pmf, and V_n is uniform on each
Gr(k, n), so the codimension-d class has mass pmf(n - d).

`growth_terms` is the one float chain: from one running power of q it
yields the growth factor theta q^i / (1 + theta q^i) and its complement
1 / (1 + theta q^i), kept to relative accuracy.  `bernoulli_chain`, which
the mean sums and the process draws against, takes its factors; the
variance, c_n and c_inf sum its pairs.  `_ln1p_q_pow` is the one factor
ln(1 + q^u) of the log products (-theta; q)_n and (-1/theta; 1/q)_n, summed
left to right on every Python version.  `_log_class_masses`, one float walk
of the ratios of neighbouring codimension classes out from the mode, gives
every log class mass, for the pmf column's log branch, `log_pmf` and
`pmf_xy`; it forms no big integer.
`_completed_square` holds x0 = 1/2 - log_q theta and the exponent
-(d - x0)^2/2 + x0^2/2 that the codimension form and `aep`'s mu share.  The
exact rational pmf and subspace law, the oracles of these floats, live with
the tests (tests/oracles.py).  MLE of theta bisects
on the mean scale, on log theta below the reach of 200 linear halvings;
one call builds the doubles q^0..q^(n-1) once, and every step sums the
quotient x / (1 + x) of theta times each, bit for bit the mean.  The
bisection is certified: Newton steps on log theta over the same table
find the root, two float means on either side of it, each farther than
tol + 2E from the sample mean (E = 4 n^2 2^-53 bounds the float mean's
error), decide every midpoint outside them, and only the midpoints between
are evaluated, so the estimate is the plain bisection's bit for bit.  The
chain's one sampler is `grassproc.growth_steps`.
"""

import functools
import itertools
import math
import operator
from collections import Counter, namedtuple
from collections.abc import Mapping

from .qcomb import _gaussian_column

LOG_DOMAIN_THRESHOLD = 30
MLE_DEFAULT_TOL = 1e-12
C_INF_TOL = 1e-12


class QBinomialParams(namedtuple("QBinomialParams", "n theta q")):
    __slots__ = ()

    def __new__(cls, n, theta, q):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if not theta >= 0:
            raise ValueError(f"theta must be >= 0, got {theta!r}")
        if not isinstance(q, int) or q < 2:
            raise ValueError(f"q must be an integer >= 2, got {q!r}")
        return super().__new__(cls, n, theta, q)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the fields too
        return cls(*fields)


def growth_terms(theta, q):
    """Yield (p_i, 1 - p_i) = (theta q^i / (1 + theta q^i), 1 / (1 + theta q^i))
    for i = 0, 1, ...: the one float chain of the process, its moments and
    its histogram.

    One running exact int q^i: a float theta rounds it once, as
    theta * q**i does, and an int or Fraction theta keeps the exact product.
    The complement is divided out, not subtracted from 1, so it keeps its
    relative accuracy when theta q^i >> 1.  Once theta q^i overflows to inf
    or has no float (q^i past the double range, i > 1023 at q = 2) the pair
    is the logistic of ln(theta q^i), and (0.0, 1.0) at theta = 0.
    """
    qi = 1
    try:
        for i in itertools.count():
            t = theta * qi
            if t == math.inf:
                break
            u = 1.0 + t
            yield t / u, 1.0 / u
            qi *= q
    except OverflowError:  # theta q^i has no float
        if not theta:
            yield from itertools.repeat((0.0, 1.0))
    log_theta, log_q = math.log(theta), math.log(q)
    for i in itertools.count(i):
        e = math.exp(-(log_theta + i * log_q))
        yield 1.0 / (1.0 + e), e / (1.0 + e)


def bernoulli_chain(params):
    """Success probabilities p_i = theta q^(i-1) / (1 + theta q^(i-1)), i = 1..n:
    the first n terms of `growth_terms`."""
    return tuple(p for p, _ in itertools.islice(growth_terms(params.theta, params.q), params.n))


def _sum_left(terms):
    """Float sum added left to right, as `sum` did before Python 3.12 made it
    compensated: the log products keep their last bits on every version."""
    return functools.reduce(operator.add, terms, 0.0)


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
    return _sum_left(_ln1p_q_pow(u + i, q) for i in range(n)) / math.log(q)


def log_q_neg_inv_pochhammer(theta, n, q):
    """log_q of (-1/theta; 1/q)_n = prod_{i<n} (1 + q^u), u = -log_q theta - i.

    theta > 0, down to the smallest subnormal.  Bounded in n: the factors
    tend to 1 geometrically.
    """
    u = -math.log(theta) / math.log(q)
    return _sum_left(_ln1p_q_pow(u - i, q) for i in range(n)) / math.log(q)


def log_pmf(k, params):
    """log_q of the pmf; -inf outside the support."""
    n, t, q = params.n, params.theta, params.q
    if k < 0 or k > n:
        return -math.inf
    if t == 0:
        return 0.0 if k == 0 else -math.inf
    return _log_class_masses(n, math.log(t), q)[n - k]


def _log_class_masses(n, log_theta, q):
    """[log_q pmf(n - d) for d in 0..n] at theta = e^log_theta and a real
    q > 1: the log_q masses of the codimension classes, from one float walk.

    Class d has weight w(d) = [n, d]_q theta^(n-d) q^((n-d)(n-d-1)/2), and
    w(d+1) / w(d) = q (1 - q^-(n-d)) / ((q^(d+1) - 1) theta); its log_q takes
    1 - q^-m as -expm1(-m ln q), so no power of q above 1 is formed.  These
    ratios decrease in d; the walk sums them outwards from the mode, whose
    weight is 1, and divides by the sum of the weights once, left to right.
    """
    ln_q = math.log(q)
    u = log_theta / ln_q
    ln_1m = [math.log(-math.expm1(-m * ln_q)) for m in range(1, n + 1)]  # ln(1 - q^-m)
    # log_q w(d+1)/w(d) = 1 - u - log_q(q^(d+1) - 1) + log_q(1 - q^-(n-d))
    steps = [(ln_1m[n - d - 1] - ln_1m[d]) / ln_q - d - u for d in range(n)]
    mode = sum(step > 0 for step in steps)
    down = itertools.accumulate((-step for step in reversed(steps[:mode])), initial=0.0)
    walk = list(down)[::-1] + list(itertools.accumulate(steps[mode:]))
    log_total = math.log(_sum_left(q**w for w in walk)) / ln_q
    return [w - log_total for w in walk]


def pmf(k, params):
    """Probability of dimension k; 0 outside {0..n} by contract."""
    if k < 0 or k > params.n:
        return 0.0
    return _pmf_column(params)[k]


def _pmf_column(params):
    """[pmf(k, params) for k in 0..n], with the normaliser computed once.

    Linear-domain evaluation at small n, one pass over the Gaussian column
    `qcomb._gaussian_column`; log-domain beyond (the factor q^(k(k-1)/2)
    overflows doubles quickly), from the class masses, d = n - k.
    """
    n, t, q = params.n, params.theta, params.q
    if t == 0:
        return [1.0] + [0.0] * n
    # linear domain only while every intermediate stays well under 1e308
    magnitude = (n * (n - 1) / 2) * math.log10(q) + n * math.log10(max(t, 1.0))
    if n > LOG_DOMAIN_THRESHOLD or magnitude >= 140:
        return [float(q) ** log_p for log_p in _log_class_masses(n, math.log(t), q)][::-1]
    den = math.prod(1.0 + t * q**i for i in range(n))
    return [
        coeff * float(q) ** (k * (k - 1) // 2) * t**k / den
        for k, coeff in enumerate(_gaussian_column(n, q))
    ]


def _completed_square(theta, q):
    """Yield (d - x0, -(d - x0)^2/2 + x0^2/2) for d = 0, 1, ..., x0 = 1/2 - log_q theta."""
    x0 = 0.5 - math.log(theta) / math.log(q)
    for d in itertools.count():
        off = d - x0
        yield off, -0.5 * off**2 + 0.5 * x0**2


def _codim_log_probs(n, theta, q):
    """Yield (log_pmf_by_codim(d, n, theta, q), g(d, n)) for d = 0..n from one
    tail log_q (-1/theta; 1/q)_n; g(d, n) is the tail minus the completed square."""
    import qgrass.entropy as entropy  # no other qdist path needs it

    tail = log_q_neg_inv_pochhammer(theta, n, q)
    for d, (_, expo) in zip(range(n + 1), _completed_square(theta, q)):
        h2_term = (n * n) * entropy.binary_quadratic_entropy(d / n) / 2.0 if n else 0.0
        yield expo - h2_term - tail, -expo + tail


def log_pmf_by_codim(d, n, theta, q):
    """log_q Pr{V_n = v}, dim v = n - d, by the completed-square codimension form
    -(d - x0)^2/2 + x0^2/2 - (n^2/2) H_2(d/n) - log_q (-1/theta; 1/q)_n."""
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if not theta > 0:
        raise ValueError("theta must be positive")
    return next(itertools.islice(_codim_log_probs(n, theta, q), d, None))[0]


def pmf_xy(k, n, x, y, q):
    """Two-parameter pmf with weights x, y >= 0 (theta = y/x when x > 0).

    q may be a real number > 1 here; the q -> 1 limit recovers the
    classical binomial with success probability y/(x+y).  theta is taken
    as ln y - ln x, so y/x need not fit a double.
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
    return float(q) ** _log_class_masses(n, math.log(y) - math.log(x), q)[n - k]


def mean(params):
    """Expected dimension: sum_j theta q^j / (1 + theta q^j)."""
    return sum(bernoulli_chain(params))


def variance(params):
    """Variance of the dimension: sum_j p_j (1 - p_j) over the chain."""
    return sum(p * c for p, c in itertools.islice(growth_terms(params.theta, params.q), params.n))


def c_n(theta, n, q):
    """Partial sum sum_{j<n} (1 - p_j) = sum_{j<n} 1/(1 + theta q^j) = n - mean."""
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta!r}")
    return sum(c for _, c in itertools.islice(growth_terms(theta, q), n))


def c_inf(theta, q):
    """Limit of c_n: terms decay geometrically, truncated below C_INF_TOL."""
    if not theta > 0:
        raise ValueError("theta must be positive for a finite limit")
    total = 0.0
    for _, c in growth_terms(theta, q):
        total += c
        if c < C_INF_TOL:
            return total


def m_qn(theta, n, q):
    """Theoretical mean as a function of theta, extended by m(inf) = n."""
    if theta == math.inf:
        return float(n)
    return mean(QBinomialParams(n, theta, q))


def mle_theta(samples, n, q, tol=MLE_DEFAULT_TOL):
    """Maximum-likelihood theta from dimension samples in {0..n}, given as
    an iterable or as a histogram {sample: count} (the MLE reads only their
    number, sum and range).

    Solves m_qn(theta) = sample mean by bracketing bisection, converging
    on the mean scale (theta itself is ill-conditioned near mean = n), to
    the residual tol, finite and >= 0 (at 0 only an exact hit ends the 200
    halvings early).  Returns
    math.inf when every sample equals n.  When the root lies below
    hi 2^-200, the least midpoint that bisecting [0, hi] can reach, it
    bisects log theta down to the smallest positive double instead, and
    refuses a root below that.  Every step reads one table of the doubles
    q^0..q^(n-1), built once per call (`_mean_of`).

    The answer is a function of the bisection's decisions alone, so a
    midpoint whose decision is certified is not evaluated.  Newton steps on
    log theta find the root; the float means at theta_lo below it and
    theta_hi above it then certify every midpoint outside them, since the
    exact mean increases with theta and the float mean lies within
    E = 4 n^2 2^-53 of it.  With u = 2^-53:

    - q^i rounds to its double with relative error <= u, and theta times it
      rounds once more, so x = theta q^i (1 + e) with |e| <= 2u + u^2;
    - t / (1 + t) has relative condition 1 / (1 + t) <= 1, so its exact
      value at x is within 2u + u^2 of the term's;
    - 1 + x and the quotient round once each, so each float term lies
      within (1 + u)^3 / (1 - u) - 1 < 4.1u of the term, relatively, and
      the n terms, each below 1, err by less than 4.1u n together;
    - a partial sum of k float terms, each at most 1, is at most k, so the
      addition that forms it errs by at most u k; the first, 0 + p_0, is
      exact, and the running sum errs by at most u (n (n + 1) / 2 - 1).
      From Python 3.12 `sum` is compensated (Neumaier), with an error of
      about 2u n at most, which the bound below covers as well.

    That is at most u (4.1 n + n (n + 1) / 2 - 1) <= 4 n^2 u for n >= 2;
    at n = 1, q^0 = 1 is exact and nothing is added, so 3.1u.  Then a float
    mean(theta_lo) < ybar - tol - 2E (decided exactly, by `math.fsum`) puts
    the float mean at every theta <= theta_lo below ybar - tol: the
    decision there is lo = mid, with no early return; symmetrically above
    theta_hi.  A side that fails the certificate after two widenings
    certifies nothing, and past the double range of q^(n-1), where the
    means are m_qn's, no side is certified: there every midpoint is
    evaluated, as before.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    counts = samples if isinstance(samples, Mapping) else Counter(samples)
    if not counts:
        raise ValueError("at least one sample is required")
    if not (0 <= min(counts) and max(counts) <= n):
        for s in counts:  # in first-occurrence order: the first offender
            if s < 0 or s > n:
                raise ValueError(f"sample {s!r} outside [0, {n}]")
    ybar = _sample_mean(counts)[1]
    if ybar == 0:
        return 0.0
    if ybar == n:
        return math.inf

    mean_at, slope_at = _mean_of(n, q)
    hi = 1.0
    while mean_at(hi) <= ybar:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    reach = hi * 2.0**-200
    if mean_at(reach) <= ybar:  # the root lies in [reach, hi]
        span, theta_at, lo = (0.0, hi), float, reach  # float(x) is x
    else:  # in [least, reach]
        lo = math.ulp(0.0)
        if mean_at(lo) > ybar:
            raise ValueError(
                f"theta_hat lies below the double range: m_qn({lo}) exceeds "
                f"the sample mean {ybar}"
            )
        span, theta_at, hi = (math.log(lo), math.log(reach)), math.exp, reach
    bracket = (-math.inf, math.inf)
    if slope_at is not None:
        bracket = _certified_bracket(mean_at, slope_at, lo, hi, ybar, tol, n, q)
    return _bisect_mean(*span, ybar, mean_at, tol, theta_at, bracket)


def _sample_mean(counts):
    """(number of samples, their mean) for a histogram {sample: count} of
    integer samples: exact integer sums, one rounding."""
    size = sum(counts.values())
    return size, sum(s * c for s, c in counts.items()) / size


def _mean_of(n, q):
    """(mean_at, slope_at) for a float theta > 0: mean_at(theta) is
    m_qn(theta, n, q) bit for bit, and slope_at(theta) is the same mean
    with d m_qn / d log theta = sum p_i (1 - p_i), from one pass.

    The doubles q^i are built once: theta * q**i rounds the int q^i to its
    double before it multiplies, so theta * p is the same product, and its
    quotient is `growth_terms`' p_i.  Once q^(n-1) has no double the chain
    is `growth_terms`', through m_qn, and slope_at is None.
    """
    try:
        powers = [float(q**i) for i in range(n)]
    except OverflowError:
        return (lambda theta: m_qn(theta, n, q)), None

    def slope_at(theta):
        m = dm = 0.0
        for p in powers:
            u = 1.0 if (x := theta * p) == math.inf else x / (1.0 + x)
            m += u
            dm += u * (1.0 - u)
        return m, dm

    return lambda theta: sum(
        1.0 if (x := theta * p) == math.inf else x / (1.0 + x) for p in powers
    ), slope_at


def _certified_bracket(mean_at, slope_at, lo, hi, ybar, tol, n, q):
    """(theta_lo, theta_hi) about the root of mean = ybar in [lo, hi]: the
    float mean is below ybar - tol at every theta <= theta_lo and above
    ybar + tol at every theta >= theta_hi (see `mle_theta`).  A side that
    is not certified is -inf or inf.

    At most eight Newton steps on log theta solve g(mean) = g(ybar), g the
    chain's integral m ~ log_q((1 + b q^n) / (1 + b)), theta = b q^(1/2),
    solved for log theta: g(mean(theta)) is close to log theta itself, and
    g(ybar) is the first guess.  A step that leaves [lo, hi], where the
    mean crosses ybar, bisects log theta instead.  Each side then tries the
    distances w, 8w and 64w in log theta from the root,
    w = 2 (tol + 2E) / slope, at most 1.
    """
    ln_q = math.log(q)
    e2 = 8.0 * n * n * 2.0**-53  # 2E, exact

    def log_theta_of(m):  # the chain's integral, solved for log theta
        return (m - n + 0.5) * ln_q + math.log(
            math.expm1(-m * ln_q) / math.expm1((m - n) * ln_q))

    goal = log_theta_of(ybar)
    theta = math.exp(max(min(goal, math.log(hi)), math.log(lo)))
    width = 1.0
    for _ in range(8):
        if not lo <= theta <= hi:
            theta = math.sqrt(lo) * math.sqrt(hi)
        m, dm = slope_at(theta)
        if m <= ybar:
            lo = theta
        else:
            hi = theta
        if not (0.0 < m < n and dm > 0.0):
            theta = math.sqrt(lo) * math.sqrt(hi)
            continue
        width = min(2.0 * (tol + e2) / dm, 1.0)
        step = (goal - log_theta_of(m)) / (dm * ln_q * (
            1.0 + 1.0 / math.expm1(m * ln_q) + 1.0 / math.expm1((n - m) * ln_q)))
        theta *= math.exp(max(min(step, 700.0), -700.0))
        if abs(step) < 0.25 * width:
            break
    return tuple(_certified_side(mean_at, theta, side * width, ybar, tol, e2)
                 for side in (-1.0, 1.0))


def _certified_side(mean_at, theta, width, ybar, tol, e2):
    """The first t of theta e^width, e^(8 width), e^(64 width) whose float
    mean m has s (m - ybar) > tol + e2, s the sign of width, decided in
    exact arithmetic; else s inf."""
    s = math.copysign(1.0, width)
    for scale in (1.0, 8.0, 64.0):
        t = theta * math.exp(scale * width)
        if math.fsum((s * mean_at(t), -s * ybar, -tol, -e2)) > 0.0:
            return t
    return s * math.inf


def _bisect_mean(lo, hi, ybar, mean_at, tol, theta_at, bracket):
    """Bisect x in [lo, hi] for mean_at(theta_at(x)) = ybar, 200 halvings,
    or fewer once a halving leaves [lo, hi] as it was.

    A midpoint whose theta is <= bracket[0] or >= bracket[1] is decided
    without evaluating the mean: `_certified_bracket` certified it.
    """
    theta_lo, theta_hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        theta = theta_at(mid)
        if theta <= theta_lo:
            below = True
        elif theta >= theta_hi:
            below = False
        else:
            m = mean_at(theta)
            if abs(m - ybar) < tol:
                return theta
            below = m < ybar
        if mid == (lo if below else hi):
            break  # (lo, hi) is unchanged, so every later halving repeats this one
        if below:
            lo = mid
        else:
            hi = mid
    return theta_at(0.5 * (lo + hi))
