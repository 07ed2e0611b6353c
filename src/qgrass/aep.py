"""Typical subspaces and the equipartition machinery.

The limiting codimension law mu(d), its quantile function Delta(p), typical
sets A_n with their exact sizes, the greedy minimal covering set, subspace
block coding by rank/unrank (a codeword is its index written in base q with
the gf digit codec, gf.to_text/gf.from_text), the total-Grassmannian growth
check, and the Pochhammer-quotient bounds used in the tail estimates.

The finite-n class-mass sums are exact and run in integers over one shared
denominator: when theta = a/b is rational (int or Fraction) every class
mass has the denominator prod_{i<n} (b + a q^i) and its numerator is read
off the Gaussian column `qcomb._gaussian_column`; otherwise the walk sums
the exact values of the float class masses of `qdist`, multiples of
2^-1074.  That stop a_n alone makes the typical set and the block code;
the class sizes, and the total Grassmannian size, are read off the same
column.  mu and Delta, reported next to a_n, live in float (infinite
products): one walk, `_mu_values`, yields every mu(d), Delta bisects their
partial sums, and mu and `check_aep` share `qdist._completed_square`.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .entropy import binary_quadratic_entropy, log_q_int
from .gf import (
    TEXT_BASE_MAX, free_positions, from_text, full_space, subspace_from_pattern, to_text
)
from .qcomb import _gaussian_column, pochhammer_inf, q_binomial
from .qdist import QBinomialParams, _codim_log_probs, _completed_square, _log_class_masses
from .qdist import log_q_neg_inv_pochhammer

MU_REL_CUT = 1e-15
CONTINUITY_TOL = 1e-12
TAIL_FLOAT_SLACK = 1e-12


def _mu_values(theta, q):
    """Yield (d - x0, mu(d)) for d = 0, 1, ...: the one walk of the limit law.

    mu(d) = q^(-(d-x0)^2/2 + x0^2/2) (q^-(d+1); 1/q)_inf / N,
    x0 = 1/2 - log_q theta,  N = (1/q; 1/q)_inf (-1/theta; 1/q)_inf.

    theta is checked, and N computed, once per walk, and the exponents are
    read off `qdist._completed_square`.  Once x0 passes ~45 at q = 2 (theta
    below ~3e-14), N and the power overflow a double while their quotient
    does not; there, and only there, a term is taken in log_q, with log_q N
    summed over ceil(x0) + 80 factors of (-1/theta; 1/q) (the factors left
    out differ from 1 by less than q^-80).
    """
    if not theta > 0:
        raise ValueError("mu is undefined at theta = 0 (degenerate process)")
    if float(theta) == 0.0 or 1.0 / float(theta) == math.inf:
        raise ValueError(f"theta = {theta!r} is too small: 1/theta overflows a double")
    theta = float(theta)
    qinv = 1.0 / q
    euler = pochhammer_inf(qinv, qinv)
    norm = euler * pochhammer_inf(-1.0 / theta, qinv)
    log_norm = None
    for d, (off, expo) in enumerate(_completed_square(theta, q)):
        if d == 0:
            x0 = -off  # the walk's x0
        tail = pochhammer_inf(q ** -(d + 1.0), qinv)
        try:
            value = q**expo * tail / norm if norm < math.inf else None
        except OverflowError:
            value = None
        if value is None:
            if log_norm is None:
                log_norm = math.log(euler, q) + log_q_neg_inv_pochhammer(theta, math.ceil(x0) + 80, q)
            value = q ** (expo + math.log(tail, q) - log_norm)
        yield off, value


def mu(d, theta, q):
    """Limiting probability that V_n has codimension d: term d of the walk."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return next(itertools.islice(_mu_values(theta, q), d, None))[1]


@dataclass(frozen=True)
class MuTable:
    """Tabulated mu(0..d_max) with a bound on the truncated tail mass."""

    theta: float
    q: int
    values: tuple
    tail_bound: float

    @property
    def d_max(self):
        return len(self.values) - 1

    def cumulative(self):
        return list(itertools.accumulate(self.values))

    def total(self):
        return sum(self.values)


def build_mu_table(theta, q):
    """Tabulate mu until terms fall below MU_REL_CUT * max and the tail is
    controlled by the super-Gaussian decay of the exponent.

    The successive ratio telescopes exactly:
    mu(d+1)/mu(d) = q^(-(d - x0) - 1/2) / (1 - q^-(d+1)), and it decreases
    in d past the mode x0, so once r < 1/2 the remaining mass is below
    mu(d_last) * r / (1 - r).
    """
    values = []
    peak = 0.0
    for d, (off, v) in enumerate(_mu_values(theta, q)):
        values.append(v)
        peak = max(peak, v)
        if off > 0 and v < MU_REL_CUT * peak:
            ratio = q ** (-off - 0.5) / (1.0 - q ** -(d + 1.0))
            if ratio < 0.5:
                return MuTable(float(theta), q, tuple(values), v * ratio / (1.0 - ratio))
        if d >= 10_000:
            raise RuntimeError("mu table failed to converge")


def delta(p, table):
    """Smallest d whose cumulative mu mass reaches p, for p in [0, 1).

    Refuses when the tabulated mass cannot certify the answer.
    """
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    cumulative = table.cumulative()
    d = bisect.bisect_left(cumulative, p)
    if d == len(cumulative):
        raise ValueError(f"mu table covers mass {cumulative[-1]}, insufficient for p={p}")
    return d


def is_continuity_point(p, table):
    """True iff p is more than CONTINUITY_TOL from every partial sum of mu."""
    return all(abs(p - c) > CONTINUITY_TOL for c in table.cumulative())


@dataclass(frozen=True)
class TypicalSet:
    """Descriptor of A_n = union of Gr(n-d, n) for d = 0..delta_codim."""

    n: int
    q: int
    theta: float
    epsilon: float
    delta_codim: int
    exact_size: int
    limit_delta: int
    discontinuity: bool
    bracket: tuple

    @property
    def member_codims(self):
        return range(self.delta_codim + 1)


def _class_mass_stop(n, epsilon, theta, q):
    """Walk the codimension classes up to a_n, the first whose cumulative
    mass reaches 1 - epsilon; a_n is n if the sum never does.

    Returns (a_n, deficit, mass, den) in integers: the mass still missing
    when class a_n is entered is deficit / den and the mass of class a_n is
    mass / den.  The walk adds integer numerators over one denominator and
    compares cross products, so it is exact and runs no Fraction sum and no
    gcd; no rounding decides the stop across the q^-(n^2/2) range of the
    masses.  For a rational theta = a/b the denominator is
    prod_{i<n} (b + a q^i) and class d, of dimension m = n - d, has the
    numerator [n, d]_q q^(m(m-1)/2) a^m b^d.  A float class mass is a
    multiple of 2^-1074, the least positive double, so 2^1074 is a
    denominator of every one, and its exact value meets Fraction(1.0 - epsilon).
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if isinstance(theta, (int, Fraction)):
        need = 1 - Fraction(epsilon).limit_denominator(10**12)
        a, b = Fraction(theta).as_integer_ratio()
        total = math.prod(b + a * q**i for i in range(n))
        masses = (
            size * q ** ((n - d) * (n - d - 1) // 2) * a ** (n - d) * b**d
            for d, size in enumerate(_gaussian_column(n, q))
        )
    else:
        need = Fraction(1.0 - epsilon)
        total = 2**1074
        masses = (
            int(Fraction(float(q) ** log_mass) * total)
            for log_mass in _log_class_masses(QBinomialParams(n, theta, q))
        )
    acc = 0
    for d, mass in enumerate(masses):
        if (acc + mass) * need.denominator >= need.numerator * total or d == n:
            break
        acc += mass
    den = need.denominator * total
    return d, need.numerator * total - acc * need.denominator, mass * need.denominator, den


def _class_sizes(n, d, q):
    """[|Gr(n - c, n)| for c in 0..d], read off the Gaussian column."""
    return list(itertools.islice(_gaussian_column(n, q), d + 1))


def typical_set(n, epsilon, theta, q):
    """Smallest union of codimension classes with miss probability <= epsilon.

    The stop index a_n comes from cumulative class probabilities at finite n;
    the limiting Delta(1 - epsilon) is reported next to it.  When 1 - epsilon
    collides with a partial sum of mu, the discontinuity flag is set and the
    limit is only bracketed between Delta and Delta + 1.
    """
    a_n = _class_mass_stop(n, epsilon, theta, q)[0]
    size = sum(_class_sizes(n, a_n, q))
    table = build_mu_table(theta, q)
    p_eps = 1.0 - epsilon
    limit_delta = delta(p_eps, table)
    discontinuity = not is_continuity_point(p_eps, table)
    bracket = (limit_delta, limit_delta + 1) if discontinuity else (limit_delta, limit_delta)
    return TypicalSet(
        n, q, float(theta), float(epsilon), a_n, size, limit_delta, discontinuity, bracket
    )


def check_aep(n, epsilon, delta_tol, theta, q):
    """Equipartition report for the typical set at time n.

    For each codimension d <= a_n, the gap
    | log_q(1/Pr{V_n = v}) / n  -  (n/2) H_2(d/n) |
    is evaluated through the codimension form `qdist._codim_log_probs`, one
    tail sum, together with the g(d, n)/n correction the gap equals analytically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = typical_set(n, epsilon, theta, q)
    terms = list(zip(ts.member_codims, _codim_log_probs(n, theta, q)))
    gaps = [abs(-lp / n - (n / 2.0) * binary_quadratic_entropy(d / n)) for d, (lp, _) in terms]
    g_over_n = [g / n for _, (_, g) in terms]
    return {
        "n": n,
        "epsilon": epsilon,
        "a_n": ts.delta_codim,
        "limit_delta": ts.limit_delta,
        "discontinuity": ts.discontinuity,
        "gaps": gaps,
        "max_gap": max(gaps),
        "g_over_n": g_over_n,
        "pass": max(gaps) <= delta_tol,
    }


def greedy_min_set_size(n, epsilon, theta, q):
    """Exact minimal cardinality s(n, epsilon) and the last codimension b_n.

    Builds B_n by adding whole codimension classes in decreasing per-space
    probability (increasing codimension) and tops up with a partial class,
    in the exact arithmetic of the class-mass stop.  The last
    codimension b_n is the typical set's a_n: both are the same class-mass
    stop, whose partial class is never empty, which is asserted.
    """
    d, deficit, mass, _ = _class_mass_stop(n, epsilon, theta, q)
    *whole, last = _class_sizes(n, d, q)
    # ceil(deficit / (mass / last)): the spaces of class d, each of mass
    # mass / last, that cover the deficit; deficit and mass share one
    # denominator, which cancels
    partial = -(-deficit * last // mass)
    assert partial > 0, f"empty partial class at the class-mass stop {d}"
    return sum(whole) + partial, d


# -- block coding ----------------------------------------------------------

@dataclass(frozen=True)
class BlockCode:
    """Fixed-length base-q code for the typical subspaces at time n.

    Ranking order: codimension ascending, then the deterministic
    Grassmannian enumeration order (pivot sets lexicographic, free entries
    lexicographic row-major).
    """

    n: int
    field: object
    codim_bound: int
    class_sizes: tuple
    exact_size: int
    codeword_len: int


def make_block_code(n, epsilon, theta, field):
    """Block code of the typical set A_n over field, from its stop a_n alone."""
    if field.q > TEXT_BASE_MAX:
        raise ValueError(f"codewords support q <= {TEXT_BASE_MAX}")
    a_n = _class_mass_stop(n, epsilon, theta, field.q)[0]
    sizes = tuple(_class_sizes(n, a_n, field.q))
    total = sum(sizes)
    # ceil(log_q total) in exact integer arithmetic
    length, reach = 0, 1
    while reach < total:
        reach *= field.q
        length += 1
    return BlockCode(n, field, a_n, sizes, total, length)


def _pivot_block(c, m, n, q, base):
    """Number of subspaces whose next pivot is c, followed by any m pivots
    in range(c + 1, n): the sum of q**(free entries) over those pivot sets.
    base is sum(n - 1 - p) over the pivots p before c, minus k(k - 1)/2."""
    return q ** (base + n - 1 - c + m * (m - 1) // 2) * q_binomial(n - 1 - c, m, q)


def _rank_in_class(v):
    """Rank of v inside Gr(k, n) under the enumeration order.

    The shapes before v's pivot set are counted in blocks that share a
    prefix, so no pivot set is walked one by one."""
    n = v.ambient_dim
    q = v.field.q
    k = v.dim
    rank, base, lo = 0, -k * (k - 1) // 2, 0
    for i, p in enumerate(v.pivot_cols):
        for c in range(lo, p):
            rank += _pivot_block(c, k - 1 - i, n, q, base)
        base, lo = base + n - 1 - p, p + 1
    local = 0
    for (i, j) in free_positions(v.pivot_cols, n):
        local = local * q + v.basis[i][j]
    return rank + local


def _unrank_in_class(rank, k, n, field):
    q = field.q
    pivots, base, lo = [], -k * (k - 1) // 2, 0
    for i in range(k):
        m = k - 1 - i
        for c in range(lo, n - m):
            block = _pivot_block(c, m, n, q, base)
            if rank < block:
                break
            rank -= block
        else:
            raise ValueError("rank out of range for this Grassmannian")
        pivots.append(c)
        base, lo = base + n - 1 - c, c + 1
    free = free_positions(pivots, n)
    if rank >= q ** len(free):
        raise ValueError("rank out of range for this Grassmannian")
    values = [0] * len(free)
    for idx in range(len(free) - 1, -1, -1):
        values[idx] = rank % q
        rank //= q
    return subspace_from_pattern(pivots, values, n, field)


def encode(v, code):
    """Codeword of a subspace; atypical inputs get the reserved word.

    The reserved word is the first unused index when one exists, else word
    0: either way the decoder cannot return an atypical space, so the error
    event is exactly {V_n not typical}.
    """
    if v.ambient_dim != code.n or v.field != code.field:
        raise ValueError("subspace does not match the code's ambient space")
    d = code.n - v.dim
    if d > code.codim_bound:
        reserved = code.exact_size if code.field.q**code.codeword_len > code.exact_size else 0
        return to_text(reserved, code.codeword_len, code.field.q)
    idx = sum(code.class_sizes[:d]) + _rank_in_class(v)
    return to_text(idx, code.codeword_len, code.field.q)


def decode(word, code):
    """Subspace of a codeword; out-of-range words map to the default
    subspace (the full space, rank 0 in the code order)."""
    if len(word) != code.codeword_len:
        raise ValueError(
            f"codeword must have {code.codeword_len} digits, got {len(word)}"
        )
    idx = from_text(word, code.field.q)
    if idx >= code.exact_size:
        return full_space(code.n, code.field)
    for d, size in enumerate(code.class_sizes):
        if idx < size:
            return _unrank_in_class(idx, code.n - d, code.n, code.field)
        idx -= size
    raise AssertionError("index exhausted class sizes")


# -- growth and tail bounds ------------------------------------------------

def grassmannian_size(n, q):
    """|Gr(n)| = sum_k qbinom(n, k), exact: one walk of the Gaussian column."""
    return sum(_gaussian_column(n, q))


def grassmannian_growth(n_list, q):
    """Rows (n, (2/n^2) log_q |Gr(n)|); the values tend to 1/2."""
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("growth rates need n >= 1")
        rows.append((n, 2.0 * log_q_int(grassmannian_size(n, q), q) / (n * n)))
    return rows


def check_tail_quotient_bounds(n, d, q):
    """Tail bounds on the quotient (q^-(n-d+1); 1/q)_inf / (q^-(n+1); 1/q)_inf.

    The quotient never exceeds 1; for d <= 2 sqrt(n) the series expansion of
    the reciprocals (terms q^-k(n+1-d), with n+1-d >= (sqrt(n)-1)^2) bounds
    it below by 1 - c(q) q^(-(sqrt(n)-1)^2) with c(q) = 2 / (1/q; 1/q)_inf.
    TAIL_FLOAT_SLACK absorbs float rounding in the truncated products.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d > 2 * math.sqrt(n):
        raise ValueError("lower bound requires d <= 2 sqrt(n)")
    qinv = 1.0 / q
    ratio = pochhammer_inf(q ** -(n - d + 1.0), qinv) / pochhammer_inf(
        q ** -(n + 1.0), qinv
    )
    c_q = 2.0 / pochhammer_inf(qinv, qinv)
    lower = 1.0 - c_q * q ** -((math.sqrt(n) - 1.0) ** 2)
    return ratio <= 1.0 + TAIL_FLOAT_SLACK and ratio >= lower - TAIL_FLOAT_SLACK
