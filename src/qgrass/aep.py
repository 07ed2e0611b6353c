"""Typical subspaces and the equipartition machinery.

The limiting codimension law mu(d), its quantile function Delta(p), typical
sets A_n with their exact sizes, the greedy minimal covering set, subspace
block coding by rank/unrank, the total-Grassmannian growth check, and the
Pochhammer-quotient bounds used in the tail estimates.

Whenever theta is rational (int or Fraction), the finite-n tail sums run in
exact rational arithmetic, so set sizes and stop indices are exact; mu and
Delta live in float since they involve infinite products.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import grassproc
from .entropy import binary_quadratic_entropy, log_q_int
from .gf import _DIGITS, free_positions, full_space, subspace_from_pattern
from .qcomb import pochhammer_inf, q_binomial
from .qdist import log_q_neg_inv_pochhammer

MU_REL_CUT = 1e-15
CONTINUITY_TOL = 1e-12


def _is_rational(x):
    return isinstance(x, (int, Fraction))


def mu(d, theta, q, rel_tol=1e-15):
    """Limiting probability that V_n has codimension d.

    mu(d) = q^(-(d-x0)^2/2 + x0^2/2) (q^-(d+1); 1/q)_inf
            / [(1/q; 1/q)_inf (-1/theta; 1/q)_inf],  x0 = 1/2 - log_q theta.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not theta > 0:
        raise ValueError("mu is undefined at theta = 0 (degenerate process)")
    theta = float(theta)
    qinv = 1.0 / q
    x0 = 0.5 - math.log(theta) / math.log(q)
    expo = -0.5 * (d - x0) ** 2 + 0.5 * x0**2
    euler = pochhammer_inf(qinv, qinv, rel_tol)
    theta_prod = pochhammer_inf(-1.0 / theta, qinv, rel_tol)
    return q**expo * pochhammer_inf(q ** -(d + 1.0), qinv, rel_tol) / (euler * theta_prod)


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
        out = []
        acc = 0.0
        for v in self.values:
            acc += v
            out.append(acc)
        return out

    def total(self):
        return sum(self.values)


def build_mu_table(theta, q, rel_cut=MU_REL_CUT):
    """Tabulate mu until terms fall below rel_cut * max and the tail is
    controlled by the super-Gaussian decay of the exponent.

    The successive ratio telescopes exactly:
    mu(d+1)/mu(d) = q^(-(d - x0) - 1/2) / (1 - q^-(d+1)), and it decreases
    in d past the mode x0, so once r < 1/2 the remaining mass is below
    mu(d_last) * r / (1 - r).
    """
    theta = float(theta)
    if not theta > 0:
        raise ValueError("mu is undefined at theta = 0 (degenerate process)")
    x0 = 0.5 - math.log(theta) / math.log(q)
    values = []
    peak = 0.0
    d = 0
    while True:
        v = mu(d, theta, q)
        values.append(v)
        peak = max(peak, v)
        ratio = q ** (-(d - x0) - 0.5) / (1.0 - q ** -(d + 1.0))
        if v < rel_cut * peak and ratio < 0.5 and d > x0:
            tail = v * ratio / (1.0 - ratio)
            return MuTable(theta, q, tuple(values), tail)
        d += 1
        if d > 10_000:
            raise RuntimeError("mu table failed to converge")


def delta(p, table):
    """Smallest d whose cumulative mu mass reaches p, for p in [0, 1).

    Refuses when the tabulated mass cannot certify the answer.
    """
    if not 0 <= p < 1:
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    acc = 0.0
    for d, v in enumerate(table.values):
        acc += v
        if acc >= p:
            return d
    raise ValueError(
        f"mu table covers mass {acc}, insufficient for p={p}"
    )


def is_continuity_point(p, table, tol=CONTINUITY_TOL):
    """True iff p stays clear of every cumulative partial sum of mu."""
    return all(abs(p - c) > tol for c in table.cumulative())


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
    mass reaches 1 - epsilon; a_n is n if the float sum never does.

    Returns (a_n, deficit), the mass still missing when class a_n is
    entered.  The sum runs in exact Fractions when theta is rational and as
    a compensated sum of the float prefix otherwise (the class masses span
    a dynamic range of q^-(n^2/2)).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if _is_rational(theta):
        need = 1 - Fraction(epsilon).limit_denominator(10**12)
        acc = Fraction(0)
        for d in range(n + 1):
            mass = grassproc.codim_class_prob_fraction(d, n, theta, q)
            if acc + mass >= need:
                break
            acc += mass
        return d, need - acc
    need = 1.0 - epsilon
    masses = []
    for d in range(n + 1):
        masses.append(float(q) ** grassproc.codim_class_log_prob(d, n, theta, q))
        if math.fsum(masses) >= need:
            break
    return d, need - math.fsum(masses[:d])


def typical_set(n, epsilon, theta, q, table=None):
    """Smallest union of codimension classes with miss probability <= epsilon.

    The stop index a_n comes from cumulative class probabilities at finite n;
    the limiting Delta(1 - epsilon) is reported next to it.  When 1 - epsilon
    collides with a partial sum of mu, the discontinuity flag is set and the
    limit is only bracketed between Delta and Delta + 1.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if table is None:
        table = build_mu_table(theta, q)
    p_eps = 1.0 - epsilon
    limit_delta = delta(p_eps, table)
    discontinuity = not is_continuity_point(p_eps, table)

    a_n, _ = _class_mass_stop(n, epsilon, theta, q)
    size = sum(q_binomial(n, n - d, q) for d in range(a_n + 1))
    bracket = (limit_delta, limit_delta + 1) if discontinuity else (limit_delta, limit_delta)
    return TypicalSet(
        n, q, float(theta), float(epsilon), a_n, size, limit_delta, discontinuity, bracket
    )


def check_aep(n, epsilon, delta_tol, theta, q):
    """Equipartition report for the typical set at time n.

    For each codimension d <= a_n, the gap
    | log_q(1/Pr{V_n = v}) / n  -  (n/2) H_2(d/n) |
    is evaluated through the codimension form of the law, together with the
    g(d, n)/n correction that the gap equals analytically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ts = typical_set(n, epsilon, theta, q)
    x0 = 0.5 - math.log(theta) / math.log(q)
    log_tail = log_q_neg_inv_pochhammer(theta, n, q)
    gaps = []
    g_over_n = []
    for d in ts.member_codims:
        log_inv_p = -grassproc.log_pmf_by_codim(d, n, theta, q)
        gap = abs(log_inv_p / n - (n / 2.0) * binary_quadratic_entropy(d / n))
        gaps.append(gap)
        g = 0.5 * (d - x0) ** 2 - 0.5 * x0**2 + log_tail
        g_over_n.append(g / n)
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
    probability (increasing codimension) and tops up with a partial class;
    exact rational arithmetic whenever theta is rational.  The stop
    codimension must agree with the typical set's a_n, which is asserted.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    d, deficit = _class_mass_stop(n, epsilon, theta, q)
    if _is_rational(theta):
        space_p = grassproc.exact_pmf_fraction(n - d, n, theta, q)
    else:
        space_p = float(q) ** grassproc.log_exact_pmf(n - d, n, theta, q)
    partial = math.ceil(deficit / space_p)
    size = sum(q_binomial(n, n - c, q) for c in range(d)) + partial
    b_n = d if partial else d - 1
    a_n = typical_set(n, epsilon, theta, q).delta_codim
    assert b_n == a_n, f"greedy stop {b_n} != typical-set bound {a_n}"
    return size, b_n


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


def make_block_code(ts, field):
    if field.q != ts.q:
        raise ValueError("field order does not match the typical set")
    if field.q > len(_DIGITS):
        raise ValueError(f"codewords support q <= {len(_DIGITS)}")
    sizes = tuple(q_binomial(ts.n, ts.n - d, field.q) for d in ts.member_codims)
    total = sum(sizes)
    # ceil(log_q total) in exact integer arithmetic
    length, reach = 0, 1
    while reach < total:
        reach *= field.q
        length += 1
    return BlockCode(ts.n, field, ts.delta_codim, sizes, total, length)


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


def _word_from_index(idx, length, q):
    digits = []
    for _ in range(length):
        digits.append(_DIGITS[idx % q])
        idx //= q
    return "".join(reversed(digits))


def _index_from_word(word, length, q):
    if len(word) != length:
        raise ValueError(f"codeword must have {length} digits, got {len(word)}")
    idx = 0
    for ch in word:
        d = _DIGITS.find(ch)
        if not 0 <= d < q:
            raise ValueError(f"digit {ch!r} out of range for base {q}")
        idx = idx * q + d
    return idx


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
        return _word_from_index(reserved, code.codeword_len, code.field.q)
    idx = sum(code.class_sizes[:d]) + _rank_in_class(v)
    return _word_from_index(idx, code.codeword_len, code.field.q)


def decode(word, code):
    """Subspace of a codeword; out-of-range words map to the default
    subspace (the full space, rank 0 in the code order)."""
    idx = _index_from_word(word, code.codeword_len, code.field.q)
    if idx >= code.exact_size:
        return full_space(code.n, code.field)
    for d, size in enumerate(code.class_sizes):
        if idx < size:
            return _unrank_in_class(idx, code.n - d, code.n, code.field)
        idx -= size
    raise AssertionError("index exhausted class sizes")


# -- growth and tail bounds ------------------------------------------------

def grassmannian_size(n, q):
    """|Gr(n)| = sum_k qbinom(n, k), exact."""
    return sum(q_binomial(n, k, q) for k in range(n + 1))


def grassmannian_growth(n_list, q):
    """Rows (n, (2/n^2) log_q |Gr(n)|); the values tend to 1/2."""
    rows = []
    for n in n_list:
        if n < 1:
            raise ValueError("growth rates need n >= 1")
        rows.append((n, 2.0 * log_q_int(grassmannian_size(n, q), q) / (n * n)))
    return rows


def check_tail_quotient_bounds(n, d, q, float_slack=1e-12):
    """Tail bounds on the quotient (q^-(n-d+1); 1/q)_inf / (q^-(n+1); 1/q)_inf.

    The quotient never exceeds 1; for d <= 2 sqrt(n) the series expansion of
    the reciprocals (terms q^-k(n+1-d), with n+1-d >= (sqrt(n)-1)^2) bounds
    it below by 1 - c(q) q^(-(sqrt(n)-1)^2) with c(q) = 2 / (1/q; 1/q)_inf.
    The slack absorbs float rounding in the truncated products.
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
    return ratio <= 1.0 + float_slack and ratio >= lower - float_slack
