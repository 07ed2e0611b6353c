"""Typical subspaces and the equipartition machinery.

The limiting codimension law mu(d), its quantile function Delta(p), typical
sets A_n with their exact sizes, the greedy minimal covering set, subspace
block coding (a codeword is its index written in base q with the gf digit
codec, gf.to_text/gf.from_text; the order within a class, its rank and
unrank, are gf's), the total-Grassmannian growth check, and the
Pochhammer-quotient bounds used in the tail estimates.

The finite-n class-mass stop a_n is exact for every theta = a/b (a float
is the dyadic rational it equals) and reads a float epsilon as its decimal.
It walks a window of class masses by their exact successive ratios from
the class nearest the mode and bounds each side outside it geometrically,
so it forms no class mass and no common denominator.  That stop a_n alone
makes the typical set and the block code.  Only the greedy minimal set
needs the exact mass still missing at a_n, and forms prod_{i<n} (b + a q^i),
the denominator of every class mass, as a product tree.  The class sizes,
and the total Grassmannian size, are read off the Gaussian column
`qcomb._gaussian_column`.  mu and Delta, reported next to a_n, live in
float (infinite products): one walk, `_mu_values`, yields every mu(d),
Delta bisects their partial sums, and mu and `check_aep` share
`qdist._completed_square`.
"""

import bisect
import itertools
import math
from collections import namedtuple

from .entropy import binary_quadratic_entropy, log_q_int
from .gf import TEXT_BASE_MAX, _rank_in_class, _unrank_in_class, from_text, full_space, to_text
from .qcomb import _euler_product, _gaussian_column, _tail_product, pochhammer_inf
from .qdist import _codim_log_probs, _completed_square
from .qdist import log_q_neg_inv_pochhammer

MU_REL_CUT = 1e-15
CONTINUITY_TOL = 1e-12
TAIL_FLOAT_SLACK = 1e-12


def _mu_values(theta, q):
    """Yield (d - x0, mu(d)) for d = 0, 1, ...: the one walk of the limit law.

    mu(d) = q^(-(d-x0)^2/2 + x0^2/2) (q^-(d+1); 1/q)_inf / N,
    x0 = 1/2 - log_q theta,  N = (1/q; 1/q)_inf (-1/theta; 1/q)_inf.

    theta is checked, and N computed, once per walk, and the exponents are
    read off `qdist._completed_square`; the theta-free products
    (q^-(d+1); 1/q)_inf and (1/q; 1/q)_inf are cached in `qcomb`
    (`_tail_product`, `_euler_product`).  Once x0 passes ~45 at q = 2 (theta
    below ~3e-14), N and the power overflow a double while their quotient
    does not; there, and only there, a term is taken in log_q, with log_q N
    summed over ceil(x0) + 80 factors of (-1/theta; 1/q) (the factors left
    out differ from 1 by less than q^-80).
    """
    if not theta >= 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not theta > 0:
        raise ValueError("mu is undefined at theta = 0 (degenerate process)")
    if float(theta) == 0.0 or 1.0 / float(theta) == math.inf:
        raise ValueError(f"theta = {theta!r} is too small: 1/theta overflows a double")
    theta = float(theta)
    qinv = 1.0 / q
    euler = _euler_product(q)
    norm = euler * pochhammer_inf(-1.0 / theta, qinv)
    log_norm = None
    for d, (off, expo) in enumerate(_completed_square(theta, q)):
        if d == 0:
            x0 = -off  # the walk's x0
        tail = _tail_product(d, q)
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


class MuTable(namedtuple("MuTable", "theta q values tail_bound")):
    """Tabulated mu(0..d_max) with a bound on the truncated tail mass."""

    __slots__ = ()

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
    """True iff p is more than CONTINUITY_TOL (1 - p) from every partial sum
    of mu, plus the table's own rounding |sum mu + tail - 1|: a tolerance
    relative to the mass 1 - p left over, so a small epsilon keeps it."""
    cumulative = table.cumulative()
    tol = CONTINUITY_TOL * (1.0 - p) + abs(cumulative[-1] + table.tail_bound - 1.0)
    return all(abs(p - c) > tol for c in cumulative)


class TypicalSet(namedtuple(
    "TypicalSet",
    "n q theta epsilon delta_codim exact_size limit_delta discontinuity bracket",
)):
    """Descriptor of A_n = union of Gr(n-d, n) for d = 0..delta_codim."""

    __slots__ = ()

    @property
    def member_codims(self):
        return range(self.delta_codim + 1)


def _stop_need(n, epsilon):
    """The mass 1 - epsilon that the stop must reach, as a Fraction.  A
    float epsilon is read as the decimal it prints as, Fraction(str(eps)),
    so 0.1 is 1/10 and 1e-13 is 10^-13; an int or a Fraction as itself."""
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    import fractions  # ~3 ms to load, so only a stop does; a from-import costs ~1 us a call

    return 1 - fractions.Fraction(str(epsilon))


def _class_mass_stop(n, epsilon, theta, q):
    """a_n, the first codimension class whose cumulative mass reaches
    1 - epsilon (n if the sum never does), exact for every theta: a float
    theta is the dyadic rational it equals."""
    a, b = theta.as_integer_ratio()
    return _ratio_stop(n, _stop_need(n, epsilon), a, b, q)


def _ratio_stop(n, need, a, b, q, start=None):
    """a_n for theta = a/b, walked from class start, by default the class
    nearest the mode x0 = 1/2 - log_q theta.

    Class d has mass u_d proportional to [n, d]_q q^(m(m-1)/2) a^m b^d,
    m = n - d, so u_(d+1) / u_d = g_d / f_d with g_d = b (q^(n-d) - 1) and
    f_d = a (q^(d+1) - 1) q^(n-d-1), a ratio that decreases in d.  Class k
    is the stop iff (1 - need) S_k >= need T_k, S_k the mass of classes
    0..k and T_k that of the rest.  The walk holds the masses of a window
    lo..hi as integers on one scale, forming each f_d and g_d once.  Past hi
    every ratio is below b q / (a (q^(hi+1) - 1)), and below lo every
    inverse ratio is below a (q^lo - 1) / (b (q - 1)), so each side outside
    the window is below a geometric series.  Class k is the stop once these
    bounds show that k reaches need and k - 1 does not; until then the
    window grows to the left while the stop may lie below lo, else on the
    side whose bound is larger.  The answer does not depend on start.
    """
    if a < 0:
        import fractions  # only this error text needs it; ~3 ms to load

        raise ValueError(f"theta must be >= 0, got {fractions.Fraction(a, b)}")
    if a == 0:  # class n alone has mass
        return n
    if start is None:  # round(x0) in 0..n; x0 <= 1/2 when theta >= 1
        start = 0 if a >= b else min(round(0.5 - (math.log(a) - math.log(b)) / math.log(q)), n)
    num, rest = need.numerator, need.denominator - need.numerator
    lo = hi = k = start
    ql, pl = q**lo, q ** (n - lo)  # q^(d+1) and q^(n-d-1) at d = lo - 1
    qr, pr = ql * q, pl // q  # and at d = hi
    # the side below lo is below first * xl / (yl - xl) if yl > xl, the
    # side past hi below last * xr / (yr - xr) if yr > xr
    xl, yl = a * (ql - 1), b * (q - 1)
    xr, yr = (b * q, a * (qr - 1)) if hi < n else (0, 1)
    # u_lo + ... + u_k, u_(k+1) + ... + u_hi, [u_(k+1) .. u_hi], u_lo, u_hi;
    # u_lo is read only while lo > 0: a walk from class 0 keeps it 0
    s, tail, ahead, first, last = 1, 0, [], min(lo, 1), 1
    while True:
        if k < hi and yl > xl and rest * (s * (yl - xl) + first * xl) < num * tail * (yl - xl):
            u = ahead.pop(0)  # k does not reach need
            s, tail, k = s + u, tail - u, k + 1
            continue
        below = k == lo > 0 and not (yl > xl and rest * first * xl < num * (s + tail) * (yl - xl))
        if not below and yr > xr and (rest * s - num * tail) * (yr - xr) >= num * last * xr:
            return k
        if below or lo and (
                yl <= xl or yr > xr and first * xl * (yr - xr) > last * xr * (yl - xl)):
            f, g = a * (ql - 1) * pl, b * (pl * q - 1)
            first, s, last, ahead = first * f, s * g, last * g, [u * g for u in ahead]
            if k == lo:  # k - 1 may reach need: look again from the new lo
                s, k, ahead = first, k - 1, [s] + ahead
            else:
                s += first
            lo, ql, pl = lo - 1, ql // q, pl * q
            xl = a * (ql - 1)
        else:
            f, g = a * (qr - 1) * pr, b * (pr * q - 1)
            first, s, last = first * f, s * f, last * g
            ahead = [u * f for u in ahead] + [last]
            hi, qr, pr = hi + 1, qr * q, pr // q
            xr, yr = (b * q, a * (qr - 1)) if hi < n else (0, 1)
        tail = sum(ahead)


def _chain_denominator(n, a, b, q):
    """prod_(i<n) (b + a q^i), the denominator of every class mass at
    theta = a/b, multiplied as a balanced tree of like-sized operands."""
    factors = [b + a * q**i for i in range(n)] or [1]
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _stop_deficit(n, epsilon, theta, q):
    """(a_n, deficit, unit, den) in integers: the mass still missing when
    class a_n is entered is deficit / den, and each space of class a_n has
    mass unit / den.  At theta = a/b, a float theta being the dyadic
    rational it equals, class d has the numerator
    [n, d]_q q^(m(m-1)/2) a^m b^d, m = n - d, over prod_(i<n) (b + a q^i),
    formed only up to a_n."""
    need = _stop_need(n, epsilon)
    a, b = theta.as_integer_ratio()
    d = _ratio_stop(n, need, a, b, q)
    total = _chain_denominator(n, a, b, q)
    before = _class_sizes(n, d - 1, q)
    # numerator c is power b^c prod_(c<=j<d) a q^(n-j-1), power its
    # q^(m(m-1)/2) a^m at c = d: Horner's rule sums classes 0..d-1 with
    # running powers b^c and q^(n-c-1)
    head, bc, qc = 0, 1, q ** (n - 1)
    for size in before:
        head = (head + size * bc) * a * qc
        bc, qc = bc * b, qc // q
    power = q ** ((n - d) * (n - d - 1) // 2) * a ** (n - d)
    num, den = need.numerator, need.denominator
    return d, num * total - power * head * den, power * bc * den, den * total


def _class_sizes(n, d, q):
    """[|Gr(n - c, n)| for c in 0..d], read off the Gaussian column."""
    return list(itertools.islice(_gaussian_column(n, q), d + 1))


def typical_set(n, epsilon, theta, q):
    """Smallest union of codimension classes with miss probability <= epsilon.

    The stop index a_n comes from cumulative class probabilities at finite n;
    the limiting Delta(1 - epsilon) is reported next to it.  When 1 - epsilon
    collides with a partial sum of mu, the discontinuity flag is set and the
    limit is only bracketed between Delta and Delta + 1.  The mu table is
    built first, so a theta that mu refuses is refused before the stop and
    the class sizes run.
    """
    table = build_mu_table(theta, q)
    a_n = _class_mass_stop(n, epsilon, theta, q)
    size = sum(_class_sizes(n, a_n, q))
    # a 1 - epsilon that rounds to 1.0 is read as the double just below it
    p_eps = min(1.0 - epsilon, math.nextafter(1.0, 0.0))
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
    if not delta_tol >= 0:  # refuses NaN too; inf passes every gap
        raise ValueError(f"delta_tol must be >= 0, got {delta_tol!r}")
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
    d, deficit, unit, _ = _stop_deficit(n, epsilon, theta, q)
    # ceil(deficit / unit): the spaces of class d that cover the deficit;
    # deficit and unit share one denominator, which cancels
    partial = -(-deficit // unit)
    assert partial > 0, f"empty partial class at the class-mass stop {d}"
    return sum(_class_sizes(n, d - 1, q)) + partial, d


# -- block coding ----------------------------------------------------------

class BlockCode(namedtuple(
    "BlockCode", "n field codim_bound class_sizes exact_size codeword_len"
)):
    """Fixed-length base-q code for the typical subspaces at time n.

    Ranking order: codimension ascending, then gf's Grassmannian order
    (gf.enumerate_grassmannian: pivot sets lexicographic, free entries
    lexicographic row-major), ranked and unranked by gf._rank_in_class and
    gf._unrank_in_class.
    """

    __slots__ = ()


def make_block_code(n, epsilon, theta, field):
    """Block code of the typical set A_n over field, from its stop a_n alone."""
    if field.q > TEXT_BASE_MAX:
        raise ValueError(f"codewords support q <= {TEXT_BASE_MAX}")
    a_n = _class_mass_stop(n, epsilon, theta, field.q)
    sizes = tuple(_class_sizes(n, a_n, field.q))
    total = sum(sizes)
    # ceil(log_q total) in exact integer arithmetic
    length, reach = 0, 1
    while reach < total:
        reach *= field.q
        length += 1
    return BlockCode(n, field, a_n, sizes, total, length)


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
    ratio = _tail_product(n - d, q) / _tail_product(n, q)
    c_q = 2.0 / _euler_product(q)
    lower = 1.0 - c_q * q ** -((math.sqrt(n) - 1.0) ** 2)
    return ratio <= 1.0 + TAIL_FLOAT_SLACK and ratio >= lower - TAIL_FLOAT_SLACK
