import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exact_pmf_fraction, pmf_fraction
from qgrass import aep, gf, grassproc, qcomb, qdist
from qgrass.entropy import binary_quadratic_entropy

F2 = gf.FieldSpec(2)
F16 = gf.FieldSpec(16)


@pytest.fixture(scope="module")
def table21():
    return aep.build_mu_table(1.0, 2)


def test_mu_domain():
    with pytest.raises(ValueError):
        aep.mu(0, 0.0, 2)
    with pytest.raises(ValueError):
        aep.mu(-1, 1.0, 2)
    # 1/theta overflows a double: refused, naming theta
    with pytest.raises(ValueError, match="1e-320"):
        aep.mu(0, 1e-320, 2)
    # a positive rational that rounds to 0.0 is refused the same way
    with pytest.raises(ValueError, match="too small"):
        aep.mu(0, Fraction(1, 10**400), 2)


def test_mu_table_sums_to_one():
    for q in (2, 3):
        for theta in (0.5, 1.0, 2.0):
            t = aep.build_mu_table(theta, q)
            assert all(v > 0 for v in t.values)
            assert abs(t.total() + t.tail_bound - 1.0) < 1e-9
            assert abs(t.total() - 1.0) < 1e-9
            assert 0 <= t.tail_bound < 1e-12


def test_mu_truncated_sum_explicit(table21):
    partial = sum(aep.mu(d, 1.0, 2) for d in range(51))
    assert abs(partial - 1.0) < 1e-9


def test_mu_past_the_double_range():
    # past x0 ~ 45 at q = 2 the power and the normaliser of mu overflow a
    # double; the walk takes those terms in log_q, and the law still sums to
    # 1 and is the limit of the finite-n class masses.  At 3.45e-14 only the
    # normaliser overflows.
    for q in (2, 16):
        for theta in (3.45e-14, 3e-14, 1e-30, 1e-100, 1e-300):
            t = aep.build_mu_table(theta, q)
            assert abs(t.total() - 1.0) < 1e-9, (q, theta)
            assert 0 <= t.tail_bound < 1e-12
    x0 = 0.5 - math.log2(1e-30)
    n = 4 * round(x0)
    masses = qdist._log_class_masses(n, math.log(1e-30), 2)
    for d in range(round(x0) - 5, round(x0) + 6):
        assert abs(2.0 ** masses[d] - aep.mu(d, 1e-30, 2)) < 1e-9, d
    # where the normaliser alone overflows, mu is not the 0.0 of a division
    # by inf
    assert aep.mu(41, 3e-14, 2) > 1e-4


def test_mu_superg_decay(table21):
    vals = table21.values
    peak = vals.index(max(vals))
    for d in range(peak, len(vals) - 1):
        if vals[d + 1] == 0.0:
            break
        assert vals[d + 1] / vals[d] < 1.0
    # decay accelerates past the peak
    ratios = [
        vals[d + 1] / vals[d]
        for d in range(peak, min(peak + 4, len(vals) - 1))
        if vals[d] > 0 and vals[d + 1] > 0
    ]
    assert ratios == sorted(ratios, reverse=True)


def test_mu_is_the_limit_of_codim_classes():
    for d in range(6):
        pr = 2.0 ** qdist.log_pmf(60 - d, qdist.QBinomialParams(60, 1.0, 2))
        assert abs(pr - aep.mu(d, 1.0, 2)) < 1e-6


def test_delta_basics(table21):
    assert aep.delta(0.0, table21) == 0
    grid = [i / 50 for i in range(50)]
    deltas = [aep.delta(p, table21) for p in grid]
    assert deltas == sorted(deltas)
    # golden fixture, cross-checked against the cumulative table by hand:
    # cum(1) ~ 0.629, cum(2) ~ 0.909
    assert aep.delta(0.9, table21) == 2
    with pytest.raises(ValueError):
        aep.delta(1.0 - 1e-30, table21)  # beyond tabulated coverage


def test_delta_left_continuity(table21):
    cum = table21.cumulative()
    for p in (0.3, 0.62, 0.9, 0.95):
        if all(abs(p - c) > 1e-10 for c in cum):
            assert aep.delta(p - 1e-13, table21) == aep.delta(p, table21)


def test_is_continuity_point(table21):
    cum = table21.cumulative()
    assert not aep.is_continuity_point(cum[1], table21)
    mid = 0.5 * (cum[0] + cum[1])
    assert aep.is_continuity_point(mid, table21)
    rng = random.Random(500)
    bad = sum(
        not aep.is_continuity_point(rng.random(), table21) for _ in range(10_000)
    )
    assert bad == 0


def test_typical_set_construction():
    ts = aep.typical_set(30, 0.1, 1, 2)
    assert ts.delta_codim == ts.limit_delta == 2
    assert not ts.discontinuity
    assert ts.bracket == (2, 2)
    assert ts.exact_size == sum(qcomb.q_binomial(30, 30 - d, 2) for d in range(3))
    # miss probability bounded by construction (exact rationals)
    miss = 1 - sum(
        pmf_fraction(30 - d, 30, Fraction(1), 2)
        for d in range(ts.delta_codim + 1)
    )
    assert miss <= Fraction(1, 10)


def test_typical_set_epsilon_near_one():
    ts = aep.typical_set(10, 0.95, 1, 2)
    assert ts.delta_codim <= 1
    # one check in the class-mass stop serves every caller
    for eps in (0.0, 1.0):
        for call in (lambda: aep.typical_set(10, eps, 1, 2),
                     lambda: aep.greedy_min_set_size(10, eps, 1, 2),
                     lambda: aep.make_block_code(10, eps, 1, F2)):
            with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
                call()
    for theta in (-1, -0.5, Fraction(-1, 3)):
        for call in (lambda: aep.typical_set(10, 0.1, theta, 2),
                     lambda: aep.greedy_min_set_size(10, 0.1, theta, 2),
                     lambda: aep.make_block_code(10, 0.1, theta, F2)):
            with pytest.raises(ValueError, match="theta must be >= 0"):
                call()


def test_typical_set_discontinuity_flag(table21):
    # place 1 - epsilon exactly on a partial sum of mu
    cum = table21.cumulative()
    eps = 1.0 - cum[1]
    ts = aep.typical_set(15, eps, 1, 2)
    assert ts.discontinuity
    assert ts.bracket == (ts.limit_delta, ts.limit_delta + 1)
    assert ts.limit_delta == 1


def test_limit_delta_at_small_epsilon():
    # several partial sums of mu lie within 1e-12 of 1, but none within the
    # tolerance CONTINUITY_TOL (1 - p) plus the table's rounding of 1 - p
    for eps in (1e-11, 1e-12, 4e-13, 1e-13):
        ts = aep.typical_set(200, eps, 1, 2)
        assert not ts.discontinuity, eps
        assert ts.bracket == (ts.limit_delta, ts.limit_delta)
    # a 1 - epsilon that rounds to 1.0 is read as the double just below it
    table = aep.build_mu_table(1, 2)
    ts = aep.typical_set(200, 1e-17, 1, 2)
    assert ts.limit_delta == aep.delta(math.nextafter(1.0, 0.0), table)
    assert aep.check_aep(200, 1e-17, 0.5, 1, 2)["limit_delta"] == ts.limit_delta


def test_typical_set_float_theta_path():
    # the double 0.7 is a dyadic rational near 7/10; the stop at each is
    # exact, and here the two agree
    ts_f = aep.typical_set(20, 0.1, 0.7, 2)
    ts_r = aep.typical_set(20, 0.1, Fraction(7, 10), 2)
    assert ts_f.delta_codim == ts_r.delta_codim
    assert ts_f.exact_size == ts_r.exact_size


def test_typical_set_membership_matches_enumeration():
    for n in range(1, 5):
        ts = aep.typical_set(n, 0.2, 1, 2)
        members = [
            v
            for k in range(n + 1)
            for v in gf.enumerate_grassmannian(k, n, F2)
            if n - k <= ts.delta_codim
        ]
        assert len(members) == ts.exact_size


def test_check_aep_gap_decreases():
    reports = [aep.check_aep(n, 0.1, 0.5, 1.0, 2) for n in (10, 20, 40)]
    gaps = [r["max_gap"] for r in reports]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(r["pass"] for r in reports)
    # the gap equals |g(d,n)|/n from the proof decomposition
    r = reports[-1]
    for gap, g in zip(r["gaps"], r["g_over_n"]):
        assert abs(gap - abs(g)) < 1e-9


def test_check_aep_refuses_a_bad_delta_tol():
    # a NaN or negative tolerance is refused, not reported as a failed check
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="delta_tol must be >= 0"):
            aep.check_aep(10, 0.1, bad, 1.0, 2)
    assert aep.check_aep(10, 0.1, math.inf, 1.0, 2)["pass"]
    assert aep.check_aep(10, 0.1, 0.0, 1.0, 2)["pass"] is False


def test_check_aep_sums_the_tail_once(monkeypatch):
    # every class's log-probability and g(d, n) read one tail
    # (-1/theta; 1/q)_n; count its calls through both module bindings
    calls = []
    tail = qdist.log_q_neg_inv_pochhammer

    def counted(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(qdist, "log_q_neg_inv_pochhammer", counted)
    monkeypatch.setattr(aep, "log_q_neg_inv_pochhammer", counted)
    report = aep.check_aep(120, 0.1, 0.5, 1, 2)
    assert report["a_n"] == 2
    assert calls == [(1, 120, 2)]


def _check_aep_by_formula(n, epsilon, delta_tol, theta, q):
    """check_aep with x0, the completed square and g(d, n) written out per
    class, and the tail summed per class: the oracle of the shared walk."""
    ts = aep.typical_set(n, epsilon, theta, q)
    x0 = 0.5 - math.log(theta) / math.log(q)
    gaps, g_over_n = [], []
    for d in ts.member_codims:
        h2_term = (n * n) * binary_quadratic_entropy(d / n) / 2.0
        tail = qdist.log_q_neg_inv_pochhammer(theta, n, q)
        log_p = -0.5 * (d - x0) ** 2 + 0.5 * x0**2 - h2_term - tail
        gaps.append(abs(-log_p / n - (n / 2.0) * binary_quadratic_entropy(d / n)))
        g_over_n.append((0.5 * (d - x0) ** 2 - 0.5 * x0**2 + tail) / n)
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


def test_codim_form_matches_the_written_out_formula():
    for q in (2, 3, 16):
        for theta in (1e-10, 1 / 256, 0.7, 1, 10, Fraction(1, 3)):
            for n in (1, 12, 60):
                for eps in (0.05, 0.3):
                    got = aep.check_aep(n, eps, 0.5, theta, q)
                    assert got == _check_aep_by_formula(n, eps, 0.5, theta, q), (q, theta, n)
                x0 = 0.5 - math.log(theta) / math.log(q)
                tail = qdist.log_q_neg_inv_pochhammer(theta, n, q)
                for d in (0, n // 2, n):
                    h2_term = (n * n) * binary_quadratic_entropy(d / n) / 2.0
                    want = -0.5 * (d - x0) ** 2 + 0.5 * x0**2 - h2_term - tail
                    assert qdist.log_pmf_by_codim(d, n, theta, q) == want


def _delta_by_summing(p, table):
    acc = 0.0
    for d, v in enumerate(table.values):
        acc += v
        if acc >= p:
            return d
    return None


def test_delta_bisects_the_cumulative_walk():
    for q in (2, 3, 16):
        for theta in (1e-10, 1 / 256, 1.0, 1e6):
            table = aep.build_mu_table(theta, q)
            cum = table.cumulative()
            for c in cum[:6]:
                for p in (c, math.nextafter(c, 0)):
                    if p < 1:
                        assert aep.delta(p, table) == _delta_by_summing(p, table), (q, theta, p)
            # past the tabulated mass: the same refusal as the summing walk
            short = aep.MuTable(table.theta, q, table.values[:1], 0.0)
            p = math.nextafter(cum[0], 1)
            assert _delta_by_summing(p, short) is None
            with pytest.raises(ValueError) as err:
                aep.delta(p, short)
            assert str(err.value) == f"mu table covers mass {cum[0]}, insufficient for p={p}"


def test_codim_class_bound_approaches_codim():
    # (n/2) H2(d/n) - d -> 0 at fixed d
    from qgrass.entropy import binary_quadratic_entropy

    for d in range(3):
        errs = [abs(n / 2 * binary_quadratic_entropy(d / n) - d) for n in (10, 100, 1000)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.01 or d == 0


def test_equiprobability_within_class_only():
    # inside a codim class all spaces are equiprobable; across classes not
    p2 = exact_pmf_fraction(2, 4, Fraction(1), 2)
    p3 = exact_pmf_fraction(3, 4, Fraction(1), 2)
    assert p2 != p3
    law = grassproc.outcome_tree_law(4, Fraction(1), F2)
    by_dim = {}
    for v, pr in law.items():
        by_dim.setdefault(v.dim, set()).add(pr)
    for k, prs in by_dim.items():
        assert len(prs) == 1


def test_greedy_min_set_size():
    s, b = aep.greedy_min_set_size(12, 0.1, 1, 2)
    ts = aep.typical_set(12, 0.1, 1, 2)
    assert b == ts.delta_codim
    assert s <= ts.exact_size
    # epsilon large enough that a slice of the top class suffices
    top = pmf_fraction(12, 12, Fraction(1), 2)
    eps = 1 - float(top) / 2
    s2, b2 = aep.greedy_min_set_size(12, eps, 1, 2)
    assert b2 == 0 and s2 == 1


def test_merged_law_and_lazy_stop():
    # the subspace law times the class size is the q-binomial pmf, which
    # sums to 1
    for q in (2, 3, 4):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for n in range(9):
                masses = [pmf_fraction(k, n, theta, q) for k in range(n + 1)]
                assert sum(masses) == 1
                for k, pk in enumerate(masses):
                    size = qcomb.q_binomial(n, k, q)
                    assert pk == size * exact_pmf_fraction(k, n, theta, q)
    # the lazy stop agrees with a stop index over all n + 1 class masses
    for theta in (Fraction(7, 10), 1, 0.7):
        for n in range(1, 61):
            if isinstance(theta, float):
                masses = [2.0 ** qdist.log_pmf(n - d, qdist.QBinomialParams(n, theta, 2))
                          for d in range(n + 1)]
                cumulative = [math.fsum(masses[: d + 1]) for d in range(n + 1)]
                need = 1.0 - 0.1
            else:
                masses = [pmf_fraction(n - d, n, theta, 2)
                          for d in range(n + 1)]
                cumulative = list(itertools.accumulate(masses))
                need = Fraction(9, 10)
            a_n = next((d for d, c in enumerate(cumulative) if c >= need), n)
            ts = aep.typical_set(n, 0.1, theta, 2)
            assert ts.delta_codim == a_n, (theta, n)
            assert ts.exact_size == sum(qcomb.q_binomial(n, n - d, 2) for d in range(a_n + 1))
            assert aep.greedy_min_set_size(n, 0.1, theta, 2)[1] == a_n


def test_float_and_fraction_theta_stop_alike():
    for q in (2, 3):
        for theta in (0.05, 0.7, 1.5, 10.0):
            for n in (1, 6, 13, 30):
                for eps in (0.05, 0.1, 0.3):
                    a_float = aep._class_mass_stop(n, eps, theta, q)
                    a_exact = aep._class_mass_stop(n, eps, Fraction(theta), q)
                    assert a_float == a_exact, (q, theta, n, eps)


def _oracle_stop(n, eps, theta, q):
    """(a_n, deficit, mass) of the class-mass stop from the exact class
    masses at Fraction(theta): per class from the rational pmf, or, for a
    float theta, from the product walk's numerators over their denominator
    (with a double's 53-bit ratio the per-class pmf takes ~0.1 s a class at
    n = 400)."""
    need = 1 - Fraction(str(eps))
    if isinstance(theta, float):
        a, b = Fraction(theta).as_integer_ratio()
        masses, total = _product_walk_masses(n, a, b, q), _product_walk_total(n, a, b, q)
    else:
        masses, total = (pmf_fraction(n - d, n, theta, q) for d in range(n + 1)), 1
    acc = 0
    for d, mass in enumerate(masses):
        if acc + mass >= need * total or d == n:
            return d, need - Fraction(acc, total), Fraction(mass, total)
        acc += mass


def _check_stop_against_oracle(n, eps, theta, q, typical=True):
    d, deficit, mass = _oracle_stop(n, eps, theta, q)
    a_n, deficit_num, unit_num, den = aep._stop_deficit(n, eps, theta, q)
    case = (n, eps, theta, q)
    sizes = [qcomb.q_binomial(n, n - c, q) for c in range(d + 1)]
    # the class mass is one space's mass times the class size
    assert (a_n, Fraction(deficit_num, den), Fraction(unit_num * sizes[d], den)) == (
        d, deficit, mass), case
    assert aep._class_mass_stop(n, eps, theta, q) == d, case
    if typical:
        assert aep.typical_set(n, eps, theta, q).exact_size == sum(sizes), case
    if n:
        partial = math.ceil(deficit / (mass / sizes[d]))
        assert aep.greedy_min_set_size(n, eps, theta, q) == (sum(sizes[:d]) + partial, d), case


def test_integer_stop_matches_the_fraction_oracle():
    thetas = (Fraction(1, 2), Fraction(7, 10), 1, Fraction(3, 2), 0.7)
    for q in (2, 3, 4):
        for theta in thetas:
            for eps in (0.05, 0.1, 0.5, 0.9):
                for n in (0, 1, 2, 3, 5, 8, 13, 21, 40, 64):
                    _check_stop_against_oracle(n, eps, theta, q)
            for n in (120, 400):
                _check_stop_against_oracle(n, 0.1, theta, q)


def _product_walk_masses(n, a, b, q):
    """Class numerators [n, d]_q q^(m(m-1)/2) a^m b^d, m = n - d, d = 0..n,
    over the denominator prod_(i<n) (b + a q^i) at theta = a/b: the walk
    that decided a_n before the ratio walk, kept here as its oracle."""
    q_pow = q ** (n * (n - 1) // 2)
    for d, size in enumerate(qcomb._gaussian_column(n, q)):
        if d:
            q_pow //= q ** (n - d)
        yield size * q_pow * a ** (n - d) * b**d


def _product_walk_total(n, a, b, q):
    """prod_(i<n) (b + a q^i), the sum of the product walk's numerators."""
    factors = [b + a * q**i for i in range(n)] or [1]
    while len(factors) > 1:  # balanced: at n = 1100, q = 16 a running product is 5x slower
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _product_walk_masses_from_top(n, a, b, q):
    """The same numerators from class n down, m = n - d = 0..n: each is the
    last times (q^(n-m+1) - 1) q^(m-1) a / ((q^m - 1) b), an exact quotient
    (each formed from its own factors, n = 1100 at theta = 10^-300 took
    ~6 s)."""
    mass = b**n
    yield mass
    for m in range(1, n + 1):
        mass = mass * (q ** (n - m + 1) - 1) * q ** (m - 1) * a // ((q**m - 1) * b)
        yield mass


class _Prefix:
    """The running sums of a lazy sequence, computed as far as they are read."""

    def __init__(self, terms):
        self.sums, self.rest = [], itertools.accumulate(terms)

    def __getitem__(self, i):
        while len(self.sums) <= i:
            self.sums.append(next(self.rest))
        return self.sums[i]


def _product_walk_stops(n, epsilons, theta, q):
    """a_n for each epsilon from the product walk's exact class numerators.

    The walk from below is the old stop: the first d whose cumulative
    numerator reaches need times the denominator, or n.  It is run together
    with the same masses summed from class n down, where class n - m is the
    stop at the first m whose top m + 1 classes outweigh (1 - need) times
    the denominator; whichever decides first answers, so an a_n near n (a
    tiny theta, or theta = 0) costs as few classes as one near 0.
    """
    a, b = Fraction(theta).as_integer_ratio()
    total = _product_walk_total(n, a, b, q)
    below = _Prefix(_product_walk_masses(n, a, b, q))
    above = _Prefix(_product_walk_masses_from_top(n, a, b, q))
    stops = []
    for eps in epsilons:
        need = 1 - Fraction(str(eps))
        num, den = need.numerator, need.denominator
        for step in range(n + 1):
            if below[step] * den >= num * total or step == n:
                stops.append(step)
                break
            if above[step] * den > (den - num) * total:
                stops.append(n - step)
                break
    return stops


STOP_THETAS = (0, 1, Fraction(1, 256), Fraction(7, 10), Fraction(3, 2), 1000, Fraction(1, 10**6))
# epsilon is read as its decimal: 1e-13 and 1 - 1e-13 ask for need
# 1 - 10^-13 and 10^-13 exactly
STOP_EPSILONS = (1e-13, 0.05, 0.1, 0.5, 0.9, 1 - 1e-13)


def test_rational_class_masses_match_the_per_class_formula():
    # the oracle's running power of q gives each class the numerator written
    # out, and the numerators sum to the chain denominator
    for q in (2, 3, 4, 16):
        for theta in (0, 1, Fraction(1, 256), Fraction(7, 10), Fraction(3, 2)):
            a, b = Fraction(theta).as_integer_ratio()
            for n in range(65):
                want = [
                    size * q ** ((n - d) * (n - d - 1) // 2) * a ** (n - d) * b**d
                    for d, size in enumerate(qcomb._gaussian_column(n, q))
                ]
                assert list(_product_walk_masses(n, a, b, q)) == want, (n, theta, q)
                assert list(_product_walk_masses_from_top(n, a, b, q)) == want[::-1]
                assert sum(want) == aep._chain_denominator(n, a, b, q), (n, theta, q)


@pytest.mark.parametrize("ns", [range(65), (120, 200), (400,), (1100,)], ids=str)
def test_ratio_stop_matches_the_product_walk(ns):
    for n in ns:
        for q in (2, 3, 4, 16):
            for theta in STOP_THETAS:
                want = _product_walk_stops(n, STOP_EPSILONS, theta, q)
                got = [aep._class_mass_stop(n, eps, theta, q) for eps in STOP_EPSILONS]
                assert got == want, (n, q, theta)


def test_ratio_stop_decides_exact_ties():
    # need equal to a partial sum: the tail bounds never decide, and the
    # window grows to classes 0 and n, where every mass is exact.  epsilon
    # is the Fraction 1 - need, and also the float whose decimal it is, where
    # there is one
    ties = floats = 0
    for n in range(9):
        for q in (2, 3):
            for theta in (1, Fraction(1, 2), Fraction(3, 2)):
                a, b = Fraction(theta).as_integer_ratio()
                total = aep._chain_denominator(n, a, b, q)
                sums = itertools.accumulate(_product_walk_masses(n, a, b, q))
                for k, partial in enumerate(sums):
                    need = Fraction(partial, total)
                    if not 0 < need < 1:
                        continue
                    for eps in (1 - need, float(1 - need)):
                        if 1 - Fraction(str(eps)) != need:
                            continue
                        ties += 1
                        floats += isinstance(eps, float)
                        assert aep._class_mass_stop(n, eps, theta, q) == k, (n, q, theta, k)
                        assert _product_walk_stops(n, [eps], theta, q) == [k], (n, q, theta, k)
                    for start in range(n + 1):
                        assert aep._ratio_stop(n, need, a, b, q, start) == k, (n, q, theta, k)
    assert (ties, floats) == (229, 13)


START_THETAS = STOP_THETAS + (0.7, 1.5, 1e-30, 10.0)
START_EPSILONS = STOP_EPSILONS + (4e-13, 1e-20)


def test_ratio_stop_does_not_depend_on_its_start():
    # the window may start at any class; the mode only makes it cheap
    for n in range(14):
        for q in (2, 3, 4, 16):
            for theta in START_THETAS:
                a, b = Fraction(theta).as_integer_ratio()
                want = _product_walk_stops(n, START_EPSILONS, theta, q)
                for eps, k in zip(START_EPSILONS, want):
                    need = 1 - Fraction(str(eps))
                    got = {aep._ratio_stop(n, need, a, b, q, start) for start in range(n + 1)}
                    assert got == {k}, (n, q, theta, eps)
                    assert aep._class_mass_stop(n, eps, theta, q) == k, (n, q, theta, eps)


def test_ratio_stop_far_from_class_0():
    # the mode x0 = 1/2 - log_q theta lies near class 997 and 333: the walk
    # starts there, and the product walk decides from class n down
    for n, theta, a_n in ((1100, Fraction(1, 10**300), 999), (600, Fraction(1, 10**100), 334)):
        assert aep._class_mass_stop(n, 0.1, theta, 2) == a_n
        assert _product_walk_stops(n, [0.1], theta, 2) == [a_n]


def test_small_epsilon_is_read_as_its_decimal():
    # epsilon = 1e-13 asks for need 1 - 10^-13 exactly, which the exact
    # masses reach by class 2; at theta = 0 class n holds all the mass, so
    # even need = 10^-13 stops there
    assert aep._class_mass_stop(25, 1e-13, 1e6, 2) == 2
    for n in (0, 1, 5, 40):
        assert aep._class_mass_stop(n, 1 - 1e-13, 0, 2) == n
        assert aep._class_mass_stop(n, 1 - 1e-13, 0.0, 3) == n


def test_only_greedy_forms_the_chain_denominator(monkeypatch):
    def refuse(*args):
        raise AssertionError("the stop formed prod (b + a q^i)")

    monkeypatch.setattr(aep, "_chain_denominator", refuse)
    assert aep.typical_set(200, 0.1, 1, 2).delta_codim == 2
    assert aep.check_aep(120, 0.1, 0.5, Fraction(7, 10), 3)["a_n"] >= 0
    assert aep.make_block_code(24, 0.1, Fraction(1, 256), F2).codim_bound >= 0
    with pytest.raises(AssertionError, match="formed prod"):
        aep.greedy_min_set_size(12, 0.1, 1, 2)


def test_float_stop_matches_the_per_class_oracle():
    # a float theta is the dyadic rational it equals: the stop, the deficit
    # and the greedy size are those of the exact class masses at
    # Fraction(theta), theta = 0 included; the typical set is left out only
    # where its mu table is undefined (theta = 0)
    for q in (2, 3, 4):
        for theta in (0.0, 1e-30, 1e-10, 1.5, 10.0):
            for eps in (0.05, 0.5):
                for n in (0, 1, 2, 5, 13, 40, 64, 200):
                    _check_stop_against_oracle(n, eps, theta, q, typical=theta > 0)
    assert aep.greedy_min_set_size(5, 0.1, 0.0, 2) == (374, 5)


def test_integer_stop_never_builds_a_fraction_pmf(monkeypatch):
    # the Fraction pmf is a test oracle (oracles.py), out of the library's
    # reach; the exact normaliser (-theta; q)_n it divides by is not formed
    def refuse(*args):
        raise AssertionError("the class-mass stop called pochhammer")

    assert not hasattr(qdist, "pmf_fraction")
    monkeypatch.setattr(qcomb, "pochhammer", refuse)
    assert aep.typical_set(200, 0.1, 1, 2).delta_codim == 2
    assert aep.greedy_min_set_size(120, 0.1, Fraction(7, 10), 3)[1] >= 0
    assert aep.check_aep(120, 0.1, 0.5, 1, 2)["a_n"] == 2


def test_greedy_float_path_agrees_with_rational():
    for n in (8, 16, 25, 33):
        s_r, b_r = aep.greedy_min_set_size(n, 0.1, Fraction(7, 10), 2)
        s_f, b_f = aep.greedy_min_set_size(n, 0.1, 0.7, 2)
        assert b_r == b_f
        # the double 0.7 is not 7/10: the exact partial top-up at each may
        # differ by the spaces that the mass between the two thetas covers
        assert abs(s_r - s_f) <= max(2, 1e-9 * s_r)


def test_greedy_rate_convergence():
    table = aep.build_mu_table(1.0, 2)
    target = aep.delta(0.9, table)
    rows = []
    for n in (10, 20, 30, 40):
        s, _ = aep.greedy_min_set_size(n, 0.1, 1, 2)
        ts = aep.typical_set(n, 0.1, 1, 2)
        from qgrass.entropy import log_q_int

        rows.append((log_q_int(s, 2) / n, log_q_int(ts.exact_size, 2) / n))
    s_rates = [a for a, _ in rows]
    a_rates = [b for _, b in rows]
    assert s_rates == sorted(s_rates)
    assert a_rates == sorted(a_rates)
    assert abs(s_rates[-1] - a_rates[-1]) < 0.05
    assert abs(a_rates[-1] - target) < 0.15


# -- coding ------------------------------------------------------------------


@pytest.fixture(scope="module")
def code4():
    return aep.make_block_code(4, 0.2, 1, F2)


def test_block_code_shape(code4):
    assert code4.exact_size == sum(
        qcomb.q_binomial(4, 4 - d, 2) for d in range(code4.codim_bound + 1)
    )
    assert 2**code4.codeword_len >= code4.exact_size
    assert 2 ** (code4.codeword_len - 1) < code4.exact_size
    # the code indexes exactly the typical set A_n
    for n, eps, theta, q in ((4, 0.2, 1, 2), (24, 0.1, Fraction(1, 256), 2), (6, 0.1, 1, 16),
                             (12, 0.5, 0.7, 3), (64, 0.05, 1e-30, 2)):
        code = aep.make_block_code(n, eps, theta, gf.FieldSpec(q))
        ts = aep.typical_set(n, eps, theta, q)
        assert (code.codim_bound, code.exact_size) == (ts.delta_codim, ts.exact_size)


def _assert_round_trips(code):
    seen = set()
    for d in range(code.codim_bound + 1):
        for v in gf.enumerate_grassmannian(code.n - d, code.n, code.field):
            w = aep.encode(v, code)
            assert len(w) == code.codeword_len
            assert aep.decode(w, code) == v
            seen.add(w)
    assert len(seen) == code.exact_size


def test_round_trip_all_typical(code4):
    _assert_round_trips(code4)


def test_round_trip_all_typical_q16():
    # digits 10..15 must stay one character each
    code = aep.make_block_code(2, 0.1, 1, F16)
    assert code.exact_size == 18
    _assert_round_trips(code)


# The RREF shape written one position at a time: test-local oracles of the
# Grassmannian order that gf builds in one transposition.
def free_positions(pivots, n):
    """Row-major free coordinates of the RREF shape with the given pivots."""
    pivot_set = set(pivots)
    out = []
    for i, pc in enumerate(pivots):
        for j in range(pc + 1, n):
            if j not in pivot_set:
                out.append((i, j))
    return out


def subspace_from_pattern(pivots, values, n, field):
    k = len(pivots)
    rows = [[0] * n for _ in range(k)]
    for i, pc in enumerate(pivots):
        rows[i][pc] = 1
    for (i, j), v in zip(free_positions(pivots, n), values):
        rows[i][j] = v
    return gf.rref(rows, n, field)  # already an RREF: rref keeps it as it is


@functools.lru_cache(maxsize=None)
def _typical_code(n, q):
    return aep.make_block_code(n, 0.1, 1, gf.FieldSpec(q))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_encode_decode_is_a_bijection(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16)))
    n = data.draw(st.integers(1, 7))
    code = _typical_code(n, q)
    d = data.draw(st.integers(0, code.codim_bound))
    pivots = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=n - d, max_size=n - d)))
    free = free_positions(pivots, n)
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=len(free), max_size=len(free)))
    v = subspace_from_pattern(pivots, values, n, code.field)
    word = aep.encode(v, code)
    assert len(word) == code.codeword_len
    assert aep.decode(word, code) == v


def test_rank_matches_enumeration_order():
    # decode(i) must walk codim-ascending, then enumeration order
    for n in (3, 4, 5):
        code = aep.make_block_code(n, 0.2, 1, F2)
        expected = [
            v
            for d in range(code.codim_bound + 1)
            for v in gf.enumerate_grassmannian(n - d, n, F2)
        ]
        q = 2
        for idx, v in enumerate(expected):
            digits = []
            r = idx
            for _ in range(code.codeword_len):
                digits.append(r % q)
                r //= q
            word = "".join(str(d) for d in reversed(digits))
            assert aep.decode(word, code) == v
            assert aep.encode(v, code) == word


def test_rank_counts_pivot_blocks():
    # ranks add up whole blocks of pivot sets: the enumeration order holds
    # over F_3 too, and the far end of a class at n = 24 is reached at once
    F3 = gf.FieldSpec(3)
    for n in (3, 4):
        code = aep.make_block_code(n, 0.2, 1, F3)
        expected = [
            v
            for d in range(code.codim_bound + 1)
            for v in gf.enumerate_grassmannian(n - d, n, F3)
        ]
        for idx, v in enumerate(expected):
            word = aep.encode(v, code)
            assert int(word, 3) == idx
            assert aep.decode(word, code) == v
    n = 24
    code = aep.make_block_code(n, 0.1, Fraction(1, 256), F2)
    k = n - code.codim_bound
    last = subspace_from_pattern(tuple(range(n - k, n)), [], n, F2)
    word = aep.encode(last, code)
    assert int(word, 2) == code.exact_size - 1
    assert aep.decode(word, code) == last
    rng = random.Random(3)
    for _ in range(50):
        word = format(rng.randrange(code.exact_size), f"0{code.codeword_len}b")
        assert aep.encode(aep.decode(word, code), code) == word
    # rank and unrank read positions in the enumeration, at q up to 16
    for q in (3, 4, 16):
        field = gf.FieldSpec(q)
        for n in range(5):
            for k in range(n + 1):
                for idx, v in enumerate(gf.enumerate_grassmannian(k, n, field)):
                    assert gf._rank_in_class(v) == idx
                    assert gf._unrank_in_class(idx, k, n, field) == v


def test_atypical_encodes_to_error_word(code4):
    atypical = gf.zero_subspace(4, F2)  # codim 4 > bound
    w = aep.encode(atypical, code4)
    decoded = aep.decode(w, code4)
    assert decoded != atypical
    # default decode target for garbage words is the full space
    worst = "1" * code4.codeword_len
    if int(worst, 2) >= code4.exact_size:
        assert aep.decode(worst, code4) == gf.full_space(4, F2)
    with pytest.raises(ValueError):
        aep.decode("012", code4)
    with pytest.raises(ValueError):
        aep.decode("0" * (code4.codeword_len + 1), code4)


def test_error_probability_bounded():
    ts = aep.typical_set(6, 0.2, 1, 2)
    miss = 1 - sum(
        pmf_fraction(6 - d, 6, Fraction(1), 2)
        for d in range(ts.delta_codim + 1)
    )
    assert miss <= Fraction(2, 10)


def test_codeword_length_rate():
    # |k(n, eps)/n - Delta| shrinks; exact evaluation shows the rate climbs
    # toward Delta = 2 from below (log_q|A_n| ~ 2(n-2) + O(1))
    rates = []
    for n in (8, 16, 24):
        code = aep.make_block_code(n, 0.1, 1, F2)
        rates.append(code.codeword_len / n)
    gaps = [abs(r - 2.0) for r in rates]
    assert gaps == sorted(gaps, reverse=True)
    assert rates == sorted(rates)
    assert rates[-1] < 2.0


# -- growth and tail bounds ---------------------------------------------------


def test_grassmannian_growth():
    # enumeration oracle pins |Gr(1)| = 2, so the n=1 value is 2.0
    assert len(list(gf.enumerate_grassmannian(0, 1, F2))) + len(
        list(gf.enumerate_grassmannian(1, 1, F2))
    ) == 2
    rows = aep.grassmannian_growth([1, 10, 40], 2)
    assert rows[0][1] == 2.0
    assert abs(rows[-1][1] - 0.5) < 0.1
    with pytest.raises(ValueError):
        aep.grassmannian_growth([0], 2)


def test_grassmannian_size_is_the_column_sum():
    for q in (2, 3, 4):
        for n in range(61):
            assert aep.grassmannian_size(n, q) == sum(
                qcomb.q_binomial(n, k, q) for k in range(n + 1)
            ), (n, q)


def test_growth_sandwich_bound():
    for q in (2, 3):
        for n in range(1, 21):
            mid = qcomb.q_binomial(n, n // 2, q)
            size = aep.grassmannian_size(n, q)
            assert mid <= size <= (n + 1) * mid


def test_tail_quotient_bounds():
    assert aep.check_tail_quotient_bounds(16, 0, 2)  # ratio exactly 1
    assert aep.check_tail_quotient_bounds(16, 8, 2)
    assert aep.check_tail_quotient_bounds(100, 20, 2)
    assert aep.check_tail_quotient_bounds(49, 10, 3)
    with pytest.raises(ValueError):
        aep.check_tail_quotient_bounds(16, 9, 2)  # d > 2 sqrt(n)
    # tightness at large n: ratio within 1e-20 of 1
    qinv = 0.5
    ratio = qcomb.pochhammer_inf(2.0**-81, qinv) / qcomb.pochhammer_inf(2.0**-101, qinv)
    assert abs(ratio - 1.0) < 1e-20


def _local_rank_by_positions(v):
    """The rank of v among the members of its pivot set: its free entries,
    row-major, read one by one as base-q digits."""
    local = 0
    for i, j in free_positions(v.pivot_cols, v.ambient_dim):
        local = local * v.field.q + v.basis[i][j]
    return local


def test_rank_reads_free_entries_as_one_digit_string():
    # every class of Gr(n) at q in {2, 3, 16}: a random member ranks as its
    # free entries read one by one, after the pivot sets before its own,
    # and unranks back to itself
    for q in (2, 3, 16):
        field = gf.FieldSpec(q)
        rng = random.Random(f"rank/{q}")
        for n in (1, 2, 5, 9, 24):
            for k in range(n + 1):
                for _ in range(3):
                    pivots = sorted(rng.sample(range(n), k))
                    free = free_positions(pivots, n)
                    values = [rng.randrange(q) for _ in free]
                    v = subspace_from_pattern(pivots, values, n, field)
                    first = subspace_from_pattern(pivots, [0] * len(free), n, field)
                    rank = gf._rank_in_class(v)
                    assert rank - gf._rank_in_class(first) == _local_rank_by_positions(v)
                    assert gf._unrank_in_class(rank, k, n, field) == v
                    last = gf._rank_in_class(first) + q ** len(free) - 1
                    assert gf._unrank_in_class(last, k, n, field).pivot_cols == tuple(pivots)
                with pytest.raises(ValueError, match="rank out of range"):
                    gf._unrank_in_class(qcomb.q_binomial(n, k, q), k, n, field)
