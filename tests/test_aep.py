import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    masses = list(qdist._log_class_masses(qdist.QBinomialParams(n, 1e-30, 2)))
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
        qdist.pmf_fraction(30 - d, 30, Fraction(1), 2)
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


def test_typical_set_discontinuity_flag(table21):
    # place 1 - epsilon exactly on a partial sum of mu
    cum = table21.cumulative()
    eps = 1.0 - cum[1]
    ts = aep.typical_set(15, eps, 1, 2)
    assert ts.discontinuity
    assert ts.bracket == (ts.limit_delta, ts.limit_delta + 1)
    assert ts.limit_delta == 1


def test_typical_set_float_theta_path():
    # irrational-ish theta falls back to float tail sums; the bound must
    # agree with the exact path at a rational theta nearby
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
    p2 = qdist.exact_pmf_fraction(2, 4, Fraction(1), 2)
    p3 = qdist.exact_pmf_fraction(3, 4, Fraction(1), 2)
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
    top = qdist.pmf_fraction(12, 12, Fraction(1), 2)
    eps = 1 - float(top) / 2
    s2, b2 = aep.greedy_min_set_size(12, eps, 1, 2)
    assert b2 == 0 and s2 == 1


def test_merged_law_and_lazy_stop():
    # the subspace law times the class size is the q-binomial pmf, which
    # sums to 1
    for q in (2, 3, 4):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for n in range(9):
                masses = [qdist.pmf_fraction(k, n, theta, q) for k in range(n + 1)]
                assert sum(masses) == 1
                for k, pk in enumerate(masses):
                    size = qcomb.q_binomial(n, k, q)
                    assert pk == size * qdist.exact_pmf_fraction(k, n, theta, q)
    # the lazy stop agrees with a stop index over all n + 1 class masses
    for theta in (Fraction(7, 10), 1, 0.7):
        for n in range(1, 61):
            if isinstance(theta, float):
                masses = [2.0 ** qdist.log_pmf(n - d, qdist.QBinomialParams(n, theta, 2))
                          for d in range(n + 1)]
                cumulative = [math.fsum(masses[: d + 1]) for d in range(n + 1)]
                need = 1.0 - 0.1
            else:
                masses = [qdist.pmf_fraction(n - d, n, theta, 2)
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
                    a_float = aep._class_mass_stop(n, eps, theta, q)[0]
                    a_exact = aep._class_mass_stop(n, eps, Fraction(theta), q)[0]
                    assert a_float == a_exact, (q, theta, n, eps)


def _oracle_stop(n, eps, theta, q):
    """(a_n, deficit, mass) of the class-mass stop from the Fraction class
    masses of the rational pmf, or the exact values of the float masses."""
    if isinstance(theta, float):
        need = Fraction(1.0 - eps)
    else:
        need = 1 - Fraction(eps).limit_denominator(10**12)
    acc = Fraction(0)
    for d in range(n + 1):
        if isinstance(theta, float):
            mass = Fraction(float(q) ** qdist.log_pmf(n - d, qdist.QBinomialParams(n, theta, q)))
        else:
            mass = qdist.pmf_fraction(n - d, n, theta, q)
        if acc + mass >= need or d == n:
            return d, need - acc, mass
        acc += mass


def _check_stop_against_oracle(n, eps, theta, q, typical=True):
    d, deficit, mass = _oracle_stop(n, eps, theta, q)
    a_n, deficit_num, mass_num, den = aep._class_mass_stop(n, eps, theta, q)
    case = (n, eps, theta, q)
    assert (a_n, Fraction(deficit_num, den), Fraction(mass_num, den)) == (d, deficit, mass), case
    sizes = [qcomb.q_binomial(n, n - c, q) for c in range(d + 1)]
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


def test_float_stop_matches_the_per_class_oracle():
    # the float class masses of one Gaussian-column walk are the per-class
    # log_pmf values, theta = 0 included; the typical set is left out only
    # where its mu table is undefined (theta = 0)
    for q in (2, 3, 4):
        for theta in (0.0, 1e-30, 1e-10, 1.5, 10.0):
            for eps in (0.05, 0.5):
                for n in (0, 1, 2, 5, 13, 40, 64, 200):
                    _check_stop_against_oracle(n, eps, theta, q, typical=theta > 0)
    assert aep.greedy_min_set_size(5, 0.1, 0.0, 2) == (374, 5)


def test_integer_stop_never_builds_a_fraction_pmf(monkeypatch):
    def refuse(*args):
        raise AssertionError("the class-mass stop called pmf_fraction")

    monkeypatch.setattr(qdist, "pmf_fraction", refuse)
    assert aep.typical_set(200, 0.1, 1, 2).delta_codim == 2
    assert aep.greedy_min_set_size(120, 0.1, Fraction(7, 10), 3)[1] >= 0
    assert aep.check_aep(120, 0.1, 0.5, 1, 2)["a_n"] == 2


def test_greedy_float_path_agrees_with_rational():
    for n in (8, 16, 25, 33):
        s_r, b_r = aep.greedy_min_set_size(n, 0.1, Fraction(7, 10), 2)
        s_f, b_f = aep.greedy_min_set_size(n, 0.1, 0.7, 2)
        assert b_r == b_f
        # the partial top-up may differ by float rounding of the deficit only
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
    free = gf.free_positions(pivots, n)
    values = data.draw(st.lists(st.integers(0, q - 1), min_size=len(free), max_size=len(free)))
    v = gf.subspace_from_pattern(pivots, values, n, code.field)
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
    last = gf.subspace_from_pattern(tuple(range(n - k, n)), [], n, F2)
    word = aep.encode(last, code)
    assert int(word, 2) == code.exact_size - 1
    assert aep.decode(word, code) == last
    rng = random.Random(3)
    for _ in range(50):
        word = format(rng.randrange(code.exact_size), f"0{code.codeword_len}b")
        assert aep.encode(aep.decode(word, code), code) == word


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
        qdist.pmf_fraction(6 - d, 6, Fraction(1), 2)
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
