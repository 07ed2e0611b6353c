import math
import random
from fractions import Fraction

import pytest

from qgrass import gf, qcomb


def test_q_integer_values():
    assert qcomb.q_integer(0, 2) == 0
    assert qcomb.q_integer(1, 7) == 1
    # hand oracle: (2^4 - 1) / (2 - 1)
    assert qcomb.q_integer(4, 2) == (2**4 - 1) // (2 - 1) == 15
    assert qcomb.q_integer(3, 5) == 1 + 5 + 25


def test_q_integer_domain():
    with pytest.raises(ValueError):
        qcomb.q_integer(3, 1)
    with pytest.raises(ValueError):
        qcomb.q_integer(-1, 2)


def test_q_factorial_values():
    assert qcomb.q_factorial(0, 3) == 1
    assert qcomb.q_factorial(2, 2) == 3 * 1
    assert qcomb.q_factorial(4, 2) == 15 * 7 * 3 * 1 == 315


def test_q_multinomial_values():
    assert qcomb.q_multinomial((7,), 3) == 1
    assert qcomb.q_multinomial((2, 2), 2) == 35
    assert qcomb.q_multinomial((1, 1, 1), 2) == qcomb.q_factorial(3, 2) == 21


def test_q_multinomial_counts_2dim_subspaces_of_f2_4():
    # brute-force oracle via the gf enumerator
    field = gf.FieldSpec(2)
    count = sum(1 for _ in gf.enumerate_grassmannian(2, 4, field))
    assert qcomb.q_multinomial((2, 2), 2) == count


def test_q_binomial_examples():
    assert qcomb.q_binomial(5, 0, 3) == 1
    assert qcomb.q_binomial(2, 1, 2) == 3  # the three lines of F_2^2
    assert qcomb.q_binomial(4, 2, 2) == 35
    with pytest.raises(ValueError):
        qcomb.q_binomial(4, 5, 2)
    with pytest.raises(ValueError):
        qcomb.q_binomial(4, -1, 2)


def test_q_binomial_and_q_multinomial_match_factorial_form():
    # the q-factorials share no code with the product form
    for q in (2, 3, 4, 16):
        fact = [qcomb.q_factorial(n, q) for n in range(41)]
        for n in range(41):
            for k in range(n + 1):
                assert qcomb.q_binomial(n, k, q) * fact[k] * fact[n - k] == fact[n]
        rng = random.Random(q)
        for _ in range(50):
            parts = [rng.randint(0, 8) for _ in range(rng.randint(1, 5))]
            den = math.prod(fact[k] for k in parts)
            assert qcomb.q_multinomial(parts, q) * den == fact[sum(parts)]


def test_q_binomial_errors_in_order():
    for args, message in (
        ((-1, 5, 1), "n must be a nonnegative integer, got -1"),
        ((2.0, 1, 2), "n must be a nonnegative integer, got 2.0"),
        ((4, 5, 1), "k must satisfy 0 <= k <= n, got k=5, n=4"),
        ((4, 1.0, 2), "k must satisfy 0 <= k <= n, got k=1.0, n=4"),
        ((4, 2, 1), "q must be an integer >= 2, got 1"),
        ((4, 2, 2.0), "q must be an integer >= 2, got 2.0"),
    ):
        with pytest.raises(ValueError) as info:
            qcomb.q_binomial(*args)
        assert str(info.value) == message


def test_q_binomial_counts_at_guard_feasible_scale():
    # brute-force oracle as far as the enumeration guard allows: n <= 8 needs
    # ~4.5e5 subspaces at q = 2 but blows past 10^7 already at q = 3
    field = gf.FieldSpec(2)
    for n in range(9):
        for k in range(n + 1):
            count = sum(1 for _ in gf.enumerate_grassmannian(k, n, field))
            assert count == qcomb.q_binomial(n, k, 2)
    field = gf.FieldSpec(3)
    for k in range(7):
        count = sum(1 for _ in gf.enumerate_grassmannian(k, 6, field))
        assert count == qcomb.q_binomial(6, k, 3)


def test_q_binomial_symmetry():
    for q in (2, 3, 4, 5):
        for n in range(9):
            for k in range(n + 1):
                assert qcomb.q_binomial(n, k, q) == qcomb.q_binomial(n, n - k, q)


def test_q_binomial_pascal_recurrence():
    for q in (2, 3, 5):
        for n in range(1, 13):
            for k in range(1, n):
                lhs = qcomb.q_binomial(n, k, q)
                rhs = qcomb.q_binomial(n - 1, k - 1, q) + q**k * qcomb.q_binomial(
                    n - 1, k, q
                )
                assert lhs == rhs


def test_q_binomial_unimodality():
    for q in (2, 3):
        for n in range(2, 31):
            vals = [qcomb.q_binomial(n, k, q) for k in range(n + 1)]
            mid = n // 2
            for k in range(mid):
                assert vals[k] < vals[k + 1]
            assert vals[mid] == vals[n - mid]
            for k in range((n + 1) // 2, n):
                assert vals[k] > vals[k + 1]


def test_multinomial():
    assert qcomb.multinomial((5,)) == 1
    assert qcomb.multinomial((1, 1)) == 2
    assert qcomb.multinomial((2, 2)) == math.factorial(4) // 4


def test_pochhammer_values():
    assert qcomb.pochhammer(0.3, 0.7, 0) == 1
    assert qcomb.pochhammer(0, 0.5, 10) == 1
    assert qcomb.pochhammer(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)
    assert abs(qcomb.pochhammer(0.5, 0.5, 2) - 0.375) < 1e-15


def test_pochhammer_inf_against_truncated_product():
    # oracle: 60-term direct product
    oracle = 1.0
    for k in range(60):
        oracle *= 1 - 0.5 * 0.5**k
    got = qcomb.pochhammer_inf(0.5, 0.5)
    assert abs(got - oracle) < 1e-14
    assert qcomb.pochhammer_inf(0.0, 0.5) == 1.0
    neg = qcomb.pochhammer_inf(-1.0, 0.5)
    oracle_neg = 1.0
    for k in range(60):
        oracle_neg *= 1 + 0.5**k
    assert neg > 1
    assert abs(neg - oracle_neg) < 1e-12 * oracle_neg


def test_pochhammer_inf_domain():
    with pytest.raises(ValueError):
        qcomb.pochhammer_inf(0.5, 1.0)
    with pytest.raises(ValueError):
        qcomb.pochhammer_inf(0.5, -1.5)
    # a non-finite a never meets the truncation test
    for a in (-math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            qcomb.pochhammer_inf(a, 0.5)


def test_gamma_q_interpolates_q_factorial():
    assert abs(qcomb.gamma_q(1, 2) - 1) < 1e-12
    assert abs(qcomb.gamma_q(3, 2) - 3) < 1e-10
    assert abs(qcomb.gamma_q(5, 2) - 315) < 315 * 1e-10
    for q in (2, 3):
        for n in range(21):
            want = qcomb.q_factorial(n, q)
            got = qcomb.gamma_q(n + 1, q)
            assert abs(got - want) <= 1e-10 * want, (n, q)


def test_gamma_q_domain():
    with pytest.raises(ValueError):
        qcomb.gamma_q(0, 2)
    with pytest.raises(ValueError):
        qcomb.gamma_q(1, 1)


def test_gauss_identity_examples():
    assert qcomb.check_gauss_identity(1, 4, Fraction(3, 7), Fraction(-2, 5))
    assert qcomb.check_gauss_identity(2, 2, 1, 1)  # both sides 6
    assert qcomb.check_gauss_identity(8, 3, Fraction(2, 3), -5)


def test_gauss_identity_randomized():
    rng = random.Random(1848)
    for _ in range(100):
        n = rng.randint(0, 10)
        q = rng.randint(2, 5)
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert qcomb.check_gauss_identity(n, q, x, y)


def _random_flag_and_grouping(rng, max_n=12):
    s = rng.randint(1, 5)
    parts = [rng.randint(0, 4) for _ in range(s)]
    while sum(parts) > max_n:
        parts[rng.randrange(s)] = 0
    idx = list(range(s))
    rng.shuffle(idx)
    groups = []
    while idx:
        take = rng.randint(1, len(idx))
        groups.append(idx[:take])
        idx = idx[take:]
    return tuple(parts), groups


def test_flag_identity_examples():
    assert qcomb.check_flag_identity((3, 4, 1), [[0, 1, 2]], 2)
    # binary product case N_ij = p_i q_j N
    assert qcomb.check_flag_identity((2, 2, 4, 4), [[0, 1], [2, 3]], 3)
    assert qcomb.check_flag_identity((3, 1, 2, 2), [[0, 1], [2, 3]], 2)


def test_flag_identity_randomized():
    rng = random.Random(271828)
    for _ in range(100):
        parts, groups = _random_flag_and_grouping(rng)
        q = rng.randint(2, 5)
        assert qcomb.check_flag_identity(parts, groups, q)


def test_flag_identity_rejects_bad_grouping():
    with pytest.raises(ValueError):
        qcomb.check_flag_identity((1, 2), [[0]], 2)
    with pytest.raises(ValueError):
        qcomb.check_flag_identity((1, 2), [[0, 1], [1]], 2)
