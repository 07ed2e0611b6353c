import itertools
import math
import random
from fractions import Fraction

import pytest

from qgrass import qcomb, qdist


def test_params_validation():
    with pytest.raises(ValueError):
        qdist.QBinomialParams(-1, 1.0, 2)
    with pytest.raises(ValueError):
        qdist.QBinomialParams(3, -0.5, 2)
    with pytest.raises(ValueError):
        qdist.QBinomialParams(3, 1.0, 1)


def test_bernoulli_chain_invariants():
    chain = qdist.bernoulli_chain(qdist.QBinomialParams(8, 0.4, 3))
    assert len(chain) == 8
    assert all(0 <= p < 1 for p in chain)
    assert list(chain) == sorted(chain)  # nondecreasing for theta > 0
    assert chain[0] == 0.4 / 1.4
    assert qdist.bernoulli_chain(qdist.QBinomialParams(5, 0.0, 2)) == (0.0,) * 5


def test_pmf_trivial_cases():
    assert qdist.pmf(0, qdist.QBinomialParams(0, 1.0, 2)) == 1.0
    p = qdist.QBinomialParams(5, 0.0, 2)
    assert qdist.pmf(0, p) == 1.0
    assert all(qdist.pmf(k, p) == 0.0 for k in range(1, 6))
    assert qdist.pmf(-1, p) == 0.0
    assert qdist.pmf(7, p) == 0.0


def test_pmf_n1_closed_form():
    for theta in (0.3, 1.0, 4.0):
        p = qdist.QBinomialParams(1, theta, 2)
        assert abs(qdist.pmf(1, p) - theta / (1 + theta)) < 1e-15
        assert abs(qdist.pmf(0, p) - 1 / (1 + theta)) < 1e-15


def test_pmf_xy_cases():
    assert qdist.pmf_xy(3, 3, 0.0, 1.0, 2) == 1.0
    assert qdist.pmf_xy(1, 3, 0.0, 1.0, 2) == 0.0
    # reparameterization: x=1, y=theta
    p = qdist.QBinomialParams(4, 0.7, 3)
    for k in range(5):
        assert abs(qdist.pmf_xy(k, 4, 1.0, 0.7, 3) - qdist.pmf(k, p)) < 1e-12
    # n=2, q=2, x=y=1: masses 1/6, 3/6, 2/6
    masses = [qdist.pmf_xy(k, 2, 1.0, 1.0, 2) for k in range(3)]
    for got, want in zip(masses, (1 / 6, 3 / 6, 2 / 6)):
        assert abs(got - want) < 1e-12
    with pytest.raises(ValueError):
        qdist.pmf_xy(0, 2, 0.0, 0.0, 2)


def test_pmf_normalization_log_domain():
    for n in (16, 40, 64):
        for theta in (0.1, 1.0, 10.0):
            for q in (2, 3):
                p = qdist.QBinomialParams(n, theta, q)
                total = sum(qdist.pmf(k, p) for k in range(n + 1))
                assert abs(total - 1.0) < 1e-12, (n, theta, q, total)


def test_pmf_fraction_matches_float():
    p = qdist.QBinomialParams(8, 0.5, 2)
    for k in range(9):
        exact = qdist.pmf_fraction(k, 8, Fraction(1, 2), 2)
        assert abs(qdist.pmf(k, p) - float(exact)) < 1e-14


def test_factorization_exact_outcome_tree():
    # law of sum of independent Bernoulli(p_i) over all 2^n outcomes equals
    # the pmf exactly, in rationals
    q = 2
    for n in (1, 4, 8, 12):
        theta = Fraction(2, 3)
        probs = [theta * q**i / (1 + theta * q**i) for i in range(n)]
        law = [Fraction(0)] * (n + 1)
        for outcome in itertools.product((0, 1), repeat=n):
            pr = Fraction(1)
            for x, p in zip(outcome, probs):
                pr *= p if x else 1 - p
            law[sum(outcome)] += pr
        for k in range(n + 1):
            assert law[k] == qdist.pmf_fraction(k, n, theta, q)


def test_q_to_one_degeneration():
    n = 8
    x, y = 1.0, 0.6
    xi = y / (x + y)
    q = 1 + 1e-6
    for k in range(n + 1):
        classical = math.comb(n, k) * xi**k * (1 - xi) ** (n - k)
        assert abs(qdist.pmf_xy(k, n, x, y, q) - classical) < 1e-4


def test_mean_variance():
    assert qdist.mean(qdist.QBinomialParams(4, 0.0, 2)) == 0.0
    assert qdist.variance(qdist.QBinomialParams(4, 0.0, 2)) == 0.0
    p = qdist.QBinomialParams(1, 2.5, 2)
    assert abs(qdist.mean(p) - 2.5 / 3.5) < 1e-15
    p = qdist.QBinomialParams(3, 1.0, 2)
    assert abs(qdist.mean(p) - (1 / 2 + 2 / 3 + 4 / 5)) < 1e-14
    # mean matches first moment of the pmf
    for theta in (0.2, 1.0, 3.0):
        par = qdist.QBinomialParams(10, theta, 2)
        moment = sum(k * qdist.pmf(k, par) for k in range(11))
        assert abs(moment - qdist.mean(par)) < 1e-10


def test_growth_prob_past_the_double_range():
    # theta q^i is inf for i >= 1: the chain grows surely, not with NaN
    assert qdist.growth_prob(1e308, 2, 1) == 1.0
    p = qdist.QBinomialParams(5, 1e308, 2)
    assert qdist.bernoulli_chain(p) == (1.0,) * 5
    assert qdist.mean(p) == 5
    # 1 - p_j = 1/(1 + theta 2^j) keeps its relative accuracy: ~1.9e-308
    # here, not 0, although theta 2^j overflows past j = 0
    t = Fraction(1e308)
    exact_c = sum(1 / (1 + t * 2**j) for j in range(5))
    exact_var = sum(t * 2**j / (1 + t * 2**j) ** 2 for j in range(5))
    assert abs(Fraction(qdist.c_n(1e308, 5, 2)) - exact_c) <= 1e-12 * exact_c
    assert abs(Fraction(qdist.variance(p)) - exact_var) <= 1e-12 * exact_var
    # past i = 1023 the int 2^i has no float; the factor is the logistic
    # of ln(theta 2^i), and 0 at theta = 0
    assert qdist.growth_prob(0.0, 2, 1024) == 0.0
    assert qdist.growth_prob(1.0, 2, 1100) == qdist.growth_prob(1, 2, 1100) == 1.0
    for theta in (5e-324, 1e-300):
        want = 1 / (1 + math.exp(-(math.log(theta) + 1500 * math.log(2))))
        assert qdist.growth_prob(theta, 2, 1500) == want
    assert abs(qdist.growth_prob(5e-324, 2, 1024) - 5e-324 * 2.0**1023 * 2) < 1e-28
    # wherever theta q^i has a float the factor is the quotient
    for q, i in ((2, 0), (2, 1023), (3, 40), (16, 255)):
        for theta in (0.0, 1e-300, 0.3, 1.0, 7.0):
            t = theta * q**i
            assert qdist.growth_prob(theta, q, i) == (1.0 if t == math.inf else t / (1 + t))
    big = qdist.QBinomialParams(2000, 1e-290, 2)
    assert 0 < qdist.mean(big) < 2000 and qdist.variance(big) > 0


def test_chain_complement_keeps_relative_accuracy():
    # 1 - p is computed as 1/(1 + theta q^i), not by cancellation in 1 - p
    for theta, n, q in ((1e12, 5, 2), (1e6, 5, 2), (1e12, 40, 3), (1e6, 20, 4)):
        t = Fraction(theta)
        ps = [t * q**j / (1 + t * q**j) for j in range(n)]
        exact_c = sum(1 - p for p in ps)
        exact_var = sum(p * (1 - p) for p in ps)
        got_c = Fraction(qdist.c_n(theta, n, q))
        got_var = Fraction(qdist.variance(qdist.QBinomialParams(n, theta, q)))
        assert abs(got_c - exact_c) < 1e-14 * exact_c, (theta, n, q)
        assert abs(got_var - exact_var) < 1e-14 * exact_var, (theta, n, q)
    # past the double range of q^i the complement is the logistic's
    for theta, i in ((1e-10, 1050), (1e-300, 1100), (5e-324, 1030), (0.0, 1100)):
        want = 1 / (1 + Fraction(theta) * 2**i)
        got = qdist.growth_complement(theta, 2, i)
        assert abs(Fraction(got) - want) <= 1e-12 * want, (theta, i)
    # the mean sums growth_prob alone
    p = qdist.QBinomialParams(40, 1e6, 3)
    assert qdist.mean(p) == sum(qdist.growth_prob(1e6, 3, j) for j in range(40))


def test_mle_below_the_bisection_reach():
    # mean 1 at n = 300 puts theta_hat near 2^-300, below every midpoint
    # that 200 halvings of [0, 1] reach: it is found on log theta
    th = qdist.mle_theta([1], 300, 2)
    assert 0 < th < 2.0**-200
    assert abs(qdist.m_qn(th, 300, 2) - 1) < qdist.MLE_DEFAULT_TOL
    # at n = 2000 theta_hat ~ 2^-2000 is below the smallest double
    with pytest.raises(ValueError, match="below the double range"):
        qdist.mle_theta([1], 2000, 2)


def test_pmf_column_is_one_pass_of_the_formula():
    # the recurrence [n, k]_q -> [n, k+1]_q gives pmf exactly as
    # q_binomial(n, k, q) does, in the linear and the log domain
    for n, theta, q in ((8, 0.5, 2), (30, 1.0, 2), (40, 1.0, 2), (64, 7.0, 3), (100, 0.1, 16)):
        p = qdist.QBinomialParams(n, theta, q)
        column = qdist._pmf_column(p)
        ends = [qdist.pmf(k, p) for k in (-1, 0, n // 2, n, n + 1)]
        assert ends == [0.0, column[0], column[n // 2], column[n], 0.0]
        if n > qdist.LOG_DOMAIN_THRESHOLD:
            assert column == [float(q) ** qdist.log_pmf(k, p) for k in range(n + 1)]
        else:
            den = math.prod(1.0 + theta * q**i for i in range(n))
            assert column == [
                qcomb.q_binomial(n, k, q) * float(q) ** (k * (k - 1) // 2) * theta**k / den
                for k in range(n + 1)
            ]
    assert qdist._pmf_column(qdist.QBinomialParams(3, 0.0, 2)) == [1.0, 0.0, 0.0, 0.0]
    column = qdist._pmf_column(qdist.QBinomialParams(1100, 1.0, 2))
    assert len(column) == 1101 and abs(sum(column) - 1) < 1e-9


def _log_q_ratio(num, den, q):
    """log_q(num / den) of positive ints, to double precision at any size."""
    e = num.bit_length() - den.bit_length()
    if e > 0:
        den <<= e
    else:
        num <<= -e
    return (math.log(num / den) + e * math.log(2)) / math.log(q)


def test_log_pochhammers_match_exact_products():
    # with theta = a/b, (-theta; q)_n = prod_{i<n} (b + a q^i) / b^n and
    # (-1/theta; 1/q)_n = prod_{i<n} (a q^i + b) / prod_{i<n} a q^i share
    # one integer numerator
    for q in (2, 3, 16):
        for theta in (5e-324, 1e-300, 1e-12, 0.7, 1.0, 1.5, 1e12, 1e300):
            a, b = theta.as_integer_ratio()
            num, b_pow, aq_prod = 1, 1, 1
            for n in range(121):
                for got, exact in (
                    (qdist.log_q_neg_pochhammer(theta, n, q), _log_q_ratio(num, b_pow, q)),
                    (qdist.log_q_neg_inv_pochhammer(theta, n, q), _log_q_ratio(num, aq_prod, q)),
                ):
                    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (q, theta, n)
                num *= b + a * q**n
                b_pow *= b
                aq_prod *= a * q**n
            for n in (1100, 3000):
                assert math.isfinite(qdist.log_q_neg_pochhammer(theta, n, q))
                assert math.isfinite(qdist.log_q_neg_inv_pochhammer(theta, n, q))


def test_moments_match_exact_sums():
    for q in (2, 3):
        for theta in (1e-6, 0.3, 1.0, 7.5, 1e6):
            t = Fraction(theta)
            ps = [t * q**j / (1 + t * q**j) for j in range(200)]
            for n in (1, 5, 20, 40):
                var = float(sum(p * (1 - p) for p in ps[:n]))
                cn = float(sum(1 - p for p in ps[:n]))
                got = qdist.variance(qdist.QBinomialParams(n, theta, q))
                assert abs(got - var) <= 1e-12 * max(1.0, var), (q, theta, n)
                assert abs(qdist.c_n(theta, n, q) - cn) <= 1e-12 * max(1.0, cn), (q, theta, n)
            # the tail past the tol cut is below 2 tol
            assert abs(qdist.c_inf(theta, q) - float(sum(1 - p for p in ps))) < 3e-12


def test_pmf_xy_past_the_double_range():
    # x + y q^i overflows a double at i >= 1024; the log factors do not
    total = math.fsum(qdist.pmf_xy(k, 1100, 1.0, 1.5, 2) for k in range(1090, 1101))
    assert abs(total - 1.0) < 1e-9
    # a real q takes the log-domain coefficient, where q^u overflows too
    for k in (0, 1, 550, 1090, 1095, 1099, 1100):
        exact_q = qdist.pmf_xy(k, 1100, 1.0, 1.5, 2)
        assert abs(qdist.pmf_xy(k, 1100, 1.0, 1.5, 2.0) - exact_q) <= 1e-12 * exact_q, k
    assert qdist.pmf_xy(500, 1000, 1.0, 1.0, 2.5) == 0.0


def test_c_n_and_c_inf():
    assert qdist.c_n(1.0, 0, 2) == 0.0
    assert qdist.c_n(1.0, 1, 2) == 0.5
    p = qdist.QBinomialParams(7, 0.8, 3)
    assert abs(qdist.c_n(0.8, 7, 3) - (7 - qdist.mean(p))) < 1e-12
    # truncated-sum oracle
    oracle = sum(1.0 / (1.0 + 2.0**j) for j in range(80))
    assert abs(qdist.c_inf(1.0, 2) - oracle) < 1e-11
    # monotone in n, converging up to the limit
    vals = [qdist.c_n(1.0, n, 2) for n in range(1, 30)]
    assert vals == sorted(vals)
    assert vals[-1] <= qdist.c_inf(1.0, 2) + 1e-12


def test_m_qn_monotone_bijection():
    thetas = [i / 100 for i in range(1, 1001)]
    vals = [qdist.m_qn(t, 6, 2) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert qdist.m_qn(0.0, 6, 2) == 0.0
    assert qdist.m_qn(math.inf, 6, 2) == 6.0
    assert vals[-1] < 6.0
    # derivative is strictly positive on the grid
    for t in (0.01, 0.5, 1.0, 10.0, 100.0):
        deriv = sum(2**j / (1 + t * 2**j) ** 2 for j in range(6))
        assert deriv > 0


def test_mle_theta_examples():
    assert qdist.mle_theta([0, 0, 0], 5, 2) == 0.0
    assert qdist.mle_theta([1, 1], 1, 2) == math.inf
    # n=1, mean 1/2: theta/(1+theta) = 1/2 at theta = 1
    th = qdist.mle_theta([1, 0], 1, 2)
    assert abs(th - 1.0) < 1e-9
    with pytest.raises(ValueError):
        qdist.mle_theta([], 4, 2)
    with pytest.raises(ValueError):
        qdist.mle_theta([5], 4, 2)


def test_mle_residual_tolerance():
    samples = [3, 4, 5, 4, 2, 6]
    n, q = 8, 2
    th = qdist.mle_theta(samples, n, q, tol=1e-12)
    ybar = sum(samples) / len(samples)
    assert abs(qdist.m_qn(th, n, q) - ybar) < 1e-12


def test_mle_round_trip_consistency():
    rng = random.Random(4242)
    n, q, theta_star = 8, 2, 2.0
    par = qdist.QBinomialParams(n, theta_star, q)
    chain = qdist.bernoulli_chain(par)
    draws = [sum(rng.random() < p for p in chain) for _ in range(10_000)]
    th = qdist.mle_theta(draws, n, q)
    se = math.sqrt(qdist.variance(par) / len(draws))
    assert abs(qdist.m_qn(th, n, q) - qdist.m_qn(theta_star, n, q)) < 3 * se
