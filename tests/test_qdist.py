import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import pmf_fraction
from qgrass import gf, grassproc, qcomb, qdist


def _growth_prob(theta, q, i):
    """Oracle: the chain factor theta q^i / (1 + theta q^i) of step i + 1,
    with q^i powered afresh; 1.0 once theta q^i overflows to inf, and past
    the double range the logistic of ln(theta q^i), or 0.0 at theta = 0."""
    try:
        t = theta * q**i
        return 1.0 if t == math.inf else t / (1.0 + t)
    except OverflowError:
        if not theta:
            return 0.0
        return 1.0 / (1.0 + math.exp(-(math.log(theta) + i * math.log(q))))


def _growth_complement(theta, q, i):
    """Oracle: 1 / (1 + theta q^i), computed directly; once theta q^i has
    no float (or overflows to inf) e / (1 + e) with e = exp(-ln(theta q^i)),
    or 1.0 at theta = 0."""
    try:
        t = theta * q**i
        if t != math.inf:
            return 1.0 / (1.0 + t)
    except OverflowError:
        if not theta:
            return 1.0
    e = math.exp(-(math.log(theta) + i * math.log(q)))
    return e / (1.0 + e)


def _term(theta, q, i):
    """Term i of qdist.growth_terms: the pair (p_i, 1 - p_i)."""
    return next(itertools.islice(qdist.growth_terms(theta, q), i, None))


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
        exact = pmf_fraction(k, 8, Fraction(1, 2), 2)
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
            assert law[k] == pmf_fraction(k, n, theta, q)


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
    assert _term(1e308, 2, 1)[0] == 1.0
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
    assert _term(0.0, 2, 1024)[0] == 0.0
    assert _term(1.0, 2, 1100)[0] == _term(1, 2, 1100)[0] == 1.0
    for theta in (5e-324, 1e-300):
        want = 1 / (1 + math.exp(-(math.log(theta) + 1500 * math.log(2))))
        assert _term(theta, 2, 1500)[0] == want
    assert abs(_term(5e-324, 2, 1024)[0] - 5e-324 * 2.0**1023 * 2) < 1e-28
    # wherever theta q^i has a float the factor is the quotient
    for q, i in ((2, 0), (2, 1023), (3, 40), (16, 255)):
        for theta in (0.0, 1e-300, 0.3, 1.0, 7.0):
            t = theta * q**i
            assert _term(theta, q, i)[0] == (1.0 if t == math.inf else t / (1 + t))
    big = qdist.QBinomialParams(2000, 1e-290, 2)
    assert 0 < qdist.mean(big) < 2000 and qdist.variance(big) > 0


def test_bernoulli_chain_is_growth_prob_term_by_term():
    # one running q^i gives every pair (p, 1 - p) bit for bit, past the
    # double range too, and the chain is its first n factors
    rng = random.Random(20261019)
    specials = (0.0, 5e-324, 1e308, 0, 1, Fraction(1, 3), Fraction(7, 2))
    for _ in range(1500):
        kind = rng.random()
        if kind < 0.5:
            theta = 10.0 ** rng.uniform(-300, 300)
        elif kind < 0.7:
            theta = rng.randint(0, 50)
        elif kind < 0.85:
            theta = Fraction(rng.randint(0, 40), rng.randint(1, 40))
        else:
            theta = rng.choice(specials)
        q = rng.choice((2, 3, 4, 5, 7, 9, 16, 27, 251))
        n = rng.randint(0, 1200) if rng.random() < 0.2 else rng.randint(0, 80)
        pairs = tuple(itertools.islice(qdist.growth_terms(theta, q), n))
        want = tuple(
            (_growth_prob(theta, q, i), _growth_complement(theta, q, i)) for i in range(n)
        )
        assert pairs == want, (theta, q, n)
        chain = qdist.bernoulli_chain(qdist.QBinomialParams(n, theta, q))
        assert chain == tuple(p for p, _ in want), (theta, q, n)


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
        got = _term(theta, 2, i)[1]
        assert abs(Fraction(got) - want) <= 1e-12 * want, (theta, i)
    # the mean sums the factors p alone
    p = qdist.QBinomialParams(40, 1e6, 3)
    assert qdist.mean(p) == sum(_growth_prob(1e6, 3, j) for j in range(40))


def test_simulate_past_the_double_range_follows_the_oracle():
    # at theta = 2^-1030 the steps past i = 1023, where 2^i has no float,
    # decide the dimension: each step draws against the logistic term
    n, theta, seed = 1100, 2.0**-1030, 5
    grown = [
        random.Random(f"{seed}/step/{m + 1}").random() < _growth_prob(theta, 2, m)
        for m in range(n)
    ]
    assert 0 < sum(grown[1024:]) < n - 1024
    chain = qdist.bernoulli_chain(qdist.QBinomialParams(n, theta, 2))
    steps = grassproc.growth_steps(chain, seed)
    assert [rng is not None for rng in steps] == grown
    # simulate's basis is the rref of the dilations the oracle's steps draw
    rows = []
    for m in range(n):
        if grown[m]:
            rng = random.Random(f"{seed}/step/{m + 1}")
            rng.random()
            rows.append([rng.randrange(2) for _ in range(m)] + [1] + [0] * (n - m - 1))
    final = grassproc.simulate(n, theta, gf.FieldSpec(2), seed).final.current
    assert final.dim == sum(grown)
    assert final == gf.rref(rows, n, gf.FieldSpec(2))


def test_bad_theta_is_refused():
    # a negative or NaN theta is a ValueError, not a ZeroDivisionError
    for theta in (-1.0, -1, Fraction(-1, 3), math.nan):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            qdist.c_n(theta, 3, 2)
        with pytest.raises(ValueError, match="theta must be >= 0"):
            grassproc.simulate(5, theta, gf.FieldSpec(2), 0)
    assert qdist.c_n(0, 3, 2) == 3.0


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
    # the linear domain reads the Gaussian column exactly as
    # q_binomial(n, k, q) gives it, and the log domain is log_pmf's walk
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


def test_the_log_domain_forms_no_gaussian_column(monkeypatch):
    def no_column(n, q):
        raise AssertionError("the exact Gaussian column was formed")

    monkeypatch.setattr(qdist, "_gaussian_column", no_column)
    for n in (31, 1100, 3000):
        column = qdist._pmf_column(qdist.QBinomialParams(n, 1.0, 2))
        assert len(column) == n + 1 and abs(math.fsum(column) - 1) < 1e-9, n
    for theta in (1e-30, 1.0, 1e6):
        p = qdist.QBinomialParams(1100, theta, 2)
        assert all(math.isfinite(qdist.log_pmf(k, p)) for k in range(1101)), theta


def test_log_domain_column_matches_the_exact_pmf():
    # theta = a/b: pmf(k) = [n, k]_q q^(k(k-1)/2) a^k b^(n-k) / prod_{i<n} (b + a q^i),
    # and int / int rounds correctly.  Wherever that exceeds 1e-300 the
    # column is within 1e-12 of it, relatively.  An entry whose bit lengths
    # put it below 2^-1099 is not formed, and [n, k]_q q^(k(k-1)/2) is
    # formed once for every theta
    for n in (31, 64, 100, 200, 400):
        for q in (2, 3, 4, 16):
            column = list(qcomb._gaussian_column(n, q))
            scaled = {}
            for theta in (1e-30, 2.0**-40, 0.1, 1 / 3, 1.0, 7.0, 1e6):
                a, b = theta.as_integer_ratio()
                den = math.prod(b + a * q**i for i in range(n))
                got = qdist._pmf_column(qdist.QBinomialParams(n, theta, q))
                for k, coeff in enumerate(column):
                    bits = (coeff.bit_length() - den.bit_length() + k * (k - 1) / 2 * math.log2(q)
                            + k * math.log2(a) + (n - k) * math.log2(b))
                    if bits < -1100:
                        continue
                    if k not in scaled:
                        scaled[k] = coeff * q ** (k * (k - 1) // 2)
                    exact = scaled[k] * (a**k * b ** (n - k)) / den
                    if exact > 1e-300:
                        assert abs(got[k] - exact) <= 1e-12 * exact, (n, q, theta, k)


def _log_q_ratio(num, den, q):
    """log_q(num / den) of positive ints, to double precision at any size."""
    e = num.bit_length() - den.bit_length()
    if e > 0:
        den <<= e
    else:
        num <<= -e
    return (math.log(num / den) + e * math.log(2)) / math.log(q)


def test_log_pochhammers_match_exact_products():
    # with theta = a/b, (-1/theta; 1/q)_n = prod_{i<n} (a q^i + b) / prod_{i<n} a q^i;
    # theta < 1 takes both branches of _ln1p_q_pow, theta >= 1 the first alone
    for q in (2, 3, 16):
        for theta in (5e-324, 1e-300, 1e-12, 0.7, 1.0, 1.5, 1e12, 1e300):
            a, b = theta.as_integer_ratio()
            num, aq_prod = 1, 1
            for n in range(121):
                got, exact = qdist.log_q_neg_inv_pochhammer(theta, n, q), _log_q_ratio(num, aq_prod, q)
                assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (q, theta, n)
                num *= b + a * q**n
                aq_prod *= a * q**n
            for n in (1100, 3000):
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
    # x + y q^i overflows a double at i >= 1024; the walk forms no power of
    # q above 1.  At y/x = 3/2 the pmf is
    # [n, k]_2 2^(k(k-1)/2) 3^k 2^(n-k) / prod_{i<n} (2 + 3 2^i)
    n = 1100
    total = math.fsum(qdist.pmf_xy(k, n, 1.0, 1.5, 2) for k in range(1090, n + 1))
    assert abs(total - 1.0) < 1e-9
    den = math.prod(2 + 3 * 2**i for i in range(n))
    for k in (0, 1, 550, 1090, 1095, 1099, 1100):
        int_q = qdist.pmf_xy(k, n, 1.0, 1.5, 2)
        assert qdist.pmf_xy(k, n, 1.0, 1.5, 2.0) == int_q, k  # a real q takes the same walk
        exact = (qcomb.q_binomial(n, k, 2) * 3**k << k * (k - 1) // 2 + n - k) / den
        assert abs(int_q - exact) <= 1e-12 * exact, k
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


def test_mle_refusal_names_the_first_offender():
    with pytest.raises(ValueError, match=r"sample -1 outside \[0, 4\]"):
        qdist.mle_theta([2, -1, 9, 5], 4, 2)
    with pytest.raises(ValueError, match=r"sample 9 outside \[0, 4\]"):
        qdist.mle_theta([2, 9, -1, 5], 4, 2)
    # a histogram is read in its own order, first occurrences first for a Counter
    with pytest.raises(ValueError, match=r"sample 9 outside \[0, 4\]"):
        qdist.mle_theta(Counter([2, 2, 9, 2, -1, 9]), 4, 2)
    with pytest.raises(ValueError, match="at least one sample is required"):
        qdist.mle_theta({}, 4, 2)
    assert qdist.mle_theta({3: 2, 1: 2}, 4, 2) == qdist.mle_theta([3, 1, 1, 3], 4, 2)


def test_mle_mean_table_is_m_qn_bit_for_bit():
    # theta * p with p the double of q^i is theta * q**i: one table per call
    # gives m_qn exactly, and past the double range of q^(n-1) it is m_qn
    thetas = [10.0**e for e in range(-300, 301, 7)]
    thetas += [5e-324, 1e-310, 2.5e-320, 1e300, 1.7e308, 0.3, 1.0]
    cases = [(n, q) for n in (1, 64, 600) for q in (2, 3, 16, 251)] + [(1100, 2)]
    for n, q in cases:
        mean_at, slope_at = qdist._mean_of(n, q)
        assert (slope_at is None) == ((n - 1) * math.log2(q) >= 1024), (n, q)
        for theta in thetas:
            assert mean_at(theta) == qdist.m_qn(theta, n, q), (theta, n, q)


def _old_bisect_mean(lo, hi, ybar, mean_at, tol, theta_at):
    """The MLE's bisection as it was before certified brackets: every
    midpoint is evaluated, up to the early return or the 200th halving."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        m = mean_at(theta_at(mid))
        if abs(m - ybar) < tol:
            return theta_at(mid)
        if m < ybar:
            lo = mid
        else:
            hi = mid
    return theta_at(0.5 * (lo + hi))


def _mle_by_m_qn(samples, n, q, tol=qdist.MLE_DEFAULT_TOL, mean_at=None):
    """The MLE as it was before the power table: every step calls m_qn, or
    mean_at if given, and bisects with `_old_bisect_mean`."""
    if mean_at is None:
        def mean_at(theta):
            return qdist.m_qn(theta, n, q)
    ybar = sum(samples) / len(samples)
    if ybar == 0:
        return 0.0
    if ybar == n:
        return math.inf
    hi = 1.0
    while mean_at(hi) <= ybar:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    reach = hi * 2.0**-200
    if mean_at(reach) <= ybar:
        return _old_bisect_mean(0.0, hi, ybar, mean_at, tol, float)
    least = math.ulp(0.0)
    if mean_at(least) > ybar:
        return "below"
    return _old_bisect_mean(math.log(least), math.log(reach), ybar, mean_at, tol, math.exp)


def test_mle_matches_the_m_qn_bisection():
    for n in (1, 8, 64, 300, 2000):
        for q in (2, 3, 16):
            rng = random.Random(f"{n}/{q}")
            for k in range(6):
                size = rng.choice((1, 3, 20, 200))
                samples = [rng.randint(0, min(n, 3 + k * n // 5)) for _ in range(size)]
                want = _mle_by_m_qn(samples, n, q)
                if want == "below":
                    with pytest.raises(ValueError, match="below the double range"):
                        qdist.mle_theta(samples, n, q)
                else:
                    assert qdist.mle_theta(samples, n, q) == want, (n, q, samples)


def _exact_mean_scaled(theta, n, q, bits):
    """floor(2^bits sum_i theta q^i / (1 + theta q^i)), term by term, in
    integers: within n 2^-bits below the exact mean, times 2^bits."""
    a, b = Fraction(theta).as_integer_ratio()
    return sum((a * q**i << bits) // (b + a * q**i) for i in range(n))


def test_float_mean_is_within_the_error_bound():
    # E = 4 n^2 2^-53 bounds the float mean's error (the derivation is in
    # `mle_theta`'s docstring), for the mean and for the Newton pass alike
    bits = 200
    for q in (2, 3, 16):
        for n in (8, 64, 200):
            rng = random.Random(f"bound/{n}/{q}")
            mean_at, slope_at = qdist._mean_of(n, q)
            bound = Fraction(4 * n * n, 2**53)
            low = -(n - 1) * math.log(q) - 20.0
            for _ in range(40):
                theta = math.exp(rng.uniform(low, 20.0))
                exact = Fraction(_exact_mean_scaled(theta, n, q, bits), 2**bits)
                slack = Fraction(n, 2**bits)
                for got in (mean_at(theta), slope_at(theta)[0]):
                    assert abs(Fraction(got) - exact) <= bound + slack, (theta, n, q)
                # the slope d mean / d log theta is sum p (1 - p), the variance
                want = qdist.variance(qdist.QBinomialParams(n, theta, q))
                assert slope_at(theta)[1] == pytest.approx(want, rel=1e-6), (theta, n, q)


def _mle_grid():
    """(samples, n, q, tol): chain draws over q in {2, 3, 16}, n from 1 to
    200, theta from 1e-300 to 1e4 and 1 to 1,000 samples, three tolerances;
    roots below the linear reach (the log-theta branch); and n = 1100 at
    q = 2, where q^(n-1) has no double and the means are m_qn's."""
    rng = random.Random("mle-grid")
    for q in (2, 3, 16):
        for n in (1, 2, 8, 16, 64, 200):
            for theta in (1e-300, 1e-30, 1e-6, 0.3, 1.0, 30.0, 1e4):
                chain = qdist.bernoulli_chain(qdist.QBinomialParams(n, theta, q))
                for size in (1, 3, 50, 1000):
                    samples = [sum(rng.random() < p for p in chain) for _ in range(size)]
                    for tol in (1e-12, 0.0, 1e-6):
                        yield samples, n, q, tol
    for n, q in ((200, 2), (300, 2), (64, 16), (600, 3)):
        for samples in ([1], [1, 0, 0], [0] * 999 + [1], [2, 1]):
            for tol in (1e-12, 0.0):
                yield samples, n, q, tol
    for samples in ([1], [3, 4], [1095, 1099, 1098], [550]):
        yield samples, 1100, 2, 1e-12


def test_mle_matches_the_old_bisection(monkeypatch):
    # bit for bit the old bisection's theta_hat, never at more than a few
    # mean evaluations (Newton passes included) above the old count
    calls = [0]
    mean_of = qdist._mean_of

    def counted_mean_of(n, q):
        mean_at, slope_at = mean_of(n, q)

        def counted(f):
            def g(theta):
                calls[0] += 1
                return f(theta)
            return g

        return counted(mean_at), slope_at and counted(slope_at)

    monkeypatch.setattr(qdist, "_mean_of", counted_mean_of)
    log_branch = tol_zero = 0
    for samples, n, q, tol in _mle_grid():
        calls[0] = 0
        want = _mle_by_m_qn(samples, n, q, tol, counted_mean_of(n, q)[0])
        old_calls, calls[0] = calls[0], 0
        case = (samples[:5], len(samples), n, q, tol)
        if want == "below":
            with pytest.raises(ValueError, match="below the double range"):
                qdist.mle_theta(samples, n, q, tol)
            continue
        assert qdist.mle_theta(samples, n, q, tol) == want, case
        assert calls[0] <= old_calls + 8, (case, calls[0], old_calls)
        # at tol 0 the bisection stops once [lo, hi] stops shrinking, which
        # took 38,012 evaluations on this grid's tol-0 cases, at most 196
        # in one, when every one of the 200 halvings evaluated its midpoint
        assert tol > 0 or calls[0] <= 64, (case, calls[0], old_calls)
        # the histogram of the samples gives the same theta_hat
        assert qdist.mle_theta(Counter(samples), n, q, tol) == want, case
        log_branch += 0 < want < 2.0**-200
        tol_zero += tol == 0 and 0 < want < math.inf
    assert log_branch >= 10 and tol_zero >= 100


def test_certificate_keeps_tol_and_twice_the_error_bound():
    # a side is certified only where the float mean lies more than
    # tol + 2E beyond the sample mean; a theta whose mean is nearer
    # certifies nothing, at any of the three distances
    n, q, tol = 8, 2, 1e-6
    mean_at, _ = qdist._mean_of(n, q)
    e2 = 8.0 * n * n * 2.0**-53
    for side in (-1.0, 1.0):
        width = side * 1e-9
        m = mean_at(math.exp(width))
        near = m - side * tol / 2
        assert qdist._certified_side(mean_at, 1.0, width, near, tol, e2) == side * math.inf
        far = m - side * (tol + 2 * e2)
        assert qdist._certified_side(mean_at, 1.0, width, far, tol, e2) == math.exp(width)
