"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Tolerances and budgets are pinned here and nowhere else.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from oracles import exact_pmf_fraction, pmf_fraction
from qgrass import aep, entropy, gf, grassproc, maxent, qcomb, qdist

F2 = gf.FieldSpec(2)


def _report(num, ok, detail, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s"
        timing += f" < {budget:.0f}s]" if budget else "]"
    print(f"{status} criterion {num}: {detail}{timing}")
    return ok


def test_criterion_01_subspace_count_oracle():
    t0 = time.time()
    ok = True
    worst = None
    for q in (2, 3, 4):
        field = gf.FieldSpec(q)
        for n in range(6):
            for k in range(n + 1):
                count = sum(1 for _ in gf.enumerate_grassmannian(k, n, field))
                if count != qcomb.q_binomial(n, k, q):
                    ok = False
                    worst = (q, n, k, count)
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    assert _report(
        1, ok,
        f"brute-force subspace counts match q-binomials for q in {{2,3,4}}, n <= 5"
        + (f"; mismatch {worst}" if worst else ""),
        elapsed, 30,
    )


def test_criterion_02_flag_identity():
    t0 = time.time()
    rng = random.Random(20190308)
    ok = True
    for _ in range(100):
        s = rng.randint(1, 5)
        parts = [rng.randint(0, 12 // s) for _ in range(s)]
        idx = list(range(s))
        rng.shuffle(idx)
        groups = []
        while idx:
            take = rng.randint(1, len(idx))
            groups.append(idx[:take])
            idx = idx[take:]
        q = rng.randint(2, 5)
        if not qcomb.check_flag_identity(parts, groups, q):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    assert _report(2, ok, "flag identity exact on 100 random flags/groupings", elapsed, 5)


def test_criterion_03_gauss_binomial_theorem():
    t0 = time.time()
    rng = random.Random(1808)
    ok = True
    for _ in range(100):
        n = rng.randint(0, 10)
        q = rng.randint(2, 5)
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if not qcomb.check_gauss_identity(n, q, x, y):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 5
    assert _report(3, ok, "Gauss binomial formula exact on 100 random rational points", elapsed, 5)


def test_criterion_04_law_of_vn_exhaustive():
    t0 = time.time()
    ok = True
    for q in (2, 3):
        field = gf.FieldSpec(q)
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for n in range(5):
                law = grassproc.outcome_tree_law(n, theta, field)
                if sum(law.values()) != 1:
                    ok = False
                expected_support = sum(qcomb.q_binomial(n, k, q) for k in range(n + 1))
                if len(law) != expected_support:
                    ok = False
                for v, pr in law.items():
                    if pr != exact_pmf_fraction(v.dim, n, theta, q):
                        ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    assert _report(
        4, ok,
        "outcome trees (n <= 4, q in {2,3}, theta in {1/2,1,2}) reproduce the "
        "subspace law exactly in rationals",
        elapsed, 60,
    )


def test_criterion_05_monte_carlo_consistency():
    t0 = time.time()
    n, q, theta = 6, 2, 1.0
    n_draws = 200_000
    counts = Counter()
    dim_counts = Counter()
    for i in range(n_draws):
        v = grassproc.simulate(n, theta, F2, seed=f"mc5:{i}").final.current
        counts[v] += 1
        dim_counts[v.dim] += 1

    # The subspace bound comes from the exact law and N = n_draws alone: a
    # correct sampler's count of v is Binomial(N, p_v), so |p_hat_v - p_v| is
    # near half-normal with mean sqrt(2 p_v (1 - p_v) / (pi N)) and variance
    # (1 - 2/pi) p_v (1 - p_v) / N.  Summed over the 2825 points this gives
    # the TV's mean tv_mean and sd tv_sd.  tv_mean is ~0.028 at this N, so a
    # fixed bound below it would fail every correct sampler.
    z_max = 6
    tv = tv_mean = tv_var = 0.0
    for k in range(n + 1):
        p = float(exact_pmf_fraction(k, n, Fraction(1), q))
        spread = p * (1 - p) / n_draws
        for v in gf.enumerate_grassmannian(k, n, F2):
            tv += abs(counts.get(v, 0) / n_draws - p)
            tv_mean += math.sqrt(2 * spread / math.pi)
            tv_var += (1 - 2 / math.pi) * spread
    tv *= 0.5
    tv_mean *= 0.5
    tv_sd = 0.5 * math.sqrt(tv_var)
    tv_bound = tv_mean + z_max * tv_sd

    params = qdist.QBinomialParams(n, theta, q)
    tv_dim = 0.5 * sum(
        abs(dim_counts.get(k, 0) / n_draws - qdist.pmf(k, params))
        for k in range(n + 1)
    )
    elapsed = time.time() - t0
    ok = tv < tv_bound and tv_dim < 0.01 and elapsed < 60
    assert _report(
        5, ok,
        f"empirical law over Gr(6), 2e5 trajectories: subspace TV = {tv:.4f} "
        f"(< {tv_bound:.4f} = exact-law mean {tv_mean:.4f} + {z_max} sd "
        f"required; z = {(tv - tv_mean) / tv_sd:.1f}), "
        f"dim-marginal TV = {tv_dim:.4f} (< 0.01 required)",
        elapsed, 60,
    )


def test_criterion_06_mu_sums_to_one():
    t0 = time.time()
    ok = True
    worst = 0.0
    for q in (2, 3):
        for theta in (0.5, 1.0, 2.0):
            table = aep.build_mu_table(theta, q)
            dev = abs(table.total() - 1.0)
            worst = max(worst, dev)
            if dev > 1e-9:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 1
    assert _report(
        6, ok,
        f"sum of mu within 1e-9 of 1 for (q, theta) grid; worst deviation {worst:.2e}",
        elapsed, 1,
    )


def test_criterion_07_mu_limit():
    t0 = time.time()
    ok = True
    worst = 0.0
    for d in range(6):
        pr = 2.0 ** qdist.log_pmf(60 - d, qdist.QBinomialParams(60, 1.0, 2))
        dev = abs(pr - aep.mu(d, 1.0, 2))
        worst = max(worst, dev)
        if dev >= 1e-6:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 1
    assert _report(
        7, ok,
        f"|Pr{{V_60 in Gr(60-d,60)}} - mu(d)| < 1e-6 for d <= 5; worst {worst:.2e}",
        elapsed, 1,
    )


def test_criterion_08_aep_theorem():
    t0 = time.time()
    table = aep.build_mu_table(1.0, 2)
    if not aep.is_continuity_point(0.9, table):
        print("SKIP criterion 8: 0.9 is a discontinuity point of Delta")
        pytest.skip("0.9 not a continuity point")
    target = aep.delta(0.9, table)
    a_ns = {n: aep.typical_set(n, 0.1, 1, 2).delta_codim for n in range(2, 41)}
    n0 = None
    for n in sorted(a_ns):
        if all(a_ns[m] == target for m in range(n, 41)):
            n0 = n
            break
    stable = n0 is not None and n0 <= 30
    reports = {n: aep.check_aep(n, 0.1, 0.5, 1.0, 2) for n in (10, 20, 40)}
    gap40 = reports[40]["max_gap"]
    decreasing = reports[10]["max_gap"] > reports[20]["max_gap"] > gap40
    elapsed = time.time() - t0
    ok = stable and gap40 <= 0.5 and decreasing and elapsed < 10
    assert _report(
        8, ok,
        f"a_n = Delta(0.9) = {target} for n in [{n0}, 40]; "
        f"max equipartition gap at n=40 is {gap40:.4f} <= 0.5 and decreasing in n",
        elapsed, 10,
    )


def test_criterion_09_size_optimality():
    t0 = time.time()
    table = aep.build_mu_table(1.0, 2)
    target = float(aep.delta(0.9, table))
    s_rates, a_rates = [], []
    for n in (10, 20, 30, 40):
        s, _ = aep.greedy_min_set_size(n, 0.1, 1, 2)
        ts = aep.typical_set(n, 0.1, 1, 2)
        s_rates.append(entropy.log_q_int(s, 2) / n)
        a_rates.append(entropy.log_q_int(ts.exact_size, 2) / n)
    close = abs(s_rates[-1] - a_rates[-1]) < 0.05
    s_gaps = [abs(r - target) for r in s_rates]
    a_gaps = [abs(r - target) for r in a_rates]
    trend = s_gaps == sorted(s_gaps, reverse=True) and a_gaps == sorted(
        a_gaps, reverse=True
    )
    elapsed = time.time() - t0
    ok = close and trend
    assert _report(
        9, ok,
        f"(1/n)log_q s(n,eps) = {s_rates[-1]:.3f} and (1/n)log_q|A_n| = "
        f"{a_rates[-1]:.3f} at n=40 agree within 0.05 and trend monotonically "
        f"toward Delta = {target:.0f}",
        elapsed,
    )


def test_criterion_10_coding():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        code = aep.make_block_code(n, 0.2, 1, F2)
        for d in range(code.codim_bound + 1):
            for v in gf.enumerate_grassmannian(n - d, n, F2):
                if aep.decode(aep.encode(v, code), code) != v:
                    ok = False
        miss = 1 - sum(
            pmf_fraction(n - d, n, Fraction(1), 2)
            for d in range(code.codim_bound + 1)
        )
        if miss > Fraction(2, 10):
            ok = False
    for n in range(1, 25):
        ts = aep.typical_set(n, 0.1, 1, 2)
        code = aep.make_block_code(n, 0.1, 1, F2)
        want = 0
        while 2**want < ts.exact_size:
            want += 1
        if code.codeword_len != want:
            ok = False
    elapsed = time.time() - t0
    assert _report(
        10, ok,
        "decode(encode(v)) = v on all of A_n for n <= 5; e(f,phi) <= eps by "
        "construction; k(n,eps) = ceil(log_q|A_n|) exact for n <= 24",
        elapsed,
    )


def test_criterion_11_mle():
    t0 = time.time()
    n, q = 8, 2
    grid = [10 ** (-2 + 4 * i / 999) for i in range(1000)]
    vals = [qdist.m_qn(t, n, q) for t in grid]
    monotone = all(b > a for a, b in zip(vals, vals[1:]))

    theta_star = 2.0
    rng = random.Random(777)
    params = qdist.QBinomialParams(n, theta_star, q)
    chain = qdist.bernoulli_chain(params)
    draws = [sum(rng.random() < p for p in chain) for _ in range(10_000)]
    theta_hat = qdist.mle_theta(draws, n, q)
    se = math.sqrt(qdist.variance(params) / len(draws))
    dev = abs(qdist.m_qn(theta_hat, n, q) - qdist.m_qn(theta_star, n, q))
    elapsed = time.time() - t0
    ok = monotone and dev < 3 * se and elapsed < 10
    assert _report(
        11, ok,
        f"m_qn strictly increasing on a 1000-point grid; round trip at "
        f"theta*=2 lands {dev / se:.2f} standard errors from the truth (< 3)",
        elapsed, 10,
    )


def test_criterion_12_qmultinomial_asymptotics():
    t0 = time.time()
    ok = True
    worst = 0.0
    n = 40
    for q in (2, 3):
        patterns = [
            ((n - 2, 2), (math.inf, 2)),          # fixed codim 2
            ((n - 3, 3), (math.inf, 3)),          # fixed codim 3
            ((n // 2, n // 2), (math.inf, math.inf)),          # proportional
            ((n // 2, n // 4, n // 4), (math.inf, math.inf, math.inf)),
        ]
        for parts, limits in patterns:
            const = entropy.asymptotic_constant(limits, q)
            log_ratio = (
                entropy.log_q_int(qcomb.q_multinomial(parts, q), q)
                - math.log(const) / math.log(q)
                - (n * n - sum(k * k for k in parts)) / 2.0
            )
            rel = abs(q**log_ratio - 1.0)
            worst = max(worst, rel)
            if rel > 0.02:
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    assert _report(
        12, ok,
        f"exact q-multinomial over C(q,l) q^(n^2 H2/2) within rel 0.02 at n=40, "
        f"q in {{2,3}}; worst rel deviation {worst:.2e}",
        elapsed, 10,
    )


def test_criterion_13_maxent():
    t0 = time.time()
    sol = maxent.solve(maxent.EnergyModel((0.0, 1.0, 2.0), 0.5))
    closed_form_ok = (
        abs(sol.probs[0] - 7 / 12) < 1e-10
        and abs(sol.probs[1] - 1 / 3) < 1e-10
        and abs(sol.probs[2] - 1 / 12) < 1e-10
    )
    rep = maxent.finite_n_check(maxent.EnergyModel((0.0, 1.0, 2.0), 0.5), 60, 2)
    elapsed = time.time() - t0
    ok = closed_form_ok and rep["nominal_is_optimal"] and elapsed < 30
    assert _report(
        13, ok,
        f"3-state solution (7/12, 1/3, 1/12) within 1e-10; rounded optimizer "
        f"{rep['nominal']} attains the max over the exhaustive n=60 neighborhood"
        + (" (ties)" if rep["ties"] else ""),
        elapsed, 30,
    )


def test_criterion_14_growth():
    t0 = time.time()
    value = aep.grassmannian_growth([40], 2)[0][1]
    sandwich = True
    for n in range(1, 21):
        mid = qcomb.q_binomial(n, n // 2, 2)
        size = aep.grassmannian_size(n, 2)
        if not (mid <= size <= (n + 1) * mid):
            sandwich = False
    elapsed = time.time() - t0
    ok = abs(value - 0.5) < 0.1 and sandwich
    assert _report(
        14, ok,
        f"(2/n^2) log_q |Gr(40)| = {value:.4f}, within 0.1 of 1/2; sandwich "
        "bound exact for n <= 20",
        elapsed,
    )
