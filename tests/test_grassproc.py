from collections import Counter
from fractions import Fraction

import pytest

from qgrass import gf, grassproc, qcomb, qdist

F2 = gf.FieldSpec(2)
F3 = gf.FieldSpec(3)


def test_process_state_invariant():
    with pytest.raises(ValueError):
        grassproc.ProcessState(3, gf.zero_subspace(2, F2))


def test_simulate_theta_zero_never_grows():
    t = grassproc.simulate(8, 0.0, F2, seed=0, keep_history=True)
    assert [st.current.dim for st in t.history] == [0] * 9
    assert t.final.step == 8


def test_simulate_huge_theta_always_grows():
    t = grassproc.simulate(6, 1e12, F2, seed=0)
    assert t.final.current.dim == 6


def test_v1_law_half():
    # Pr{V_1 = F_2} = theta/(1+theta) = 1/2 at theta = 1
    n_draws = 40_000
    grew = sum(
        grassproc.simulate(1, 1.0, F2, seed=f"v1:{i}").final.current.dim
        for i in range(n_draws)
    )
    assert abs(grew / n_draws - 0.5) < 0.01


def test_simulate_growth_escapes_ambient():
    # a growth step from the zero space gives the whole line; every growth
    # step is a dilation: it contains the embedded old space and escapes
    # the old ambient space
    for seed in range(20):
        t = grassproc.simulate(5, 1.0, F3, seed=seed, keep_history=True)
        if t.history[1].current.dim:
            assert t.history[1].current == gf.full_space(1, F3)
        for prev, nxt in zip(t.history, t.history[1:]):
            if nxt.current.dim == prev.current.dim + 1:
                assert nxt.current.contains(prev.current.embedded(1))
                amb = gf.full_space(prev.step, F3).embedded(1)
                assert not amb.contains(nxt.current)


def test_simulate_law_matches_outcome_tree():
    # every subspace's count is within 3 sigma of its exact outcome-tree
    # probability; at these draw counts the bound is reachable for a
    # correct sampler
    n_draws = 20_000
    for n in (2, 3):
        counts = Counter(
            grassproc.simulate(n, 1.0, F2, seed=i).final.current for i in range(n_draws)
        )
        law = grassproc.outcome_tree_law(n, Fraction(1), F2)
        assert set(counts) <= set(law)
        for v, pr in law.items():
            p = float(pr)
            sigma = (n_draws * p * (1 - p)) ** 0.5
            assert abs(counts[v] - n_draws * p) < 3 * sigma, (n, v, counts[v])


def test_simulate_deterministic_replay():
    t1 = grassproc.simulate(7, 1.0, F2, seed=42, keep_history=True)
    t2 = grassproc.simulate(7, 1.0, F2, seed=42, keep_history=True)
    assert t1.final == t2.final
    assert t1.history == t2.history
    t3 = grassproc.simulate(7, 1.0, F2, seed=43)
    # overwhelmingly likely to differ; determinism is the contract under test
    assert t1.final.current.ambient_dim == t3.final.current.ambient_dim == 7


def test_simulate_trivial_and_monotone_dims():
    t = grassproc.simulate(0, 1.0, F2, seed=1)
    assert t.final.step == 0 and t.final.current.dim == 0
    t = grassproc.simulate(10, 0.7, F2, seed=9, keep_history=True)
    dims = [st.current.dim for st in t.history]
    for a, b in zip(dims, dims[1:]):
        assert b - a in (0, 1)
    # growth steps escape the previous ambient space
    for prev, nxt in zip(t.history, t.history[1:]):
        if nxt.current.dim == prev.current.dim + 1:
            amb = gf.full_space(prev.step, F2).embedded(1)
            assert not amb.contains(nxt.current)
        else:
            assert nxt.current == prev.current.embedded(1)


def test_exact_pmf_values_and_sum():
    v0 = gf.zero_subspace(1, F2)
    assert abs(grassproc.exact_pmf(v0, 1, 1.0, 2) - 0.5) < 1e-15
    # sum over all of Gr(3) is exactly 1 in rationals
    total = Fraction(0)
    for k in range(4):
        nk = qcomb.q_binomial(3, k, 2)
        total += nk * grassproc.exact_pmf_fraction(k, 3, Fraction(1), 2)
    assert total == 1
    # corollary: class mass equals the q-binomial pmf
    for k in range(4):
        lhs = qcomb.q_binomial(3, k, 2) * grassproc.exact_pmf(
            next(iter(gf.enumerate_grassmannian(k, 3, F2))), 3, 1.0, 2
        )
        rhs = qdist.pmf(k, qdist.QBinomialParams(3, 1.0, 2))
        assert abs(lhs - rhs) < 1e-12


def test_outcome_tree_reproduces_law_small():
    # brute-force re-proof of the subspace law at n <= 3
    for field, q in ((F2, 2), (F3, 3)):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            law = grassproc.outcome_tree_law(3, theta, field)
            assert sum(law.values()) == 1
            for v, pr in law.items():
                assert pr == grassproc.exact_pmf_fraction(v.dim, 3, theta, q)
            # every subspace of F_q^3 received mass
            assert len(law) == sum(qcomb.q_binomial(3, k, q) for k in range(4))


def test_outcome_tree_dim_marginal_is_qbinomial():
    law = grassproc.outcome_tree_law(4, Fraction(1, 2), F2)
    marg = {}
    for v, pr in law.items():
        marg[v.dim] = marg.get(v.dim, Fraction(0)) + pr
    for k in range(5):
        assert marg[k] == qdist.pmf_fraction(k, 4, Fraction(1, 2), 2)


def test_log_pmf_by_codim_matches_direct_log():
    for n in (5, 12, 25, 40):
        for theta in (0.5, 1.0, 2.0):
            for d in range(min(n, 7)):
                a = grassproc.log_pmf_by_codim(d, n, theta, 2)
                b = grassproc.log_exact_pmf(n - d, n, theta, 2)
                assert abs(a - b) < 1e-9, (n, theta, d)
    # d = n: theta-free endpoint
    a = grassproc.log_pmf_by_codim(5, 5, 1.0, 2)
    b = grassproc.log_exact_pmf(0, 5, 1.0, 2)
    assert abs(a - b) < 1e-9


def test_h2_square_identity():
    # n^2 H2(d/n) = n^2 - k^2 - d^2 with k = n - d
    from qgrass.entropy import binary_quadratic_entropy

    for n in (4, 9, 30):
        for d in range(n + 1):
            k = n - d
            assert abs(n * n * binary_quadratic_entropy(d / n) - (n * n - k * k - d * d)) < 1e-9 * n * n


def test_empirical_matches_exact_small():
    n_draws = 30_000
    counts = Counter()
    for i in range(n_draws):
        counts[grassproc.simulate(3, 1.0, F2, seed=f"emp:{i}").final.current] += 1
    tv = 0.0
    for k in range(4):
        p = float(grassproc.exact_pmf_fraction(k, 3, Fraction(1), 2))
        for v in gf.enumerate_grassmannian(k, 3, F2):
            tv += abs(counts.get(v, 0) / n_draws - p)
    assert 0.5 * tv < 0.02


def test_trajectory_record_shape():
    t = grassproc.simulate(4, 1.0, F2, seed=5, keep_history=True)
    rec = grassproc.trajectory_record(t)
    assert rec["schema"] == "qgrass/1"
    assert rec["q"] == 2 and rec["final"]["n"] == 4
    assert len(rec["history"]) == 5
    assert rec["final"]["basis"] == gf.format_subspace(t.final.current)
