import random
from fractions import Fraction

import pytest

from qgrass import maxent, qcomb
from qgrass.entropy import quadratic_entropy


def test_model_validation():
    with pytest.raises(ValueError):
        maxent.EnergyModel((), 0.0)
    with pytest.raises(ValueError):
        maxent.EnergyModel((0.0, 1.0), 1.5)  # infeasible mean
    with pytest.raises(ValueError):
        maxent.EnergyModel((0.0, 1.0), -0.1)
    with pytest.raises(ValueError):
        maxent.EnergyModel((float("inf"), 0.0), 0.5)  # non-finite energy


def test_two_state_forced():
    sol = maxent.solve(maxent.EnergyModel((0.0, 1.0), 0.3))
    assert abs(sol.probs[0] - 0.7) < 1e-12
    assert abs(sol.probs[1] - 0.3) < 1e-12


def test_constant_energies_give_uniform():
    sol = maxent.solve(maxent.EnergyModel((2.0, 2.0, 2.0, 2.0), 2.0))
    assert all(abs(p - 0.25) < 1e-12 for p in sol.probs)


def test_three_state_closed_form():
    sol = maxent.solve(maxent.EnergyModel((0.0, 1.0, 2.0), 0.5))
    for got, want in zip(sol.probs, (Fraction(7, 12), Fraction(1, 3), Fraction(1, 12))):
        assert abs(got - want) < 1e-10
    # grid-search oracle along the feasible line g = g* + t(1, -2, 1)
    base = [7 / 12, 1 / 3, 1 / 12]
    best = max(
        quadratic_entropy([base[0] + t, base[1] - 2 * t, base[2] + t])
        for t in [i * 1e-3 for i in range(-80, 84)]
        if base[2] + t >= 0 and base[1] - 2 * t >= 0
    )
    assert quadratic_entropy(sol.probs) >= best - 1e-9


def test_kkt_certificate():
    model = maxent.EnergyModel((0.0, 1.0, 2.0, 5.0), 0.4)
    sol = maxent.solve(model)
    a, b = sol.multipliers
    for i in sol.active_support:
        assert abs(sol.probs[i] - (a + b * model.energies[i])) < 1e-10
    for i in range(len(model.energies)):
        if i not in sol.active_support:
            assert a + b * model.energies[i] <= 1e-10
    assert abs(sum(sol.probs) - 1) < 1e-10
    assert abs(sum(p * e for p, e in zip(sol.probs, model.energies)) - 0.4) < 1e-10


def test_boundary_mean_hits_support():
    sol = maxent.solve(maxent.EnergyModel((0.0, 1.0, 2.0), 0.0))
    assert abs(sol.probs[0] - 1.0) < 1e-10
    assert sol.probs[1] == 0.0 and sol.probs[2] == 0.0


def test_scaling_invariance():
    sol1 = maxent.solve(maxent.EnergyModel((0.0, 1.0, 2.0), 0.5))
    sol2 = maxent.solve(maxent.EnergyModel((0.0, 3.0, 6.0), 1.5))
    for a, b in zip(sol1.probs, sol2.probs):
        assert abs(a - b) < 1e-10


def test_solution_reproducible():
    model = maxent.EnergyModel((0.0, 0.5, 1.0, 4.0), 0.6)
    g1 = maxent.solve(model).probs
    g2 = maxent.solve(model).probs
    assert g1 == g2


def test_telescoped_conversion():
    energies = [3.0, 2.0, 0.5]
    tilde = [energies[i] - (energies[i + 1] if i + 1 < 3 else 0.0) for i in range(3)]
    assert maxent.energies_from_telescoped(tilde) == energies


def test_randomized_models_satisfy_constraints():
    rng = random.Random(31415)
    for _ in range(500):
        m = rng.randint(1, 7)
        energies = tuple(round(rng.uniform(-5, 5), 3) for _ in range(m))
        target = rng.uniform(min(energies), max(energies))
        sol = maxent.solve(maxent.EnergyModel(energies, target))
        assert abs(sum(sol.probs) - 1) < 1e-8
        assert abs(sum(p * e for p, e in zip(sol.probs, energies)) - target) < 1e-7
        assert all(p >= 0 for p in sol.probs)


def test_finite_n_refuses_n_below_one():
    model = maxent.EnergyModel((0.0, 1.0, 2.0), 0.5)
    for n in (0, -2):
        with pytest.raises(ValueError, match="n must be >= 1"):
            maxent.finite_n_check(model, n, 2)


def test_finite_n_two_state_forced():
    model = maxent.EnergyModel((0.0, 1.0), 0.25)
    rep = maxent.finite_n_check(model, 8, 2)
    assert rep["nominal"] == (6, 2)
    assert rep["feasible"] == [(6, 2)]
    assert rep["nominal_is_optimal"] and not rep["ties"]


def test_finite_n_three_state():
    model = maxent.EnergyModel((0.0, 1.0, 2.0), 0.5)
    rep = maxent.finite_n_check(model, 60, 2)
    assert rep["nominal"] == (35, 20, 5)
    assert rep["nominal_is_optimal"]
    assert rep["constraint_deviation"] == 0.0
    # exhaustive oracle within the ball: every exactly-feasible type scores
    # at most the nominal W
    w_nominal = qcomb.q_multinomial((35, 20, 5), 2)
    for k in rep["feasible"]:
        assert qcomb.q_multinomial(k, 2) <= w_nominal


def test_finite_n_growth_approaches_h2():
    model = maxent.EnergyModel((0.0, 1.0, 2.0), 0.5)
    h2 = quadratic_entropy(maxent.solve(model).probs)
    gaps = []
    for n in (24, 48, 96):
        rep = maxent.finite_n_check(model, n, 2)
        gaps.append(abs(rep["growth_rate"] - h2))
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 0.05
