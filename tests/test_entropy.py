import math
import random

import pytest

from qgrass import entropy, qcomb


def test_ln_alpha_values():
    assert entropy.ln_alpha(1, 0.7) == 0
    assert abs(entropy.ln_alpha(2.5, 1) - math.log(2.5)) < 1e-15
    # integral of t^-2 from 1 to 2
    assert abs(entropy.ln_alpha(2, 2) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        entropy.ln_alpha(0, 1)
    with pytest.raises(ValueError):
        entropy.ln_alpha(2, 0)


def test_tsallis_entropy_values():
    assert entropy.tsallis_entropy([1.0], 2) == 0
    assert entropy.tsallis_entropy([0.0, 1.0], 0.5) == 0
    assert abs(entropy.tsallis_entropy([0.5, 0.5], 2) - 0.5) < 1e-15
    s = 6
    assert abs(entropy.tsallis_entropy([1 / s] * s, 1) - math.log(s)) < 1e-12


def test_tsallis_alpha_to_one_continuity():
    rng = random.Random(7)
    for _ in range(50):
        raw = [rng.random() for _ in range(rng.randint(2, 6))]
        tot = sum(raw)
        p = [x / tot for x in raw]
        h1 = entropy.tsallis_entropy(p, 1)
        for a in (1 - 1e-6, 1 + 1e-6):
            assert abs(entropy.tsallis_entropy(p, a) - h1) < 1e-5


def test_quadratic_entropy_values():
    assert entropy.quadratic_entropy([1.0]) == 0
    assert abs(entropy.quadratic_entropy([0.5, 0.5]) - 0.5) < 1e-15
    assert abs(entropy.quadratic_entropy([0.25] * 4) - 0.75) < 1e-15
    p = [0.2, 0.3, 0.5]
    assert abs(entropy.quadratic_entropy(p) - entropy.tsallis_entropy(p, 2)) < 1e-15


def test_prob_vector_validation():
    with pytest.raises(ValueError):
        entropy.quadratic_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy.quadratic_entropy([-0.1, 1.1])
    with pytest.raises(ValueError):
        entropy.quadratic_entropy([])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            entropy.tsallis_entropy([bad, 0.5], 2)


def test_chain_rule_product_laws():
    px, py = [0.1, 0.9], [0.4, 0.6]
    joint = [[x * y for y in py] for x in px]
    # independent pair: the chain rule holds, and at alpha = 1 it reduces
    # to plain additivity
    assert entropy.check_chain_rule(joint, 1)
    h1 = entropy.tsallis_entropy([p for row in joint for p in row], 1)
    assert abs(h1 - entropy.tsallis_entropy(px, 1) - entropy.tsallis_entropy(py, 1)) < 1e-12
    # at alpha = 2 the same product law satisfies the nonadditive form
    assert entropy.check_chain_rule(joint, 2)
    h2 = entropy.quadratic_entropy([p for row in joint for p in row])
    hx, hy = entropy.quadratic_entropy(px), entropy.quadratic_entropy(py)
    assert abs(h2 - (hx + hy - hx * hy)) < 1e-12
    # direct evaluation: uniform 2x2 has H2 = 3/4 = 1/2 + 1/2 - 1/4
    flat = [0.25] * 4
    assert abs(entropy.quadratic_entropy(flat) - 0.75) < 1e-15
    assert entropy.check_chain_rule([[0.25, 0.25], [0.25, 0.25]], 2)


def test_nonadditivity_identity_randomized():
    rng = random.Random(11)
    for _ in range(200):
        sx, sy = rng.randint(2, 4), rng.randint(2, 4)
        px = [rng.random() for _ in range(sx)]
        px = [x / sum(px) for x in px]
        py = [rng.random() for _ in range(sy)]
        py = [y / sum(py) for y in py]
        joint = [x * y for x in px for y in py]
        hx = entropy.quadratic_entropy(px)
        hy = entropy.quadratic_entropy(py)
        hxy = entropy.quadratic_entropy(joint)
        assert abs(hxy - (hx + hy - hx * hy)) < 1e-12


def test_chain_rule_randomized_alpha_grid():
    rng = random.Random(13)
    for _ in range(200):
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
        raw = [[rng.random() for _ in range(cols)] for _ in range(rows)]
        tot = sum(sum(r) for r in raw)
        joint = [[x / tot for x in r] for r in raw]
        for alpha in (0.5, 1, 2, 3):
            assert entropy.check_chain_rule(joint, alpha)


def test_log2_int_exact_and_large():
    assert entropy.log2_int(1) == 0
    assert entropy.log2_int(2**100) == 100
    m = 3**500
    # cross-check against fractional decomposition of a known value
    assert abs(entropy.log2_int(m) - 500 * math.log2(3)) < 1e-9
    with pytest.raises(ValueError):
        entropy.log2_int(0)


def test_asymptotic_constant_cases():
    qinv_euler = qcomb.pochhammer_inf(0.5, 0.5)
    # all parts infinite
    got = entropy.asymptotic_constant([math.inf, math.inf], 2)
    assert abs(got - 1 / qinv_euler) < 1e-12
    # single infinite part: empty adjustment
    assert entropy.asymptotic_constant([math.inf], 2) == 1.0
    # one finite limit d
    d = 3
    got = entropy.asymptotic_constant([math.inf, d], 2)
    want = qcomb.pochhammer_inf(2.0 ** -(d + 1), 0.5) / qinv_euler
    assert abs(got - want) < 1e-12


def test_round_to_type():
    assert entropy.round_to_type([0.5, 0.5], 7) in ([4, 3], [3, 4])
    parts = entropy.round_to_type([0.58333, 0.33334, 0.08333], 60)
    assert sum(parts) == 60
    assert parts == [35, 20, 5]


def test_multinomial_asymptotics_examples():
    rows = entropy.check_multinomial_asymptotics([1.0], [5, 50])
    assert all(r == 0 and t == 0 for _, r, t in rows)
    rows = entropy.check_multinomial_asymptotics([0.5, 0.5], [64, 1024])
    assert abs(rows[0][1] - math.log(2)) < 0.08
    assert abs(rows[1][1] - math.log(2)) < 0.006
    # convergence is monotone on this doubling ladder
    rates = [r for _, r, _ in entropy.check_multinomial_asymptotics([0.5, 0.5], [16, 64, 256, 1024])]
    assert rates == sorted(rates)


def test_qmultinomial_asymptotics_examples():
    rows = entropy.check_qmultinomial_asymptotics([1.0], 2, [4, 40])
    assert all(r == 0 and t == 0 for _, r, t in rows)
    rows = entropy.check_qmultinomial_asymptotics([0.5, 0.5], 2, [40])
    assert abs(rows[0][1] - 0.5) < 0.05
    rows = entropy.check_qmultinomial_asymptotics([0.25, 0.75], 2, [40])
    assert abs(rows[0][1] - 0.375) < 0.01
    assert abs(rows[0][2] - 0.375) < 1e-12


def test_theorem_ratio_approaches_one():
    # exact numerator over C * q^(n^2 H2 / 2) for a proportional split
    q = 2
    n = 40
    parts = [n // 2, n // 2]
    const = entropy.asymptotic_constant([math.inf, math.inf], q)
    log_ratio = (
        entropy.log_q_int(qcomb.q_multinomial(parts, q), q)
        - math.log(const) / math.log(q)
        - (n * n - sum(k * k for k in parts)) / 2.0
    )
    assert abs(q**log_ratio - 1.0) < 0.02


def test_h2_maximized_by_uniform_on_simplex_grid():
    best = -1.0
    argmax = None
    steps = 100
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            p = [i / steps, j / steps, (steps - i - j) / steps]
            h = entropy.quadratic_entropy(p)
            if h > best:
                best, argmax = h, p
    assert argmax is not None
    assert max(abs(x - 1 / 3) for x in argmax) < 0.01
    assert best <= entropy.quadratic_entropy([1 / 3] * 3) + 1e-12


def test_asymptotics_reject_n_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            entropy.check_multinomial_asymptotics([0.5, 0.5], [4, n])
        with pytest.raises(ValueError, match="n must be >= 1"):
            entropy.check_qmultinomial_asymptotics([0.5, 0.5], 2, [4, n])
