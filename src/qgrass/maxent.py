"""Quadratic-entropy maximization under mean-energy and normalization
constraints, plus the finite-n verification against exact flag counts.

The objective 1 - sum g_i^2 is strictly concave, so the constrained
maximizer is unique; on the active support it is affine in the energies,
g_i = a + b E_i, which reduces the solve to a 2x2 linear system plus
active-set clamping of negative coordinates.  Where rounding breaks the
float active set (levels a hair apart, a mean at an extreme energy), or
squared energies overflow a double, the same active set runs in exact
rationals.
"""

import math
from collections import namedtuple

from .entropy import log_q_int, quadratic_entropy, round_to_type
from .qcomb import q_multinomial

KKT_TOL = 1e-10
DEGENERATE_DET_CUT = 1e-14
NEIGHBORHOOD_RADIUS = 6


class EnergyModel(namedtuple("EnergyModel", "energies target_mean")):
    __slots__ = ()

    def __new__(cls, energies, target_mean):
        energies = tuple(float(e) for e in energies)
        if not energies:
            raise ValueError("at least one energy level is required")
        if not all(map(math.isfinite, energies)):
            raise ValueError(f"energies must be finite, got {energies}")
        if not min(energies) <= target_mean <= max(energies):
            raise ValueError(
                f"target mean {target_mean} outside the feasible range "
                f"[{min(energies)}, {max(energies)}]"
            )
        return super().__new__(cls, energies, target_mean)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the fields too
        return cls(*fields)


class MaxEntSolution(namedtuple("MaxEntSolution", "probs multipliers active_support")):
    """multipliers is (a, b): g_i = a + b E_i on the active support."""

    __slots__ = ()


def _solve_on_support(energies, support, target, det_cut):
    """Affine coefficients (a, b) from the Lagrange conditions on a support,
    or None where its energies coincide (det below det_cut) but their mean
    misses the target: rounding has dropped a level the target needs."""
    m = len(support)
    s1 = sum(energies[i] for i in support)
    s2 = sum(energies[i] ** 2 for i in support)
    det = m * s2 - s1 * s1
    if not det or abs(det) < det_cut * max(1.0, s2, s1 * s1):
        # all energies on the support coincide: single constraint, uniform;
        # the mean constraint must already be met or the active set broke
        if not abs(s1 / m - target) < 1e-9 * max(1.0, abs(target)):
            return None
        return 1.0 / m, 0.0
    a = (s2 - s1 * target) / det
    b = (m * target - s1) / det
    return a, b


def _active_set(energies, target, tol, det_cut):
    """Clamp the most negative coordinate to zero and re-solve, at most m
    rounds, in the arithmetic of the inputs: floats, or Fractions with
    tol = det_cut = 0.  None where the result fails the KKT conditions."""
    m = len(energies)
    support = list(range(m))
    while True:
        coeffs = _solve_on_support(energies, support, target, det_cut)
        if coeffs is None:
            return None
        a, b = coeffs
        g = [0.0] * m
        for i in support:
            g[i] = a + b * energies[i]
        worst = min(support, key=lambda i: g[i])
        if g[worst] >= -tol:
            break
        support.remove(worst)
    # KKT: off-support the affine form must not be positive
    if any(a + b * energies[i] > tol for i in range(m) if i not in support):
        return None
    g = [float(max(0.0, x)) for x in g]
    return MaxEntSolution(tuple(g), (float(a), float(b)), tuple(sorted(support)))


def _meets_constraints(probs, model):
    """True iff probs sum to 1 within KKT_TOL and meet the mean within
    KKT_TOL max(1, |E_i|)."""
    scale = max(1.0, max(abs(e) for e in model.energies))
    miss = math.fsum(p * e for p, e in zip(probs, model.energies)) - model.target_mean
    return abs(math.fsum(probs) - 1.0) <= KKT_TOL and abs(miss) <= KKT_TOL * scale


def solve(model):
    """Unique maximizer of 1 - sum g^2 over the constrained simplex.

    Equality-constrained quadratic solve with active-set clamping, in float
    to KKT_TOL.  Where rounding breaks it (a support that collapses to one
    energy, or a clamped level that wants mass) or a sum of squared energies
    overflows a double, the same active set runs in exact rationals, where
    it meets the KKT conditions exactly; its probabilities and multipliers
    are rounded once at the end.
    """
    try:
        sol = _active_set(model.energies, model.target_mean, KKT_TOL, DEGENERATE_DET_CUT)
    except OverflowError:  # energies past ~1.3e154 square past the double range
        sol = None
    if sol is None or not _meets_constraints(sol.probs, model):
        import fractions  # only the exact branch needs it; ~3 ms to load

        exact = [fractions.Fraction(e) for e in model.energies]
        sol = _active_set(exact, fractions.Fraction(model.target_mean), 0, 0)
    assert sol is not None, "the exact active set fails the KKT conditions"
    return sol


def _integer_types_near(center, radius):
    """Nonnegative integer types center + o, sum(o) = 0 and |o|_1 <= radius,
    in lexicographic order of o.  A prefix of o is kept only while the L1
    budget left can bring its sum back to 0: no offset outside the ball is
    visited."""
    m = len(center)
    out = []

    def extend(i, prefix, budget, total):
        if i == m:
            if total == 0:
                out.append(tuple(c + o for c, o in zip(center, prefix)))
            return
        for o in range(max(-center[i], -budget), budget + 1):
            left = budget - abs(o)
            if abs(total + o) <= left:
                extend(i + 1, prefix + (o,), left, total + o)

    extend(0, (), radius, 0)
    return out


def finite_n_check(model, n, q):
    """Exhaustive neighborhood check of the continuous optimum at finite n.

    Rounds n*g to an integer type, enumerates all types in an L1 ball that
    satisfy the constraints as tightly as possible (exact Fractions; the
    feasible set is the minimal-deviation shell, which is the exact
    constraint set whenever it is attainable), and confirms the rounded
    optimum attains the largest exact q-multinomial.  Ties are reported.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    import fractions  # only the finite-n check needs it; ~3 ms to load

    sol = solve(model)
    nominal = tuple(round_to_type(sol.probs, n))
    candidates = _integer_types_near(nominal, NEIGHBORHOOD_RADIUS)
    # sum_i k_i E_i = n * mean, in integers over one denominator
    target = fractions.Fraction(model.target_mean) * n
    energies = [fractions.Fraction(e) for e in model.energies]
    den = math.lcm(target.denominator, *(e.denominator for e in energies))
    weights = [e.numerator * (den // e.denominator) for e in energies]
    goal = target.numerator * (den // target.denominator)
    deviations = [abs(sum(k * w for k, w in zip(ktype, weights)) - goal) for ktype in candidates]
    best_dev = min(deviations)
    feasible = [k for k, dev in zip(candidates, deviations) if dev == best_dev]
    scored = [(q_multinomial(k, q), k) for k in feasible]
    best_w = max(w for w, _ in scored)
    argmax = [k for w, k in scored if w == best_w]
    growth = 2.0 * log_q_int(best_w, q) / (n * n)
    return {
        "nominal": nominal,
        "feasible": feasible,
        "argmax": argmax,
        "ties": len(argmax) > 1,
        "nominal_is_optimal": nominal in argmax,
        "constraint_deviation": float(fractions.Fraction(best_dev, den)),
        "growth_rate": growth,
        "h2_continuous": quadratic_entropy(sol.probs),
    }
