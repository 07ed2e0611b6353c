"""Quadratic-entropy maximization under mean-energy and normalization
constraints, plus the finite-n verification against exact flag counts.

The objective 1 - sum g_i^2 is strictly concave, so the constrained
maximizer is unique; on the active support it is affine in the energies,
g_i = a + b E_i, which reduces the solve to a 2x2 linear system plus
active-set clamping of negative coordinates.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .entropy import log_q_int, quadratic_entropy, round_to_type
from .qcomb import q_multinomial

KKT_TOL = 1e-10


@dataclass(frozen=True)
class EnergyModel:
    energies: tuple
    target_mean: float

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        if not self.energies:
            raise ValueError("at least one energy level is required")
        if not all(map(math.isfinite, self.energies)):
            raise ValueError(f"energies must be finite, got {self.energies}")
        if not min(self.energies) <= self.target_mean <= max(self.energies):
            raise ValueError(
                f"target mean {self.target_mean} outside the feasible range "
                f"[{min(self.energies)}, {max(self.energies)}]"
            )


@dataclass(frozen=True)
class MaxEntSolution:
    probs: tuple
    multipliers: tuple  # (a, b): g_i = a + b E_i on the active support
    active_support: tuple


def energies_from_telescoped(tilde_energies):
    """Convert telescoped increments back to level energies.

    With E_{m+1} = 0 and tilde E_i = E_i - E_{i+1}, the inverse is the
    reversed cumulative sum E_i = sum_{j >= i} tilde E_j.
    """
    out = []
    acc = 0.0
    for t in reversed(list(tilde_energies)):
        acc += float(t)
        out.append(acc)
    return list(reversed(out))


def _solve_on_support(energies, support, target):
    """Affine coefficients (a, b) from the Lagrange conditions on a support."""
    m = len(support)
    s1 = sum(energies[i] for i in support)
    s2 = sum(energies[i] ** 2 for i in support)
    det = m * s2 - s1 * s1
    if abs(det) < 1e-14 * max(1.0, s2, s1 * s1):
        # all energies on the support coincide: single constraint, uniform;
        # the mean constraint must already be met or the active set broke
        assert abs(s1 / m - target) < 1e-9 * max(1.0, abs(target)), (
            "degenerate support incompatible with the target mean"
        )
        return 1.0 / m, 0.0
    a = (s2 - s1 * target) / det
    b = (m * target - s1) / det
    return a, b


def solve(model, tol=KKT_TOL):
    """Unique maximizer of 1 - sum g^2 over the constrained simplex.

    Equality-constrained quadratic solve with active-set clamping: clamp
    the most negative coordinate to zero and re-solve, at most m rounds.
    """
    energies = model.energies
    m = len(energies)
    support = list(range(m))
    while True:
        a, b = _solve_on_support(energies, support, model.target_mean)
        g = [0.0] * m
        for i in support:
            g[i] = a + b * energies[i]
        worst = min(support, key=lambda i: g[i])
        if g[worst] >= -tol:
            break
        if len(support) == 1:
            raise AssertionError("active set emptied; infeasible model slipped through")
        support.remove(worst)
    g = [max(0.0, x) for x in g]
    # KKT: off-support the affine form must not be positive
    for i in range(m):
        if i not in support and a + b * energies[i] > tol:
            raise AssertionError("KKT violation: clamped coordinate wants mass")
    return MaxEntSolution(tuple(g), (a, b), tuple(sorted(support)))


def _integer_types_near(center, n, radius):
    """Integer types with sum n within L1 distance `radius` of `center`."""
    m = len(center)
    out = []
    spans = []
    for c in center:
        lo = max(-c, -radius)
        spans.append(range(lo, radius + 1))
    for offs in itertools.product(*spans):
        if sum(offs) != 0:
            continue
        if sum(abs(o) for o in offs) > radius:
            continue
        out.append(tuple(c + o for c, o in zip(center, offs)))
    return out


def finite_n_check(model, n, q, radius=6):
    """Exhaustive neighborhood check of the continuous optimum at finite n.

    Rounds n*g to an integer type, enumerates all types in an L1 ball that
    satisfy the constraints as tightly as possible (exact Fractions; the
    feasible set is the minimal-deviation shell, which is the exact
    constraint set whenever it is attainable), and confirms the rounded
    optimum attains the largest exact q-multinomial.  Ties are reported.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    sol = solve(model)
    nominal = tuple(round_to_type(sol.probs, n))
    candidates = _integer_types_near(nominal, n, radius)
    target = Fraction(model.target_mean) * n
    energies = [Fraction(e) for e in model.energies]

    def deviation(ktype):
        return abs(sum(k * e for k, e in zip(ktype, energies)) - target)

    best_dev = min(deviation(k) for k in candidates)
    feasible = [k for k in candidates if deviation(k) == best_dev]
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
        "constraint_deviation": float(best_dev),
        "growth_rate": growth,
        "h2_continuous": quadratic_entropy(sol.probs),
    }
