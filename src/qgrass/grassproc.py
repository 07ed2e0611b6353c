"""The Grassmannian process {V_n}.

V_0 is the trivial space; at step n the dimension grows by one with
probability theta q^(n-1) / (1 + theta q^(n-1)), in which case V_n is a
uniform dilation of V_{n-1}; otherwise V_n is V_{n-1} embedded (append a
zero coordinate).

`simulate` is the one transition.  Simulation is deterministic given a root
seed: every step draws from its own substream, so trajectories can be
replicated or parallelized without sharing RNG state.

The law of V_n lives in `qdist`: the per-subspace and per-class functions
here adapt it, except for the completed-square codimension form and
`outcome_tree_law`, which re-derives the law independently as an oracle.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import qdist
from .entropy import binary_quadratic_entropy, log_q_int
from .gf import Subspace, dilations, format_subspace, rref, zero_subspace
from .qcomb import q_binomial
from .qdist import growth_prob


@dataclass(frozen=True)
class ProcessState:
    step: int
    current: Subspace

    def __post_init__(self):
        if self.current.ambient_dim != self.step:
            raise ValueError(
                f"ambient dimension {self.current.ambient_dim} != step {self.step}"
            )


@dataclass(frozen=True)
class Trajectory:
    q: int
    theta: float
    seed: object
    final: ProcessState
    history: tuple = None


def substream(seed, *path):
    """Independent deterministic RNG substream for a (seed, path) label."""
    label = str(seed) + "".join("/" + str(p) for p in path)
    return random.Random(label)


def simulate(n, theta, field, seed, keep_history=False):
    """Run the process to time n; deterministic given the seed.

    The hot path keeps a raw (not necessarily reduced) generating set and
    canonicalizes once at the end; dilations stay uniform because span(w, x)
    does not depend on the basis chosen for w.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = field.q
    rows = []  # row i created at ambient m has length m; padded at use
    history = [ProcessState(0, zero_subspace(0, field))] if keep_history else None
    for m in range(n):
        rng = substream(seed, "step", m + 1)
        if rng.random() < growth_prob(theta, q, m):
            x = [rng.randrange(q) for _ in range(m)]
            x.append(rng.randrange(1, q))
            rows.append(x)
        if keep_history:
            padded = [row + [0] * (m + 1 - len(row)) for row in rows]
            history.append(ProcessState(m + 1, rref(padded, m + 1, field)))
    padded = [row + [0] * (n - len(row)) for row in rows]
    final = ProcessState(n, rref(padded, n, field))
    assert final.current.dim == len(rows)
    return Trajectory(
        q, theta, seed, final, tuple(history) if keep_history else None
    )


def exact_pmf(v, n, theta, q):
    """Pr{V_n = v} = theta^k q^(k(k-1)/2) / (-theta; q)_n with k = dim v."""
    if v.ambient_dim != n:
        raise ValueError("subspace ambient dimension does not match n")
    if v.field.q != q:
        raise ValueError("subspace field order does not match q")
    return float(q) ** log_exact_pmf(v.dim, n, theta, q)


def log_exact_pmf(k, n, theta, q):
    """log_q Pr{V_n = v} for any fixed k-dimensional subspace."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    class_law = qdist.log_pmf(k, qdist.QBinomialParams(n, theta, q))
    return class_law - log_q_int(q_binomial(n, k, q), q)


def exact_pmf_fraction(k, n, theta, q):
    """Exact rational Pr{V_n = v} for rational theta (oracle path)."""
    return qdist.pmf_fraction(k, n, theta, q) / q_binomial(n, k, q)


def log_pmf_by_codim(d, n, theta, q):
    """log_q Pr{V_n = v} via the completed-square codimension form.

    For dim v = n - d this equals
    -(d - x0)^2/2 + x0^2/2 - (n^2/2) H_2(d/n) - log_q (-1/theta; 1/q)_n
    with x0 = 1/2 - log_q theta.
    """
    if not 0 <= d <= n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if not theta > 0:
        raise ValueError("theta must be positive")
    x0 = 0.5 - math.log(theta) / math.log(q)
    h2_term = (n * n) * binary_quadratic_entropy(d / n) / 2.0 if n else 0.0
    tail = qdist.log_q_neg_inv_pochhammer(theta, n, q)
    return -0.5 * (d - x0) ** 2 + 0.5 * x0**2 - h2_term - tail


def codim_class_log_prob(d, n, theta, q):
    """log_q Pr{V_n has codimension d} (exact coefficient, float log)."""
    return qdist.log_pmf(n - d, qdist.QBinomialParams(n, theta, q))


def codim_class_prob_fraction(d, n, theta, q):
    """Exact rational Pr{V_n in Gr(n-d, n)} for rational theta."""
    return qdist.pmf_fraction(n - d, n, theta, q)


def outcome_tree_law(n, theta, field):
    """Exact law of V_n by exhaustive expansion of the outcome tree.

    Walks every Bernoulli outcome and every uniform dilation choice with
    Fraction probabilities; feasible only at desk scale (n <= ~5).  This is
    the independent oracle against which the closed-form law is checked.
    """
    t = Fraction(theta)
    law = {zero_subspace(0, field): Fraction(1)}
    q = field.q
    for m in range(n):
        p_grow = t * q**m / (1 + t * q**m)
        nxt = {}
        for v, prob in law.items():
            stay = prob * (1 - p_grow)
            if stay:
                w = v.embedded(1)
                nxt[w] = nxt.get(w, Fraction(0)) + stay
            if p_grow:
                dils = dilations(v)
                share = prob * p_grow / len(dils)
                for w in dils:
                    nxt[w] = nxt.get(w, Fraction(0)) + share
        law = nxt
    return law


def trajectory_record(traj):
    """JSON-ready dict for a trajectory (exact ints as decimal strings)."""
    rec = {
        "schema": "qgrass/1",
        "q": traj.q,
        "theta": traj.theta,
        "seed": traj.seed,
        "final": {
            "n": traj.final.step,
            "dim": traj.final.current.dim,
            "basis": format_subspace(traj.final.current),
        },
    }
    if traj.history is not None:
        rec["history"] = [
            {
                "n": st.step,
                "dim": st.current.dim,
                "basis": format_subspace(st.current),
            }
            for st in traj.history
        ]
    return rec
