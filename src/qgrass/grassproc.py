"""The Grassmannian process {V_n}.

V_0 is the trivial space; at step n the dimension grows by one with
probability theta q^(n-1) / (1 + theta q^(n-1)), in which case V_n is a
uniform dilation of V_{n-1}; otherwise V_n is V_{n-1} embedded (append a
zero coordinate).

`growth_steps` draws the growth decisions against the factors of one
chain, `qdist.bernoulli_chain`, and `simulate`, which builds that chain
once per trajectory, is the one transition.  Simulation is deterministic
given a root seed: step m draws from its own substream, labelled
"<seed>/step/<m>", so trajectories can be replicated or parallelized
without sharing RNG state.  This module runs in one process; the CLI's
histogram counts contiguous blocks of its samples in forked processes
(`cli._histogram_counts`), with the same counts as one process.  A chain
reseeds one generator per step, which gives the same stream as a fresh
random.Random(label).  A dilation's coordinates are the values that
rng.randrange(q) returns on the running interpreter, in order; over F_2 a
step reads its m coordinates in one pass (`_f2_coordinates`), which gives
those values without calling randrange.  A growth step at codim 0, where
V_m = F_q^m, draws none: every dilation of F_q^m is F_q^(m+1).
dim V_n is the number of growth decisions, so a caller that needs only the
dimension runs `growth_steps` alone, over one chain for all its samples,
and draws no dilation.

`simulate` keeps its state V_m as the annihilator V_m^perp
(gf._Annihilator), one vector per free column of V_m's RREF: a step
without growth appends one vector, and a growth step takes one inner
product per free column.  A step then costs O(codim V_m), not the
O(dim V_m) row steps of eliminating each dilation against V_m's rows.  For
a fixed theta the law of codim V_n tends to the mu table, which does not
depend on n, so on typical paths the codimension stays O(1) while the
dimension grows like n.

The law of V_n, per subspace and per codimension class, lives in `qdist`.
The one law computed here is `outcome_tree_law`, an independent
re-derivation by exhaustive expansion that the closed form is checked
against.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .gf import Subspace, _Annihilator, dilations, format_subspace, zero_subspace
from .qdist import QBinomialParams, bernoulli_chain


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


def substream(rng, label):
    """Reseed rng to the substream of label: the state of random.Random(label)."""
    rng.seed(label)


# rng.randrange(2) is getrandbits(2), the top two bits of one 32-bit
# Mersenne Twister word, with 2 and 3 rejected: a word whose top byte is
# below 0x40 draws 0, below 0x80 draws 1, and from 0x80 on draws nothing.
_F2_TOP_BYTE = bytes(ord("01"[b >> 6 & 1]) for b in range(256))
_F2_REJECTED = bytes(range(0x80, 0x100))


def _f2_coordinates(rng, m):
    """The next m values of rng.randrange(2), most significant first, as
    the bits of one int, read from getrandbits in bulk.

    getrandbits(32 * w) holds the next w words, the first in the low bits,
    so its little-endian bytes 3, 7, ... are their top bytes in draw order.
    A read may take more words than the m draws use.
    """
    bits = b""
    while len(bits) < m:
        words = 2 * (m - len(bits)) + 8
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        bits += top.translate(_F2_TOP_BYTE, _F2_REJECTED)
    return int(bits[:m] or b"0", 2)


def growth_steps(chain, seed):
    """The growth decisions of one chain, its factors p_1..p_n.

    Yields, for each step m + 1 <= n, that step's substream, just after its
    growth draw, if V grows there (the draw is below p_(m+1)), else None.
    The chain reseeds one generator, so draw from a yielded substream
    before the next step.
    """
    # Random.__new__ skips the OS seeding of random.Random(); every step
    # reseeds the generator before it draws.
    rng = random.Random.__new__(random.Random)
    prefix = f"{seed}/step/"
    for m, p in enumerate(chain):
        substream(rng, prefix + str(m + 1))
        yield rng if rng.random() < p else None


def simulate(n, theta, field, seed, keep_history=False):
    """Run the process to time n; deterministic given the seed.

    The growth decisions are `growth_steps` over one chain, built once by
    `qdist.bernoulli_chain` from QBinomialParams, which refuses a negative
    n and a negative or NaN theta.  The state is V_m^perp
    (gf._Annihilator): a step without growth appends a zero coordinate, and
    a growth step adds the dilation (x, c) by one inner product per free
    column of V_m, so its cost grows with codim V_m.  Dilations stay
    uniform because span(w, x) does not depend on the basis chosen for w.
    Step m + 1 draws the m coordinates of x by rng.randrange(q) and its
    last, c, by rng.randrange(1, q); over F_2 the m are read in one pass
    and packed into one int, and c, always 1, is not drawn, since the next
    step reseeds the generator.  At codim 0 (V_m = F_q^m) a growth step
    draws neither, since span(F_q^m x 0, (x, c)) = F_q^(m+1) for every x
    and every c != 0; codim V_m never falls, so these are the growth steps
    before the first step without growth.  The history reads V_m's RREF
    from the state after each growth step and embeds the previous snapshot
    after a step without growth.  Over F_2 a snapshot is its packed rows:
    simulate(64, 1, F_2, 7) took 2.0 ms with its history against 1.0 ms
    without.

    Where codim > dim, roughly theta < q^(-n/2), this state is the dearer
    one.  Over F_2 at n = 64 and theta = 1e-12 (codim ~40) a trajectory and
    its record took 1.07 ms against 0.94 ms with each dilation inserted into
    a gf.Echelon state, and 2.91 ms against 1.36 ms with its history
    (medians of 7 alternating runs on a 2-vCPU VM, Python 3.11.7).
    """
    q = field.q
    chain = bernoulli_chain(QBinomialParams(n, theta, q))
    state = _Annihilator(field, n)
    grown = 0
    history = [ProcessState(0, zero_subspace(0, field))] if keep_history else None
    for m, rng in enumerate(growth_steps(chain, seed)):
        if rng is None:
            state.embed()
        else:
            grown += 1
            if not state.free:  # V_m = F_q^m: every dilation is F_q^(m+1)
                state.dilate(0, 1)
            elif q == 2:
                state.dilate(_f2_coordinates(rng, m), 1)
            else:
                x = [rng.randrange(q) for _ in range(m)]
                state.dilate(x, rng.randrange(1, q))
        if keep_history:
            v = history[-1].current.embedded(1) if rng is None else state.subspace()
            history.append(ProcessState(m + 1, v))
    final = ProcessState(n, state.subspace())
    assert final.current.dim == grown
    return Trajectory(
        q, theta, seed, final, tuple(history) if keep_history else None
    )


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
