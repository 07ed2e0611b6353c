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
rng.randrange(q) returns on the running interpreter, in order; at q < 256 a
step reads its m coordinates from getrandbits in bulk (`_coordinates`),
which gives those values without calling randrange.  A growth step at
codim 0, where V_m = F_q^m, draws none: every dilation of F_q^m is
F_q^(m+1).
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

import functools
import random
from collections import namedtuple

from .gf import _Annihilator, dilations, format_subspace, zero_subspace
from .qdist import QBinomialParams, bernoulli_chain


class ProcessState(namedtuple("ProcessState", "step current")):
    __slots__ = ()

    def __new__(cls, step, current):
        if current.ambient_dim != step:
            raise ValueError(f"ambient dimension {current.ambient_dim} != step {step}")
        return super().__new__(cls, step, current)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the fields too
        return cls(*fields)


class Trajectory(namedtuple("Trajectory", "q theta seed final history", defaults=(None,))):
    __slots__ = ()


def substream(rng, label):
    """Reseed rng to the substream of label: the state of random.Random(label)."""
    rng.seed(label)


# For q < 256, rng.randrange(q) is getrandbits(k), k = q.bit_length() <= 8,
# with the values >= q rejected: the top k bits of one 32-bit Mersenne
# Twister word, that is, of its top byte b.  One translate table per q, built
# on first use, maps b to b >> (8 - k) (over F_2 to that bit's ASCII digit,
# for int(., 2)) and deletes the rejected bytes.
@functools.cache
def _top_byte_table(q):
    shift, zero = 8 - q.bit_length(), ord("0") if q == 2 else 0
    values = [b >> shift for b in range(256)]
    return (
        bytes(zero + v if v < q else 0 for v in values),
        bytes(b for b, v in enumerate(values) if v >= q),
    )


def _coordinates(rng, m, q):
    """The next m values of rng.randrange(q), 2 <= q < 256, read from
    getrandbits in bulk: over F_2 the bits of one int, most significant
    first, else one bytes object.

    getrandbits(32 * w) holds the next w words, the first in the low bits,
    so its little-endian bytes 3, 7, ... are their top bytes in draw order.
    At q > 2 the step draws c after the coordinates, so a read takes exactly
    the words still missing; over F_2 nothing follows, and a read takes
    2 * missing + 8 words, so that one read almost always suffices.
    """
    table, rejected = _top_byte_table(q)
    drawn = b""
    while len(drawn) < m:
        words = m - len(drawn)
        if q == 2:
            words = 2 * words + 8
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        drawn += top.translate(table, rejected)
    return int(drawn[:m] or b"0", 2) if q == 2 else drawn


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
    Step m + 1 draws the m coordinates of x as rng.randrange(q) would,
    read in bulk at q < 256 (`_coordinates`), and its last, c, by
    rng.randrange(1, q); over F_2 x is packed into one int, and c, always
    1, is not drawn, since the next step reseeds the generator.  At q = 3,
    n = 32 and theta = 1 the draws of a trajectory (19 dilations, m ~ 16)
    took 61-90 us read in bulk against 127-179 us by randrange (2-vCPU VM,
    Python 3.11.7).  At codim 0 (V_m = F_q^m) a growth step
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
                state.dilate(_coordinates(rng, m, 2), 1)
            else:
                x = _coordinates(rng, m, q) if q < 256 else [rng.randrange(q) for _ in range(m)]
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
    import fractions  # no process step needs it; ~3 ms to load

    t = fractions.Fraction(theta)
    law = {zero_subspace(0, field): fractions.Fraction(1)}
    q = field.q
    for m in range(n):
        p_grow = t * q**m / (1 + t * q**m)
        nxt = {}
        for v, prob in law.items():
            stay = prob * (1 - p_grow)
            if stay:
                w = v.embedded(1)
                nxt[w] = nxt.get(w, fractions.Fraction(0)) + stay
            if p_grow:
                dils = dilations(v)
                share = prob * p_grow / len(dils)
                for w in dils:
                    nxt[w] = nxt.get(w, fractions.Fraction(0)) + share
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
