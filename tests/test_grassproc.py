import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from oracles import exact_pmf_fraction, pmf_fraction
from qgrass import cli, gf, grassproc, qcomb, qdist
from qgrass.entropy import log_q_int

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
    # theta q^i overflows to inf past step 1: the step still grows surely
    for seed in range(5):
        assert grassproc.simulate(5, 1e308, F2, seed).final.current.dim == 5


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


def test_simulate_dimension_law():
    assert grassproc.simulate(0, 5.0, F2, seed=0).final.current.dim == 0
    # dimension TV of 20,000 draws of V_5 against the exact law; the bound is
    # the TV's mean plus 6 sd for a correct sampler at this N, computed from
    # the exact law as criterion 5 does for the subspace TV
    n, n_draws = 5, 20_000
    counts = Counter(
        grassproc.simulate(n, 1.0, F2, seed=f"dim:{i}").final.current.dim
        for i in range(n_draws)
    )
    tv = tv_mean = tv_var = 0.0
    for k in range(n + 1):
        p = float(pmf_fraction(k, n, 1, 2))
        spread = p * (1 - p) / n_draws
        tv += abs(counts[k] / n_draws - p)
        tv_mean += math.sqrt(2 * spread / math.pi)
        tv_var += (1 - 2 / math.pi) * spread
    tv, tv_mean, tv_sd = 0.5 * tv, 0.5 * tv_mean, 0.5 * math.sqrt(tv_var)
    assert tv < tv_mean + 6 * tv_sd, (tv, tv_mean, tv_sd)


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


def _replayed_growth(n, theta, q, seed):
    """Fresh random.Random per step label; the first draw of each decides."""
    grown = []
    for m in range(1, n + 1):
        rng = random.Random(f"{seed}/step/{m}")
        p = theta * q ** (m - 1) / (1.0 + theta * q ** (m - 1))
        grown.append(rng if rng.random() < p else None)
    return grown


@pytest.mark.parametrize("q", [2, 3, 16])
def test_growth_steps_replays_substreams(q):
    field = gf.FieldSpec(q)
    for n in (0, 1, 6, 24, 64):
        for theta in (0, 1 / 256, 1, 1e6):
            for seed in (0, 7, "s:3"):
                chain = qdist.bernoulli_chain(qdist.QBinomialParams(n, theta, q))
                steps = list(grassproc.growth_steps(chain, seed))
                replay = _replayed_growth(n, theta, q, seed)
                assert len(steps) == n
                grown = sum(rng is not None for rng in steps)
                dim = grassproc.simulate(n, theta, field, seed).final.current.dim
                assert grown == dim == sum(rng is not None for rng in replay)
                assert [rng is None for rng in steps] == [rng is None for rng in replay]
    # the basis of simulate equals the rref of dilations replayed from fresh
    # generators: each grown step's substream goes on with its randrange draws
    for n, theta, seed in ((6, 1, 11), (8, 0.5, "b")):
        rows = []
        for m, rng in enumerate(_replayed_growth(n, theta, q, seed)):
            if rng is not None:
                row = [rng.randrange(q) for _ in range(m)] + [rng.randrange(1, q)]
                rows.append(row + [0] * (n - m - 1))
        traj = grassproc.simulate(n, theta, field, seed)
        assert traj.final.current == gf.rref(rows, n, field)


class _CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    reads = 0

    def getrandbits(self, k):
        self.reads += 1
        return super().getrandbits(k)


def test_f2_bulk_draw_matches_randrange():
    # The F_2 dilation draw reads getrandbits in bulk; its values must be
    # those of randrange(2) on the running interpreter.  A change of
    # CPython's random internals fails here, not in a golden.
    sizes = (0, 1, 2, 3, 7, 63, 64, 200, 1100)
    extra_reads = 0
    for case in range(20_007):
        m = sizes[case % len(sizes)]
        seed = f"bulk/{case}"
        ref = random.Random(seed)
        want = [ref.randrange(2) for _ in range(m)]
        rng = _CountingRandom(seed)
        x = grassproc._coordinates(rng, m, 2)
        assert [x >> (m - 1 - j) & 1 for j in range(m)] == want, (seed, m)
        assert x >> m == 0
        extra_reads += rng.reads > 1
    assert extra_reads > 0  # the branch that reads more words ran


def test_fq_bulk_draw_matches_randrange():
    # At 2 < q < 256 the dilation draw reads getrandbits in bulk, exactly
    # the words its m values take: the values, and the c = randrange(1, q)
    # and the random() drawn after them, must be those of randrange on the
    # running interpreter.  Every q, prime power or not, takes its own table.
    extra_reads = 0
    for q in range(3, 256):
        for m in (0, 1, 2, 7, 31, 63):
            for seed in (f"fq/{q}/{m}", q * 64 + m, f"{q}/step/{m + 1}"):
                ref = random.Random(seed)
                want = [ref.randrange(q) for _ in range(m)]
                want += [ref.randrange(1, q), ref.random()]
                rng = _CountingRandom(seed)
                got = list(grassproc._coordinates(rng, m, q))
                extra_reads += rng.reads > 1
                assert got + [rng.randrange(1, q), rng.random()] == want, (seed, m, q)
    assert extra_reads > 0  # the branch that reads more words ran
    # q = 257 > 255 draws by randrange: the basis is the rref of dilations
    # replayed from fresh generators, some of them grown at codim >= 1
    field = gf.FieldSpec(257)
    for n, theta, seed in ((12, 2**-40, 3), (24, 2**-80, "r")):
        rows, stayed, drawn = [], False, 0
        for m, rng in enumerate(_replayed_growth(n, theta, 257, seed)):
            stayed |= rng is None
            if rng is not None:
                drawn += stayed
                row = [rng.randrange(257) for _ in range(m)] + [rng.randrange(1, 257)]
                rows.append(row + [0] * (n - m - 1))
        assert drawn
        assert grassproc.simulate(n, theta, field, seed).final.current == gf.rref(rows, n, field)


@pytest.mark.parametrize("n", [1, 6, 24, 64])
def test_simulate_f2_history_matches_reference(n, echelon_reference):
    # theta = 2^-40 holds codim > dim over F_2 up to n = 64; seed 5 at
    # theta = 1 grows at codim 1 over F_2, with x in V_m and with x outside it
    # 8, 127, 25, 27 and 131 run each kind of byte row step of the state
    # (XOR, add and mod-p translate up to p = 127, entry by entry), a few
    # hundred times each at n <= 24
    f2_kinds = set()  # (codim V_m, x in V_m) of the F_2 growth steps at codim >= 1
    for q in (2, 3, 4, 8, 9, 16, 25, 27, 127, 131, 251):
        if n > 24 and q in (8, 25, 27, 127, 131):
            continue
        field = gf.FieldSpec(q)
        for theta in (0, 2**-40, 1 / 256, 1, 1e6):
            for seed in (0, "h", 5) if q == 2 else (0, "h"):
                traj = grassproc.simulate(n, theta, field, seed, keep_history=True)
                # the span of the dilations drawn so far, in F_q^(m + 1) at step m + 1
                echelon = echelon_reference(field)
                for m, rng in enumerate(_replayed_growth(n, theta, q, seed)):
                    echelon.widen()
                    if rng is not None:
                        x = [rng.randrange(q) for _ in range(m)]
                        v = traj.history[m].current
                        if q == 2 and m > v.dim:
                            f2_kinds.add((m - v.dim, v.contains_vector(x)))
                        echelon.insert(x + [rng.randrange(1, q)])
                    state = traj.history[m + 1]
                    assert state.step == m + 1
                    assert (state.current.basis, state.current.pivot_cols) == echelon.state()
                assert len(traj.history) == n + 1
                assert traj.history[-1] == traj.final
                assert grassproc.simulate(n, theta, field, seed).final == traj.final
    if n > 1:
        assert {(1, True), (1, False)} <= f2_kinds
    codim = 64 - grassproc.simulate(64, 2**-40, F2, 0).final.current.dim
    assert codim > 64 - codim


def test_simulate_state_is_the_annihilator(monkeypatch, reference_field):
    # after every step the state holds one vector u_f per free column f of
    # V's RREF, k - dim V of them at step k: -1 at f, 0 at the other free
    # columns and past f, and orthogonal to every basis row of V.  u_f is
    # an int over F_2, bytes for 2 < q < 256 and a list from q = 257 on.
    embed, dilate, read = gf._Annihilator.embed, gf._Annihilator.dilate, gf._Annihilator.subspace
    refs = {}
    shapes = Counter()
    kinds = set()

    def check(state):
        v = read(state)
        ref = refs[state.field.q]
        minus = ref.difference[0]
        k, n = state.k, state.n
        assert len(state.cols) == len(state.free) == k - v.dim
        assert sorted(state.free + state.pivots) == list(range(k))
        assert tuple(state.pivots) == v.pivot_cols
        types = {type(u) for u in state.cols}
        assert types <= {int if ref.q == 2 else bytes if ref.q < 256 else list}
        kinds.update(types)
        for f, u in zip(state.free, state.cols):
            if ref.q == 2:
                u = [u >> (n - 1 - j) & 1 for j in range(n)]
            assert len(u) == n and not any(u[f + 1 :])
            assert [u[j] for j in state.free] == [minus[1] if j == f else 0 for j in state.free]
            for row in v.basis:
                dot = 0
                for a, b in zip(u, row):
                    dot = ref.difference[dot][minus[ref.product[a][b]]]
                assert dot == 0, (k, f, row)
        shapes[v.dim > k - v.dim] += 1

    def checked_embed(state):
        embed(state)
        check(state)

    def checked_dilate(state, x, c):
        dilate(state, x, c)
        check(state)

    monkeypatch.setattr(gf._Annihilator, "embed", checked_embed)
    monkeypatch.setattr(gf._Annihilator, "dilate", checked_dilate)
    for q in (2, 3, 4, 9, 16, 257):
        field = gf.FieldSpec(q)
        refs[q] = reference_field(field)
        for n, theta in ((24, 1), (24, 1 / 256), (32, 2**-24), (12, 1e6)):
            for seed in (0, 1):
                grassproc.simulate(n, theta, field, seed)
    assert shapes[True] and shapes[False]  # dim > codim and codim >= dim both ran
    assert kinds == {int, bytes, list}


def test_simulate_builds_no_echelon(monkeypatch):
    # simulate carries the annihilator alone, with or without history: it
    # builds no echelon state and calls no rref
    def no_echelon(*args, **kwargs):
        raise AssertionError("an echelon state was built")

    monkeypatch.setattr(gf.Echelon, "__init__", no_echelon)
    monkeypatch.setattr(gf, "rref", no_echelon)
    for q in (2, 3, 16):
        for keep_history in (False, True):
            traj = grassproc.simulate(64, 1, gf.FieldSpec(q), 3, keep_history=keep_history)
            assert traj.final.current.dim > 32


def test_simulate_row_steps_bytes_below_256(monkeypatch):
    # for 2 < q < 256 the state's columns are bytes and every row step is a
    # byte step: simulate never calls the entry-list kernel gf._row_step
    def no_row_step(*args, **kwargs):
        raise AssertionError("an entry-list row step ran")

    minus = gf._Annihilator._minus
    steps = Counter()

    def counted(state, u, a, ug):
        steps[state.field.q] += 1
        return minus(state, u, a, ug)

    monkeypatch.setattr(gf, "_row_step", no_row_step)
    monkeypatch.setattr(gf._Annihilator, "_minus", counted)
    # at theta = 1 codim V stays near 0 and row steps are rare over F_16;
    # theta = 1/256 holds it higher
    for q in (3, 16):
        for theta in (1, 1 / 256):
            for keep_history in (False, True):
                for seed in range(4):
                    grassproc.simulate(64, theta, gf.FieldSpec(q), seed, keep_history=keep_history)
    assert steps[3] and steps[16]


def _raise(*args, **kwargs):
    raise AssertionError("a dilation coordinate was drawn")


@pytest.mark.parametrize("q", [2, 3, 16])
def test_growth_at_codim_0_reads_nothing(q, monkeypatch):
    field = gf.FieldSpec(q)
    # theta = 1: a growth step reads its coordinates once where V_m != F_q^m.
    # codim V_m never falls, so the steps at codim 0 are the growth steps
    # before the first step without growth.
    skipped = read = 0
    for seed in range(8):
        history = grassproc.simulate(64, 1, field, seed, keep_history=True).history
        dims = [st.current.dim for st in history]
        drawn = sum(b > a < m for m, (a, b) in enumerate(zip(dims, dims[1:])))
        skipped += dims[-1] - drawn
        reads = []
        with monkeypatch.context() as patch:
            if q == 2:
                coordinates = grassproc._coordinates
                patch.setattr(grassproc, "_coordinates",
                              lambda rng, m, *rest: reads.append(m) or coordinates(rng, m, *rest))
            else:
                randrange = random.Random.randrange

                def counted(rng, start, stop=None):
                    if stop is not None:  # randrange(1, q): c, the last draw of a step
                        reads.append(start)
                    return randrange(rng, start, stop)

                patch.setattr(random.Random, "randrange", counted)
            final = grassproc.simulate(64, 1, field, seed).final
        assert final == history[-1] and len(reads) == drawn
        read += drawn
    assert skipped and read  # growth steps at codim 0 and at codim >= 1 both ran
    # theta = 1e6: every step grows, so V_m = F_q^m at every step and no
    # step draws a coordinate
    monkeypatch.setattr(grassproc, "_coordinates", _raise)
    monkeypatch.setattr(random.Random, "randrange", _raise)
    for seed in range(3):
        assert grassproc.simulate(64, 1e6, field, seed).final.current == gf.full_space(64, field)


@pytest.mark.parametrize("q", [2, 16])
def test_trajectory_builds_no_basis_view(q, monkeypatch, capsys):
    # in characteristic 2 a trajectory's text is written from the form its
    # builder held (F_2: packed rows, F_16: entries): neither simulate nor
    # the CLI unpacks a packed row into its entries
    argv = ["simulate", "--n", "24", "--theta", "1", "--q", str(q), "--seed", "5", "--samples", "3"]
    field = gf.FieldSpec(q)
    want = [cli.main(argv + flags) or capsys.readouterr().out for flags in ([], ["--keep-history"])]
    records = [grassproc.trajectory_record(grassproc.simulate(64, theta, field, 1, keep_history=True))
               for theta in (2**-40, 1)]

    def no_view(*args):
        raise AssertionError("a basis view was built")

    monkeypatch.setattr(gf, "_entry_rows", no_view)
    for flags, out in zip(([], ["--keep-history"]), want):
        assert cli.main(argv + flags) == 0
        assert capsys.readouterr().out == out
    for theta, rec in zip((2**-40, 1), records):
        traj = grassproc.simulate(64, theta, field, 1, keep_history=True)
        assert grassproc.trajectory_record(traj) == rec


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
    assert exact_pmf_fraction(0, 1, 1, 2) == Fraction(1, 2)
    # sum over all of Gr(3) is exactly 1 in rationals
    total = Fraction(0)
    for k in range(4):
        nk = qcomb.q_binomial(3, k, 2)
        total += nk * exact_pmf_fraction(k, 3, Fraction(1), 2)
    assert total == 1
    # corollary: class mass equals the q-binomial pmf
    for k in range(4):
        lhs = qcomb.q_binomial(3, k, 2) * exact_pmf_fraction(k, 3, 1, 2)
        assert lhs == pmf_fraction(k, 3, 1, 2)
        rhs = qdist.pmf(k, qdist.QBinomialParams(3, 1.0, 2))
        assert abs(float(lhs) - rhs) < 1e-12


def test_outcome_tree_reproduces_law_small():
    # brute-force re-proof of the subspace law at n <= 3
    for field, q in ((F2, 2), (F3, 3)):
        for theta in (Fraction(1, 2), Fraction(1), Fraction(2)):
            law = grassproc.outcome_tree_law(3, theta, field)
            assert sum(law.values()) == 1
            for v, pr in law.items():
                assert pr == exact_pmf_fraction(v.dim, 3, theta, q)
            # every subspace of F_q^3 received mass
            assert len(law) == sum(qcomb.q_binomial(3, k, q) for k in range(4))


def test_outcome_tree_dim_marginal_is_qbinomial():
    law = grassproc.outcome_tree_law(4, Fraction(1, 2), F2)
    marg = {}
    for v, pr in law.items():
        marg[v.dim] = marg.get(v.dim, Fraction(0)) + pr
    for k in range(5):
        assert marg[k] == pmf_fraction(k, 4, Fraction(1, 2), 2)


def test_log_pmf_by_codim_matches_direct_log():
    def exact_log(k, n, theta):
        pr = exact_pmf_fraction(k, n, Fraction(theta), 2)
        return log_q_int(pr.numerator, 2) - log_q_int(pr.denominator, 2)

    for n in (5, 12, 25, 40):
        for theta in (0.5, 1.0, 2.0):
            for d in range(min(n, 7)):
                a = qdist.log_pmf_by_codim(d, n, theta, 2)
                assert abs(a - exact_log(n - d, n, theta)) < 1e-9, (n, theta, d)
    # d = n: theta-free endpoint
    a = qdist.log_pmf_by_codim(5, 5, 1.0, 2)
    assert abs(a - exact_log(0, 5, 1.0)) < 1e-9


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
        p = float(exact_pmf_fraction(k, 3, Fraction(1), 2))
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
