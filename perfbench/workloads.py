"""The four benchmark workloads: their inputs, their op sequences and the
checks on every op's output.

An op is one call of ``qgrass.cli.main(argv)``.  A workload's inputs are
all generated from the workload seed in ``prepare``, before any op is timed.
``check`` runs after the op's timer has stopped and returns ``"ok"``,
``"fail"`` or ``KNOWN_DEFECT``.  Ops ``i`` and ``i + pool`` share their
inputs, so a run longer than the pool repeats them.
"""

import hashlib
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import reference as ref

DEFAULT_SEED = 1
DIGEST_OPS = 100
POOL = 4096

# SHA-256 over ops 0..DIGEST_OPS-1 at DEFAULT_SEED of each op's digested
# output (the whole stdout of a path, the dimension counts of a histogram),
# as the program printed them when the benchmark was written.  Seeded draws
# are part of the program's output contract, so these must never change.
TRAJECTORY_DIGESTS = {
    "mc_histogram": "db656a58e192de0f18c0ad04fdba3452d4c06166c92b5b0f62619ca6b8734f65",
    "paths_f2": "be9ade9dff71a29980ce01bab91c282e00ab62ecc4de192d97b4b4e14b6c87ba",
    "paths_fq": "3c63002969fc56e2b59934c25b5bf533dba05b800b20c73995e06e4174494608",
}

# The q > 10 codeword defect: encode writes str(d) per base-q digit, so a
# digit of 10..15 takes two characters and the word can no longer be decoded.
KNOWN_DEFECT = "known_defect"


class Workload:
    name = ""
    field_orders = ()  # fields the set-up child builds
    round_size = 1  # runs stop only at a multiple of this many ops
    min_ops = 100  # p90 then has at least ten samples beyond it
    trace_ops = 1  # the fixed op prefix one traced pass runs

    def __init__(self):
        self.checks = Counter()  # (check name, passed) -> ops
        self.seen = 0  # ops checked for the first time so far
        self.digest = hashlib.sha256()

    def prepare(self, seed, out_dir):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, rc, out):
        first = i >= self.seen
        self.seen = max(self.seen, i + 1)
        if first and i < DIGEST_OPS:
            self.digest.update(self.digested(out).encode())
        try:
            results = self._check(i, rc, out, first)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            results = [("output_parses", False, repr(exc))]
        status = "ok"
        for name, passed, *_ in results:
            self.checks[(name, bool(passed))] += 1
            if not passed:
                status = KNOWN_DEFECT if name == KNOWN_DEFECT else "fail"
        return status

    def _check(self, i, rc, out, first):
        """List of (check name, passed) for op i."""
        raise NotImplementedError

    def digested(self, out):
        """The part of an op's output that the trajectory digest covers."""
        return out

    def finish(self, seed):
        """Run-level checks, as (check name, passed, detail)."""
        want = TRAJECTORY_DIGESTS.get(self.name)
        if want is None or seed != DEFAULT_SEED or self.seen < DIGEST_OPS:
            return []
        got = self.digest.hexdigest()
        return [("trajectory_digest", got == want, f"{got} (recorded {want})")]

    def check_lines(self):
        names = sorted({name for name, _ in self.checks})
        return [
            f"check {name}: {self.checks[(name, True)]} passed, {self.checks[(name, False)]} failed"
            for name in names
        ]


class Paths(Workload):
    """simulate with its basis, one trajectory per op; shapes cycle per op."""

    def __init__(self, name, shapes):
        super().__init__()
        self.name = name
        self.shapes = shapes
        self.field_orders = tuple(q for q, _ in shapes)
        self.round_size = len(shapes)
        self.trace_ops = 16
        self.fields = {q: ref.Field(q) for q in self.field_orders}

    def prepare(self, seed, out_dir):
        self.argvs = []
        for i in range(POOL):
            q, n = self.shapes[i % len(self.shapes)]
            s = seed * 1_000_000 + i
            self.argvs.append((q, n, s, [
                "simulate", "--n", str(n), "--theta", "1", "--q", str(q), "--seed", str(s),
            ]))

    def op(self, i):
        return self.argvs[i % POOL][3]

    def _check(self, i, rc, out, first):
        q, n, s, _ = self.argvs[i % POOL]
        rec = json.loads(out)
        final = rec["final"]
        field = self.fields[q]
        basis = field.parse(final["basis"], n)
        label = f"{s}:0"
        successes = sum(
            random.Random(f"{label}/step/{m + 1}").random() < ref.bernoulli_p(1.0, q, m)
            for m in range(n)
        )
        return [
            ("exit_code", rc == 0),
            ("header", rec["q"] == q and rec["seed"] == label and final["n"] == n),
            ("basis_is_rref", field.is_rref(basis)),
            ("dim_matches_substreams", len(basis) == final["dim"] == successes),
        ]



class Histogram(Workload):
    """simulate --histogram: 1000 dimension draws of V_6 over F_2 per op."""

    name = "mc_histogram"
    field_orders = (2,)
    trace_ops = 2
    N, SAMPLES = 6, 1000

    def prepare(self, seed, out_dir):
        self.seeds = [seed * 1_000_000 + i for i in range(POOL)]
        self.exact = ref.dim_pmf(self.N, 1, 2)
        self.pooled = [0] * (self.N + 1)

    def op(self, i):
        return [
            "simulate", "--n", str(self.N), "--theta", "1", "--q", "2",
            "--samples", str(self.SAMPLES), "--histogram", "--seed", str(self.seeds[i % POOL]),
        ]

    def _check(self, i, rc, out, first):
        rec = json.loads(out)
        counts = rec["dim_counts"]
        pmf = rec["exact_dim_pmf"]
        shape_ok = len(counts) == len(pmf) == self.N + 1
        if first and shape_ok:
            self.pooled = [a + b for a, b in zip(self.pooled, counts)]
        tv = 0.5 * sum(abs(c / self.SAMPLES - float(p)) for c, p in zip(counts, self.exact))
        return [
            ("exit_code", rc == 0),
            ("counts_sum_to_samples", shape_ok and sum(counts) == self.SAMPLES),
            ("exact_dim_pmf", shape_ok and all(
                abs(Fraction(a) - b) <= Fraction(1, 10**12) for a, b in zip(pmf, self.exact))),
            ("tv_value", abs(rec["tv"] - tv) <= 1e-12),
        ]

    def digested(self, out):
        try:
            return json.dumps(json.loads(out)["dim_counts"])
        except (ValueError, KeyError):
            return out

    def finish(self, seed):
        total = sum(self.pooled)
        if not total:
            return [("pooled_dim_tv", False, "no samples")]
        tv = 0.5 * sum(abs(c / total - float(p)) for c, p in zip(self.pooled, self.exact))
        # E[TV] <= sum_k sqrt(p_k (1 - p_k) / N) / 2, and TV moves by at most
        # 1/N per sample, so it exceeds this bound with probability < 1e-9.
        mean_bound = 0.5 * sum(math.sqrt(float(p * (1 - p)) / total) for p in self.exact)
        bound = mean_bound + math.sqrt(math.log(1e9) / (2 * total))
        return super().finish(seed) + [
            ("pooled_dim_tv", tv <= bound, f"TV {tv:.6f} over {total} draws, bound {bound:.6f}")]


class LawQueries(Workload):
    """A fixed round of eight law queries; each round trip is an encode op
    followed by a decode op of the word it produced."""

    name = "law_queries"
    field_orders = (2, 16)
    round_size = 8
    trace_ops = 16
    ROUNDS = 32  # distinct subspace pairs to encode, cycled
    min_ops = ROUNDS * round_size  # every run encodes the whole pool
    TYPICAL = [("200", "1"), ("200", "1.5")]  # (n, theta) at epsilon 0.1, q 2
    AEP = ("120", "1")
    MLE_N, MLE_SAMPLES = 64, 1000
    CODES = [(24, "1/256", 2), (6, "1", 16)]  # (n, theta, q) at epsilon 0.1

    def prepare(self, seed, out_dir):
        expected = {}
        for n, theta in self.TYPICAL + [self.AEP]:
            a_n = ref.typical_stop(int(n), "0.1", theta, 2)
            expected[(n, theta)] = (a_n, ref.typical_size(int(n), a_n, 2))
        self.expected = expected

        rng = random.Random(f"perfbench/{seed}/mle")
        ps = [ref.bernoulli_p(1.0, 2, i) for i in range(self.MLE_N)]
        samples = [sum(rng.random() < p for p in ps) for _ in range(self.MLE_SAMPLES)]
        self.mle_mean = sum(samples) / len(samples)
        self.samples_file = os.path.join(out_dir, f"mle-samples-{seed}.txt")
        with open(self.samples_file, "w") as fh:
            fh.write("\n".join(map(str, samples)) + "\n")

        self.codes = []
        for n, theta, q in self.CODES:
            field = ref.Field(q)
            a_n = ref.typical_stop(n, "0.1", theta, q)
            size = ref.typical_size(n, a_n, q)
            rng = random.Random(f"perfbench/{seed}/code/{q}")
            subspaces = []
            while len(subspaces) < self.ROUNDS:
                # only typical subspaces round-trip: the code maps the rest
                # to its reserved word by design
                basis = ref.sample_process_subspace(rng, n, float(Fraction(theta)), field)
                if n - len(basis) <= a_n:
                    subspaces.append(field.format(basis))
            self.codes.append((n, theta, q, ref.codeword_len(size, q), subspaces))
        self.words = {}

    def op(self, i):
        kind = i % self.round_size
        if kind < 2:
            n, theta = self.TYPICAL[kind]
            return ["typical", "--n", n, "--epsilon", "0.1", "--theta", theta, "--q", "2"]
        if kind == 2:
            n, theta = self.AEP
            return ["aep-check", "--n", n, "--epsilon", "0.1", "--delta", "0.5",
                    "--theta", theta, "--q", "2"]
        if kind == 3:
            return ["mle", "--n", str(self.MLE_N), "--q", "2", "--samples-file", self.samples_file]
        n, theta, q, _, subspaces = self.codes[(kind - 4) // 2]
        common = ["--n", str(n), "--epsilon", "0.1", "--theta", theta, "--q", str(q)]
        if kind % 2 == 0:
            return ["code-encode", *common, "--subspace", subspaces[(i // self.round_size) % self.ROUNDS]]
        return ["code-decode", *common, "--word", self.words.get(i - 1, "")]

    def _check(self, i, rc, out, first):
        kind = i % self.round_size
        if rc != 0:
            if kind in (5, 7):
                return self._round_trip(i, kind, None)
            return [("exit_code", False)]
        rec = json.loads(out)
        if kind < 2:
            a_n, size = self.expected[self.TYPICAL[kind]]
            return [("typical_size", rec["delta_codim"] == a_n and rec["exact_size"] == str(size))]
        if kind == 2:
            a_n, _ = self.expected[self.AEP]
            return [("aep_report", rec["a_n"] == a_n and len(rec["gaps"]) == a_n + 1
                     and isinstance(rec["pass"], bool))]
        if kind == 3:
            t = rec["theta_hat"]
            mean = sum(ref.bernoulli_p(t, 2, m) for m in range(self.MLE_N))
            return [("mle_residual", rec["samples"] == self.MLE_SAMPLES and t > 0
                     and rec["m_residual"] < 1e-9 and abs(mean - self.mle_mean) < 1e-9)]
        n, theta, q, length, subspaces = self.codes[(kind - 4) // 2]
        if kind % 2 == 0:
            self.words[i] = rec["word"]
            return [("encode_header", rec["codeword_len"] == length and rec["typical"] is True
                     and rec["input_was_canonical"] is True)]
        return self._round_trip(i, kind, rec)

    def _round_trip(self, i, kind, rec):
        n, theta, q, length, subspaces = self.codes[(kind - 4) // 2]
        word = self.words.pop(i - 1, "")
        if rec is not None and rec["subspace"] == subspaces[(i // self.round_size) % self.ROUNDS]:
            return [("round_trip", True)]
        if q > 10 and len(word) != length:
            return [(KNOWN_DEFECT, False)]
        return [("round_trip", False)]


def make(name):
    return {
        "paths_f2": lambda: Paths("paths_f2", [(2, 64)]),
        "paths_fq": lambda: Paths("paths_fq", [(3, 32), (16, 24)]),
        "mc_histogram": Histogram,
        "law_queries": LawQueries,
    }[name]()


NAMES = ("paths_f2", "paths_fq", "mc_histogram", "law_queries")
