"""Command-line interface: one subcommand per library capability.

Every subcommand is deterministic given its flags and seed (QGRASS_SEED
overrides the default seed).  Output is JSON by default, CSV for the
table-shaped commands with --format csv; exact integers are serialized as
decimal strings, never floats.  Output is buffered and written whole, so
a failing run never leaves a partial file.

`simulate --histogram` counts its samples in contiguous blocks, one per CPU
that os.sched_getaffinity allows, where they hold enough growth steps to
pay for a fork (`_BLOCK_STEPS`): this process counts the first block, and
a child made by os.fork, pinned to its own CPU, counts each other one and
leaves its counts in its own slot of one shared mmap.  Each sample draws
from its own substreams, so a block's counts do not depend on where it is
counted, and a block whose child fails is counted here: the counts, and
so the output, are the same for every CPU count.  The histogram stays in
one process below 2 * _BLOCK_STEPS steps, on one CPU, where os.fork or
os.sched_getaffinity is missing, and while a second thread runs.

Importing this module is most of what a call costs, so a call loads only
what its subcommand uses.  `fractions` (with `decimal` and `numbers`,
~3 ms) is imported by the first call that builds a Fraction: `typical`,
`aep-check`, `code-encode`, `code-decode`, `maxent --finite-n` (and a
`maxent` whose float solve misses its checks), and a theta given as a/b.
`simulate`, `qcoeff`, `mu-table`, `mle`, `growth`, `asymptotics` and
`maxent` otherwise never import it; nor `threading`, which is read only
where something else loaded it.  The benchmark's set-up (import and build
the fields, `setup_s`) reads ~0.0067 s at its reference speed.

Errors: every failure, argparse usage errors included, writes one JSON
object {"error": code, "detail": text} to stderr, nothing to stdout, and
exits with status 1.  ``main`` is the one place that maps exceptions to
codes: a ``CliError`` carries its own code (usage, bad_theta, bad_seed,
bad_subspace, bad_word, bad_samples, basis_print_guard, domain),
``ValueError`` becomes domain, ``OverflowError`` overflow (values beyond
the float range, e.g. n > 1023 at q = 2) and ``OSError`` io.  Any other
exception is a bug and keeps its traceback.  Where an argv has two faults,
the check that runs first reports, and each runs before the exact work:
`typical` and `aep-check` refuse a theta that mu refuses (0, or one whose
1/theta overflows a double) before a bad epsilon or a negative n (`aep-check`
checks n and --delta first), `code-encode` refuses a bad --subspace before
a bad epsilon, but after a negative n or a q above 36, and `code-decode`
refuses a digit of --word outside base q in the same place, so a bad digit
wins over a wrong length.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter

from . import aep, entropy, gf, grassproc, maxent, qcomb, qdist

SCHEMA = "qgrass/1"
BASIS_PRINT_LIMIT = 64
# The fewest growth steps a block of the histogram holds.  On a 2-vCPU VM
# (Python 3.11) one step took ~7.5 us, and a split took ~3.5 ms more than
# half the serial time: a fork and waitpid round trip of ~1.2 ms (1.1-1.2
# ms in the median, 1.5 ms at the 90th percentile, of 3 x 300 forks that
# each wrote a slot of the shared mmap) and ~2 ms before the child's first
# step.  A block of 1024 steps, ~7.7 ms, earns that back twice over.
_BLOCK_STEPS = 1024


class CliError(Exception):
    def __init__(self, code, detail):
        super().__init__(detail)
        self.code = code
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError instead of printing and exiting 2."""

    def error(self, message):
        raise CliError("usage", f"{self.prog}: {message}")


def _default_seed():
    env = os.environ.get("QGRASS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError("bad_seed", f"QGRASS_SEED={env!r} is not an integer")
    return 0


def _emit(text, out_path):
    if out_path:
        tmp = out_path + ".tmp"
        fh = open(tmp, "w")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, out_path)
        except OSError:
            os.remove(tmp)
            raise
    else:
        sys.stdout.write(text)


def _json(payload):
    return json.dumps(payload) + "\n"


_DECIMAL_CHUNK = 10**gf._INT_CHUNK


def _decimal(x):
    """The decimal string of an exact integer x >= 0 of any size, written
    gf._INT_CHUNK digits at a time: str() refuses an int past
    sys.get_int_max_str_digits() digits, 4300 by default."""
    chunks = []
    while x >= _DECIMAL_CHUNK:
        x, r = divmod(x, _DECIMAL_CHUNK)
        chunks.append(str(r).zfill(gf._INT_CHUNK))
    chunks.append(str(x))
    return "".join(reversed(chunks))


def _csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def _theta_value(text):
    """Parse theta >= 0, keeping exact rationals exact (e.g. '1', '1/2')."""
    try:
        if "/" in text:
            import fractions  # only an a/b theta needs it; ~3 ms to load

            value = fractions.Fraction(text)
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not value >= 0 or value == math.inf:
        raise CliError("bad_theta", f"theta must be a finite number >= 0, got {text!r}")
    if isinstance(value, float) and value == int(value):
        return int(value)
    return value


@functools.cache
def _field(q):
    """The one FieldSpec of order q in the process, built on first use like
    the parser: a field keeps no per-call state, so its tables are built
    once."""
    return gf.FieldSpec(q)


# -- subcommand handlers ---------------------------------------------------

def _cmd_qcoeff(args):
    n = args.n
    ks = args.k
    if n < 0:
        raise CliError("domain", f"n must be a nonnegative integer, got {n}")
    if len(ks) == 1:
        parts = (ks[0], n - ks[0])
        if parts[1] < 0:
            raise CliError("domain", f"k={ks[0]} exceeds n={n}")
    else:
        if sum(ks) != n:
            raise CliError("domain", f"parts {ks} do not sum to n={n}")
        parts = tuple(ks)
    return _decimal(qcomb.q_multinomial(parts, args.q)) + "\n"


def _dim_counts(chain, seed, start, stop):
    """[number of samples i in start..stop-1 with dim V_n = k for k = 0..n]:
    dim V_n is the number of growth decisions; no dilation is drawn."""
    counts = [0] * (len(chain) + 1)
    for i in range(start, stop):
        counts[sum(rng is not None for rng in grassproc.growth_steps(chain, f"{seed}:{i}"))] += 1
    return counts


def _affinity(steps):
    """The CPUs this process may run on, where a histogram of this many
    growth steps is worth splitting across them, else None: below
    2 * _BLOCK_STEPS steps, without os.fork or os.sched_getaffinity, and
    while a second thread runs, since a forked child of a threaded process
    may deadlock.  threading counts only the threads it started, and none
    run before it is imported, so it is read only where already loaded."""
    if steps < 2 * _BLOCK_STEPS or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return None
    return os.sched_getaffinity(0)


def _pin(pid, cpus):
    """Confine process pid (0: this one) to cpus, where the OS allows it.
    Left to the scheduler, a forked child stayed on its parent's CPU for
    the whole of a 50-ms block in 8 of 8 runs (Linux 6.18, 2-vCPU VM), and
    the two ran at half speed each."""
    try:
        os.sched_setaffinity(pid, cpus)
    except OSError:
        pass


def _fork_block(chain, seed, start, stop, cpu, shared, slot):
    """pid of a forked child, pinned to cpu, that counts samples
    start..stop-1 into shared[slot] as 64-bit integers, or None if no child
    could be made.  Counts of the wrong length do not fit the slot, so
    their child fails.  The child leaves by os._exit, status 0 once the
    counts are written, so it runs no exit handler and flushes no buffer of
    this process."""
    import array  # only a split histogram needs it; loaded once, before the first fork

    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            shared[slot] = array.array("q", _dim_counts(chain, seed, start, stop))
            status = 0
        finally:
            os._exit(status)
    _pin(pid, {cpu})
    return pid


def _kill(pid):
    import signal  # only a failing run kills a child; the import costs ~0.6 ms

    os.kill(pid, signal.SIGKILL)


def _histogram_counts(chain, seed, samples):
    """`_dim_counts` of samples 0..samples-1.  Where `_affinity` allows,
    they are counted in contiguous blocks, one per CPU, at most one per
    sample and one per _BLOCK_STEPS steps: the first here, each other one
    in a forked child pinned to its own CPU, which leaves its counts in its
    own slot of one shared mapping.  A slot is read once its child exited
    with status 0; a block whose child could not be made or failed, or left
    a negative count or the wrong total, is counted here.  Meanwhile this
    process is pinned to the first CPU; its affinity is restored, and every
    child reaped, before this returns or raises, and an exception here
    kills the children first."""
    steps = samples * len(chain)
    affinity = _affinity(steps)
    cpus = sorted(affinity or ())[:min(samples, steps // _BLOCK_STEPS)]
    if len(cpus) < 2:
        return _dim_counts(chain, seed, 0, samples)
    import mmap  # only a split histogram needs it

    bounds = [samples * j // len(cpus) for j in range(len(cpus) + 1)]
    width = 8 * (len(chain) + 1)  # a block's n + 1 counts, 8 bytes each
    slots = [slice(width * j, width * (j + 1)) for j in range(len(cpus))]
    with mmap.mmap(-1, width * len(cpus)) as shared:
        children = {}  # block -> pid, until reaped
        try:
            for j in range(1, len(cpus)):
                pid = _fork_block(chain, seed, bounds[j], bounds[j + 1], cpus[j], shared, slots[j])
                if pid is not None:
                    children[j] = pid
            _pin(0, {cpus[0]})
            counts = _dim_counts(chain, seed, bounds[0], bounds[1])
            for j in range(1, len(cpus)):
                status = os.waitpid(children[j], 0)[1] if j in children else None
                children.pop(j, None)  # once reaped; an interrupted wait leaves it to kill
                part = memoryview(shared[slots[j]]).cast("q").tolist() if status == 0 else None
                if part is None or min(part) < 0 or sum(part) != bounds[j + 1] - bounds[j]:
                    part = _dim_counts(chain, seed, bounds[j], bounds[j + 1])
                counts = [a + b for a, b in zip(counts, part)]
            return counts
        finally:
            _pin(0, affinity)
            for pid in children.values():  # left only by an exception
                _kill(pid)
                os.waitpid(pid, 0)


def _cmd_simulate(args):
    field = _field(args.q)
    theta = float(args.theta)
    if args.samples < 1:
        raise CliError("domain", f"samples must be >= 1, got {args.samples}")
    if args.histogram:
        params = qdist.QBinomialParams(args.n, theta, args.q)
        counts = _histogram_counts(qdist.bernoulli_chain(params), args.seed, args.samples)
        exact = qdist._pmf_column(params)
        empirical = [c / args.samples for c in counts]
        tv = 0.5 * sum(abs(a - b) for a, b in zip(empirical, exact))
        payload = {
            "schema": SCHEMA,
            "n": args.n,
            "theta": theta,
            "q": args.q,
            "seed": args.seed,
            "samples": args.samples,
            "dim_counts": counts,
            "exact_dim_pmf": exact,
            "tv": tv,
        }
        if args.format == "csv":
            rows = [
                (k, counts[k], empirical[k], exact[k])
                for k in range(args.n + 1)
            ]
            return _csv(("dim", "count", "empirical", "exact"), rows)
        return _json(payload)

    if args.n > BASIS_PRINT_LIMIT:
        raise CliError(
            "basis_print_guard",
            f"n={args.n} exceeds the basis-printing guard {BASIS_PRINT_LIMIT}; "
            "use --histogram",
        )
    if field.p > gf.TEXT_BASE_MAX:  # refuse before any trajectory runs
        raise CliError("domain", f"text format supports base <= {gf.TEXT_BASE_MAX}")
    lines = []
    for i in range(args.samples):
        traj = grassproc.simulate(
            args.n, theta, field, f"{args.seed}:{i}", keep_history=args.keep_history
        )
        lines.append(json.dumps(grassproc.trajectory_record(traj)))
    return "\n".join(lines) + "\n"


def _cmd_mu_table(args):
    table = aep.build_mu_table(float(args.theta), args.q)
    if args.format == "csv":
        rows = [(d, v) for d, v in enumerate(table.values)]
        return _csv(("d", "mu"), rows)
    return _json(
        {
            "schema": SCHEMA,
            "q": args.q,
            "theta": float(args.theta),
            "mu": list(table.values),
            "tail": table.tail_bound,
            "d_max": table.d_max,
        }
    )


def _cmd_typical(args):
    ts = aep.typical_set(args.n, args.epsilon, args.theta, args.q)
    return _json(
        {
            "schema": SCHEMA,
            "n": ts.n,
            "epsilon": ts.epsilon,
            "theta": ts.theta,
            "q": ts.q,
            "delta_codim": ts.delta_codim,
            "exact_size": _decimal(ts.exact_size),
            "limit_delta": ts.limit_delta,
            "discontinuity": ts.discontinuity,
            "bracket": list(ts.bracket),
        }
    )


def _cmd_aep_check(args):
    report = aep.check_aep(args.n, args.epsilon, args.delta, args.theta, args.q)
    report = dict(report, schema=SCHEMA)
    return _json(report)


def _block_code(args):
    return aep.make_block_code(args.n, args.epsilon, args.theta, _field(args.q))


def _text_field(args):
    """The field of q, for the text checks that run before the block code,
    which can take seconds at large n; where no code exists (n < 0, q > 36)
    make_block_code says so first."""
    if args.n < 0 or args.q > gf.TEXT_BASE_MAX:
        _block_code(args)
    return _field(args.q)


def _cmd_code_encode(args):
    field = _text_field(args)
    try:
        v, canonical = gf.parse_subspace(args.subspace, args.n, field)
    except ValueError as exc:
        raise CliError("bad_subspace", str(exc))
    code = _block_code(args)
    word = aep.encode(v, code)
    return _json(
        {
            "schema": SCHEMA,
            "word": word,
            "typical": args.n - v.dim <= code.codim_bound,
            "input_was_canonical": canonical,
            "codeword_len": code.codeword_len,
        }
    )


def _cmd_code_decode(args):
    q = _text_field(args).q
    try:  # a bad digit needs no code; only the length check does
        gf.check_digits(args.word, q)
    except ValueError as exc:
        raise CliError("bad_word", str(exc))
    code = _block_code(args)
    try:
        v = aep.decode(args.word, code)
    except ValueError as exc:
        raise CliError("bad_word", str(exc))
    return _json(
        {
            "schema": SCHEMA,
            "subspace": gf.format_subspace(v),
            "dim": v.dim,
            "codeword_len": code.codeword_len,
        }
    )


def _cmd_mle(args):
    if args.samples_file:
        with open(args.samples_file) as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    # the samples as a histogram, one int() per distinct token; a Counter
    # keeps first occurrences in order, so the first bad token is reported
    counts = Counter()
    for token, count in Counter(raw.split()).items():
        try:
            counts[int(token)] += count
        except ValueError as exc:
            raise CliError("bad_samples", str(exc))
    if not counts:
        raise CliError("bad_samples", "no samples provided")
    theta_hat = qdist.mle_theta(counts, args.n, args.q, args.tol)
    size, ybar = qdist._sample_mean(counts)
    if theta_hat == math.inf:
        residual = abs(args.n - ybar)
        theta_out = "infinite"
    else:
        residual = abs(qdist.m_qn(theta_hat, args.n, args.q) - ybar)
        theta_out = theta_hat
    return _json(
        {
            "schema": SCHEMA,
            "theta_hat": theta_out,
            "m_residual": residual,
            "samples": size,
        }
    )


def _cmd_maxent(args):
    energies = [float(t) for t in args.energies.split(",")]
    model = maxent.EnergyModel(tuple(energies), args.mean)
    sol = maxent.solve(model)
    payload = {
        "schema": SCHEMA,
        "probs": list(sol.probs),
        "multipliers": list(sol.multipliers),
        "support": list(sol.active_support),
    }
    if args.finite_n is not None:
        payload["finite_n"] = _finite_n_payload(model, args.finite_n, args.q)
    return _json(payload)


def _finite_n_payload(model, n, q):
    report = maxent.finite_n_check(model, n, q)
    return {
        "nominal": list(report["nominal"]),
        "argmax": [list(k) for k in report["argmax"]],
        "ties": report["ties"],
        "nominal_is_optimal": report["nominal_is_optimal"],
        "growth_rate": report["growth_rate"],
        "h2_continuous": report["h2_continuous"],
    }


def _cmd_asymptotics(args):
    probs = [float(t) for t in args.probs.split(",")]
    n_list = [int(t) for t in args.n_list.split(",")]
    if args.q:
        rows = entropy.check_qmultinomial_asymptotics(probs, args.q, n_list)
    else:
        rows = entropy.check_multinomial_asymptotics(probs, n_list)
    if args.format == "csv":
        return _csv(("n", "rate", "target"), rows)
    return _json(
        {
            "schema": SCHEMA,
            "q": args.q,
            "rows": [{"n": n, "rate": r, "target": t} for n, r, t in rows],
        }
    )


def _cmd_growth(args):
    n_list = [int(t) for t in args.n_list.split(",")]
    rows = aep.grassmannian_growth(n_list, args.q)
    if args.format == "csv":
        return _csv(("n", "value"), rows)
    return _json(
        {
            "schema": SCHEMA,
            "q": args.q,
            "rows": [{"n": n, "value": v} for n, v in rows],
            "limit": 0.5,
        }
    )


# -- parser ----------------------------------------------------------------

# The flags that several subcommands share, by name.
SHARED_FLAGS = {
    "n": dict(type=int, required=True),
    "epsilon": dict(type=float, required=True),
    "theta": dict(required=True),
    "q": dict(type=int, required=True),
}


@functools.cache
def _parsers():
    """The one parser of the process and its subcommand parsers by name,
    the `choices` map of its subparsers action.  Built on the first parse;
    no parser keeps state between calls, each of which fills a fresh
    namespace."""
    top = _Parser(
        prog="qgrass",
        description="q-deformed information theory over finite vector spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags="", csv=None):
        """Add a subcommand with the SHARED_FLAGS named in flags and --out;
        a command with CSV columns also takes --format."""
        p = sub.add_parser(name, help=help, epilog=csv and f"CSV columns: {csv}")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **SHARED_FLAGS[flag])
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        p.set_defaults(func=func)
        return p

    typical_flags = "n epsilon theta q"

    p = command("qcoeff", _cmd_qcoeff, "exact q-multinomial coefficient", "q")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="+")

    p = command("simulate", _cmd_simulate, "run the Grassmannian process",
                "n theta q", csv="dim,count,empirical,exact (histogram mode)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--histogram", action="store_true",
                   help="aggregate dimension histogram + TV against the exact pmf")
    p.add_argument("--keep-history", action="store_true")

    command("mu-table", _cmd_mu_table, "limiting codimension law mu(d)", "q theta", csv="d,mu")
    command("typical", _cmd_typical, "typical subspace set descriptor", typical_flags)

    p = command("aep-check", _cmd_aep_check, "equipartition gap report", typical_flags)
    p.add_argument("--delta", type=float, required=True)

    p = command("code-encode", _cmd_code_encode, "encode a typical subspace", typical_flags)
    p.add_argument("--subspace", required=True, help="RREF rows, e.g. '100;010'")

    p = command("code-decode", _cmd_code_decode, "decode a codeword to a subspace",
                typical_flags)
    p.add_argument("--word", required=True)

    p = command("mle", _cmd_mle, "estimate theta from dimension samples", "n q")
    p.add_argument("--tol", type=float, default=qdist.MLE_DEFAULT_TOL)
    p.add_argument("--samples-file", default=None,
                   help="one integer per line; default reads stdin")

    p = command("maxent", _cmd_maxent, "quadratic-entropy maximization")
    p.add_argument("--energies", required=True, help="comma-separated energies")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--finite-n", type=int, default=None)
    p.add_argument("--q", type=int, default=2)

    p = command("asymptotics", _cmd_asymptotics, "growth-rate table vs entropy target",
                csv="n,rate,target")
    p.add_argument("--probs", required=True, help="comma-separated probabilities")
    p.add_argument("--n-list", required=True)
    p.add_argument("--q", type=int, default=None,
                   help="q-multinomial rates; omit for classical")

    p = command("growth", _cmd_growth, "total Grassmannian growth rates", "q", csv="n,value")
    p.add_argument("--n-list", required=True)

    return top, sub.choices


def build_parser():
    return _parsers()[0]


def _parse_args(argv):
    """build_parser().parse_args(argv) in one argparse pass where it can be.

    The full parser hands everything after the subcommand name to that
    subcommand's parser and reports what it leaves over, so where argv[0]
    names a subcommand its parser reads argv[1:] directly.  Anything else,
    an empty argv, an unknown command, a leading option or a leftover
    argument, goes to the full parser, which words every usage error
    (the qgrass: prefix of an unrecognized argument among them).
    """
    top, commands = _parsers()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return top.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        if hasattr(args, "theta"):
            args.theta = _theta_value(args.theta)
        if args.q is not None and args.q < 2:
            raise CliError("domain", f"q must be >= 2, got {args.q}")
        text = args.func(args)
        _emit(text, args.out)
        return 0
    except CliError as exc:
        code, detail = exc.code, exc.detail
    except ValueError as exc:
        code, detail = "domain", str(exc)
    except OverflowError as exc:
        code, detail = "overflow", str(exc)
    except OSError as exc:
        code, detail = "io", str(exc)
    sys.stderr.write(_json({"error": code, "detail": detail}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
