"""qgrass benchmark: one client, closed loop, in-process CLI calls.

    python3 perfbench/run.py --workload paths_f2 --seed 1 --seconds 20 --trace 0

An op is one call of ``qgrass.cli.main(argv)`` with stdout captured; the
next op starts when the previous one returns.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same ops untraced and traced in
alternate passes and reports the per-layer metrics.  ``--workload all`` runs
every workload in its own child process.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See DESIGN.md.

Every reported time is at reference host speed (see calibration.py).
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing
import workloads
from calibration import calibrate, to_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 9

# The child's set-up: a fresh interpreter imports the CLI and builds the
# workload's fields.  It reports that time at reference speed, calibrated in
# the child itself after the timed part, since it may run on another CPU.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qgrass.cli
from qgrass import gf
for q in sys.argv[3:]:
    gf.FieldSpec(int(q))
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from calibration import calibrate, to_reference
print(to_reference(elapsed, [calibrate() for _ in range(7)]))
"""


def load_cli():
    if not os.path.isfile(os.path.join(SRC, "qgrass", "cli.py")):
        sys.exit(f"perfbench: no qgrass sources under {SRC}")
    sys.path.insert(0, SRC)
    from qgrass import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported qgrass from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, argv):
    """One op: (seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a traceback is a failed op; the run goes on
            rc = repr(exc)
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue()


def measure_setup(workload):
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC, HERE, *map(str, workload.field_orders)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0

    def add(self, status):
        self.attempted += 1
        if status != "ok":
            self.failed += 1
            self.known += status == workloads.KNOWN_DEFECT


def run_untraced(cli, workload, seconds, tally):
    """Per-op latencies at reference speed, and the raw ones."""
    call(cli, workload.op(0))  # warm-up, unchecked
    raw, calibrations = [], [calibrate()]
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or i % workload.round_size or time.perf_counter() - start < seconds:
        dt, rc, out = call(cli, workload.op(i))
        raw.append(dt)
        calibrations.append(calibrate())  # op i runs between calibrations i and i + 1
        tally.add(workload.check(i, rc, out))
        i += 1
    latencies = [to_reference(dt, calibrations[max(0, i - 2):i + 4]) for i, dt in enumerate(raw)]
    return latencies, raw


def run_traced(cli, workload, seconds, tally, spans_path):
    """Alternate untraced and traced passes over the same fixed ops."""
    tracer = tracing.Tracer()
    ops = workload.trace_ops
    plain, traced, layers = [], [], []
    outputs = None

    def one_pass():
        """(pass time, reference-speed factor) of ops 0..ops-1."""
        nonlocal outputs
        elapsed, texts, calibrations = 0.0, [], [calibrate()]
        for i in range(ops):
            tracer.op = i
            dt, rc, out = call(cli, workload.op(i))
            elapsed += dt
            texts.append(out)
            calibrations.append(calibrate())
            tally.add(workload.check(i, rc, out))
        if outputs is None:
            outputs = texts
        elif texts != outputs:  # tracing must not change what the CLI prints
            tally.failed += 1
        scale = to_reference(1.0, calibrations)
        return elapsed * scale, scale

    one_pass()  # warm-up
    start = time.perf_counter()
    while len(traced) < 3 or time.perf_counter() - start < seconds:
        plain.append(one_pass()[0])
        tracer.reset()
        tracer.install("qgrass")
        try:
            elapsed, scale = one_pass()
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        layers.append(tracing.layer_metrics(tracer, ops, scale))
        if len(layers) == 1:
            tracer.write_jsonl(spans_path)
    for name in tracing.EXACT:
        if any(m[name] != layers[0][name] for m in layers):
            print(f"exact count {name} differs between passes", file=sys.stderr)
            tally.failed += 1
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    for name in tracing.EXACT:
        metrics[name] = layers[0][name]
    metrics["trace.ops"] = ops
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1)
    return metrics, tracer.missing


def run_one(name, seed, seconds, trace):
    cli = load_cli()
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.make(name)
    workload.prepare(seed, OUT)
    tally = Tally()
    units = benchmark_units()
    if trace:
        spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl")
        metrics, missing = run_traced(cli, workload, seconds, tally, spans_path)
        for fn in missing:
            print(f"{name}: traced function {fn} not found; its metrics read 0")
        print(f"{name}: {workload.trace_ops} ops per traced pass; spans of one pass in {spans_path}")
    else:
        setup = measure_setup(workload)
        latencies, raw = run_untraced(cli, workload, seconds, tally)
        deciles = statistics.quantiles(latencies, n=10)
        metrics = {
            "setup_s": setup,
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": deciles[-1] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"{name}: {len(latencies)} ops timed, seed {seed}; measured {len(raw) / sum(raw)!r} ops/s "
              f"at host speed {sum(latencies) / sum(raw)!r} of the reference")
    for check, passed, detail in workload.finish(seed):
        tally.failed += not passed
        print(f"check {check}: {'passed' if passed else 'FAILED'} ({detail})")
    for line in workload.check_lines():
        print(line)
    error_rate = tally.failed / tally.attempted
    print(f"{name}: error_rate {error_rate!r} ({tally.failed} of {tally.attempted} ops; "
          f"{tally.known} are the known q > 10 codeword defect)")
    for metric, value in metrics.items():
        print(f"{name}: {metric} = {value!r} {units.get(metric, '')}")
    return {
        # the known defect is counted in failed, but alone it does not make
        # the run incorrect; any other failed check does
        "correct": tally.failed == tally.known,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items() if m in units},
    }


def benchmark_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args):
    """Each workload in a child process, so that peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            sys.exit(f"perfbench: workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        load_cli()  # fail fast without the sources
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
