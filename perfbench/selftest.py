"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

On short runs of every workload it checks that each metric BENCHMARK.json
names is printed with its unit, that the default-seed runs are correct
(trajectory digests included), and that every exact count repeats between
two traced runs at one seed.  It also checks that the benchmark refuses to
run, without a result line, where only BENCHMARK.json and perfbench/ exist.
Exit status 0 means every check passed.
"""

import json
import os
import shutil
import subprocess
import sys

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = workloads.DEFAULT_SEED


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metrics_printed(proc, result, declared):
    """Every declared metric is in the result and on a printed line, with its unit."""
    lines = proc.stdout.splitlines()
    return all(
        result["metrics"].get(m["name"], {}).get("unit") == m["unit"]
        and any(line.split(": ", 1)[-1].startswith(f"{m['name']} = ")
                and line.endswith(f" {m['unit']}") for line in lines)
        for m in declared
    )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for name in workloads.NAMES:
        proc = bench(name, 0)
        result = result_of(proc)
        expect(proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result line has exactly the four keys")
        expect(result["correct"] and result["attempted"] >= 100,
               f"{name}: correct over {result['attempted']} ops ({result['failed']} failed)")
        expect(metrics_printed(proc, result, spec["end_to_end"]),
               f"{name}: every end-to-end metric printed with its unit")

        traced = [bench(name, 1) for _ in range(2)]
        first, second = (result_of(p) for p in traced)
        expect(all(p.returncode == 0 for p in traced) and first["correct"] and second["correct"],
               f"{name}: traced runs correct")
        expect(metrics_printed(traced[0], first, spec["per_layer"]),
               f"{name}: every per-layer metric printed with its unit")
        differ = [m for m in tracing.EXACT
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        expect(not differ, f"{name}: exact counts repeat across two traced runs {differ or ''}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for entry in os.listdir(HERE):
        if entry.endswith((".py", ".md", ".json")):
            shutil.copy(os.path.join(HERE, entry), os.path.join(bare, "perfbench"))
    proc = bench(workloads.NAMES[0], 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
