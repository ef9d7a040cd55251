#!/usr/bin/env python3
"""Self-test of the repository benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. every workload, untraced and traced, prints exactly the metric names
     and units BENCHMARK.json lists, and its outputs check out;
  2. the per-arrival sum identity holds (the binary fails a run whose
     place + completion time exceeds an advance call's wall time; here the
     traced sim runs must pass and report a residual share in [0, 1));
  3. a deliberately corrupted golden digest makes the run fail with exit
     code 1 and no metrics;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {
    "sim-paper": ["--jobs", "40", "--machines", "8"],
    "sim-multi": ["--jobs", "30", "--machines", "8"],
    "daemon-mixed": ["--jobs", "60", "--machines", "16"],
}
failures = []


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload, size in TINY.items():
        for trace in (0, 1):
            code, result, err = run(["--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", str(trace)] + size)
            label = f"{workload} trace={trace}"
            expect(code == 0 and result is not None and result["correct"],
                   f"{label}: runs and its outputs check ({err.strip()[-300:] if code else ''})")
            if result is None:
                continue
            want = {m["name"]: m["unit"]
                    for m in bench["per_layer" if trace else "end_to_end"]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{label}: metric names and units match BENCHMARK.json")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result line has exactly the contract keys")
            if trace and workload.startswith("sim"):
                share = result["metrics"]["sched.unattributed_us_share"]["value"]
                expect(0.0 <= share < 1.0,
                       f"{label}: per-arrival residual share {share:.3f} in [0, 1)")
                expect(result["metrics"]["obs.dropped_spans"]["value"] == 0,
                       f"{label}: no dropped spans")

    code, result, _ = run(["--workload", "sim-paper", "--seed", "3", "--seconds",
                           "1", "--corrupt-digest"] + TINY["sim-paper"])
    expect(code == 1 and result is not None and not result["correct"]
           and result["metrics"] == {},
           "corrupted digest fails the run without metrics")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run(["--workload", "sim-paper", "--seed", "1", "--seconds",
                           "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           "without the repository sources: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
