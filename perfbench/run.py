#!/usr/bin/env python3
"""Repository benchmark: builds gts_perfbench from this checkout's sources,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads, metrics, their units and
bounds are in BENCHMARK.json; what each metric means, which layer metrics
should move it, and the golden placement digests are in
perfbench/spec.json. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1). The lines before it print
every metric by name and unit, plus error_rate = failed / attempted.

Exit codes: 0 = outputs correct; 1 = an output check failed (no metrics
printed); 2 = the benchmark could not run (bad arguments, missing
sources, build failure).

    python3 perfbench/run.py --write-golden --workload W --seeds 1-20 --seconds 20
        records the placement digests of those seeds in perfbench/spec.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(HERE, "spec.json")
WORKLOADS = ("sim-paper", "sim-multi", "daemon-mixed")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR names the per-checkout build directory when set.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(out, "gts_perfbench")


def run_binary(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die(f"gts_perfbench printed no result (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"gts_perfbench printed an unreadable result: {lines[-1][:200]}")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        die(f"cannot read {path}: {error}")


def golden_key(workload, seed, jobs):
    return f"{workload}/{seed}/{int(jobs)}"


def check(result, args, bench, spec):
    """Checks beyond the binary's own; returns the list of failures."""
    errors = []
    expected = bench["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                      f"unexpected {extra}, wrong unit {wrong}")
    key = golden_key(args.workload, args.seed, result.get("info", {}).get("jobs", 0))
    golden = spec.get("golden_digests", {}).get(key)
    if args.corrupt_digest:
        golden = "0" * 16 if golden != "0" * 16 else "f" * 16
    if golden is not None and result["digest"] != golden:
        errors.append(f"placement digest {result['digest']} != golden {golden} "
                      f"for {key}")
    return errors


def write_golden(args, binary):
    spec = load_json(SPEC_PATH)
    golden = spec.setdefault("golden_digests", {})
    lo, _, hi = args.seeds.partition("-")
    for seed in range(int(lo), int(hi or lo) + 1):
        result = run_binary(binary, ["--workload", args.workload, "--seed",
                                     str(seed), "--seconds", str(args.seconds),
                                     "--digest-only"])
        if not result["correct"]:
            die(f"seed {seed}: {result['errors']}")
        key = golden_key(args.workload, seed, result["info"]["jobs"])
        golden[key] = result["digest"]
        print(f"{key} {result['digest']}", file=sys.stderr)
    spec["golden_digests"] = dict(sorted(golden.items()))
    with open(SPEC_PATH, "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="trace size override (self-test)")
    parser.add_argument("--machines", type=int, default=0,
                        help="cluster size override (self-test)")
    parser.add_argument("--corrupt-digest", action="store_true",
                        help="expect a wrong digest (self-test of the check)")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--seeds", default="1-10",
                        help="seed range for --write-golden")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("repository sources (src/) not found next to perfbench/")
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(SPEC_PATH)
    binary = build()
    if args.write_golden:
        write_golden(args, binary)
        return 0

    flags = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--jobs", str(args.jobs), "--machines", str(args.machines),
             # Relative to the checkout (the binary's working directory):
             # a Unix socket path must stay under ~108 bytes.
             "--scratch-dir", os.path.relpath(os.path.join(build_dir(), "run"), ROOT)]
    result = run_binary(binary, flags)
    errors = list(result.get("errors", [])) + check(result, args, bench, spec)
    correct = bool(result["correct"]) and not errors
    metrics = result["metrics"] if correct else {}

    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}): "
          f"{'outputs correct' if correct else 'OUTPUT CHECK FAILED'}, "
          f"digest {result['digest']}")
    for error in errors:
        print(f"  error: {error}")
    for name in sorted(metrics):
        print(f"  {name:30s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    print(f"  {'error_rate':30s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    if "wait_mean_s" in result.get("info", {}):
        print(f"  {'wait_mean_s':30s} {result['info']['wait_mean_s']:>16.6g} s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
