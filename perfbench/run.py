#!/usr/bin/env python3
"""photecc benchmark: builds the harness from source and runs one workload.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --repeat 10 [--workload NAME] [--seed N]
                           [--seconds S]

The single-run form prints the harness's lines, a `# host {...}` line of
host and build facts, and last one JSON object with the keys correct,
attempted, failed and metrics.  Every result is also appended, with
its host facts, to .bench_build/results.jsonl; traced runs write their
spans to .bench_build/traces/.  The exit status is non-zero when the
build fails or any output check fails.

The repeat form runs each workload (or the one named) with seeds N ..
N+count-1 and prints every end-to-end metric's median, quartiles and
spread (interquartile range over median) beside its bound.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configures and builds the harness (a no-op when up to date)."""
    BUILD_ROOT.mkdir(exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_harness", "-j", BUILD_JOBS])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                return False
    return True


def source_digest():
    """SHA-256 over the sources the harness is built from."""
    digest = hashlib.sha256()
    roots = [ROOT / "CMakeLists.txt", ROOT / "src", BENCH_DIR]
    files = []
    for root in roots:
        files += [root] if root.is_file() else sorted(
            p for p in root.rglob("*") if p.is_file() and
            "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_facts():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = value.split()
    except OSError:
        pass
    return model, flags


def commit():
    if not (ROOT / ".git").exists():  # never read a surrounding repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_facts(seed):
    model, flags = cpu_facts()
    info = subprocess.run([str(HARNESS), "--build-info"], capture_output=True,
                          text=True, timeout=30)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "build": json.loads(info.stdout) if info.returncode == 0 else None,
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_once(workload, seed, seconds, trace, smoke=False, echo=True):
    """Runs the harness once; returns (exit status, result dict or None)."""
    command = [str(HARNESS), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(traces / f"{workload}-seed{seed}.jsonl")]
    if smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} timed out\n")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: {workload} printed no result "
                         f"(exit {proc.returncode})\n")
        return proc.returncode or 1, None
    host = host_facts(seed)
    with open(BUILD_ROOT / "results.jsonl", "a") as results:
        results.write(json.dumps({"workload": workload, "seconds": seconds,
                                  "trace": int(trace), "host": host,
                                  "result": result}) + "\n")
    if echo:
        for line in lines[:-1]:
            print(line)
        print("# host " + json.dumps(host))
        print(lines[-1], flush=True)
    return proc.returncode, result


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat(args):
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in workloads:
        values = {}
        for seed in range(args.seed, args.seed + args.repeat):
            code, result = run_once(workload, seed, seconds, False,
                                    echo=False)
            if result is None or code != 0:
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                status = 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.repeat} runs, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}, {seconds} s each")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else f" bound {bound:.3f} " + (
                "ok" if spread <= bound / 3 else
                "over a third of the bound" if spread <= bound else
                "OVER THE BOUND")
            print(f"  {name:16s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                  f" spread {spread:.4f}{verdict}", flush=True)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the benchmark's own tests)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload")
    args = parser.parse_args()
    if not build():
        return 1
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    code, result = run_once(args.workload, args.seed, seconds,
                            bool(args.trace), smoke=args.smoke)
    return code if result is not None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
