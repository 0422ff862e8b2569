#!/usr/bin/env python3
"""Wall-clock benchmark of the wave-index library, one workload per call.

    python3 perfbench/run.py --workload scam-probe --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

With --workload all it runs the three workloads in turn, each in its own
process, and ends with one summary line.

Run from the root of a checkout of the repository.  It builds
perfbench/main.exe from the checkout's sources with dune, runs it in a
child process for the one workload (the library keeps process-global
registries, so workloads never share a process), and prints:

  * a run record (seed, commit, nproc, CPU, filesystem, flush policy);
  * the child's human-readable lines: every end-to-end metric that
    applies to the workload with its unit, tails with their percentile
    and sample count and, with --trace 1, every per-layer metric;
  * as the last line, one JSON object {"correct", "attempted", "failed",
    "metrics"}: the gated end-to-end metrics of BENCHMARK.json with
    --trace 0, its per-layer metrics with --trace 1.

Exits non-zero, without a result line, when the checkout is incomplete
or the build fails; exits 1 after the result line on any wrong answer.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "./perfbench/main.exe"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench_work"
OUT = ".perfbench_out"
WORKLOADS = ("scam-probe", "tpcd-ingest", "wse-shard")
FLUSH_POLICY = "fsync at every checkpoint commit"
BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 150


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", "dune-project")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_record(args, workload, work_dir):
    commit = command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)"
    fs = command_output(["stat", "-f", "-c", "%T", work_dir]) or "unknown"
    return (
        f"# run: workload={workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} commit={commit} sources={source_digest()} "
        f"nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r} "
        f"store_fs={fs} flush={FLUSH_POLICY!r}"
    )


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this mode."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has keys " + ", ".join(sorted(result)), 4)
    want = declared_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        fail(f"result metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 4)
    return result


def run_workload(args, workload):
    """Run one workload in its own process; return its exit code and
    parsed result line."""
    work_dir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        print(run_record(args, workload, work_dir), flush=True)
        try:
            child = subprocess.run(
                [EXE, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--work-dir", work_dir, "--out-dir", OUT],
                capture_output=True, text=True, timeout=args.seconds + RUN_GRACE_S)
        except subprocess.TimeoutExpired:
            fail(f"{workload} run timed out", 5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    sys.stderr.write(child.stderr)
    lines = child.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(child.stdout)
        fail(f"{workload} exited {child.returncode} without a result", 5)
    result = check_result(lines[-1], args.trace)
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    return child.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    os.chdir(ROOT)
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from a full checkout of the repository")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed", 3)

    if args.workload != "all":
        code, _ = run_workload(args, args.workload)
        sys.exit(code)
    # Every workload in turn, each in its own process, then one summary
    # line with each workload's metrics under "<workload>/<metric>".
    codes, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result = run_workload(args, workload)
        codes.append(code)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
