#!/usr/bin/env python3
"""Build loom's benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

NAME is mutants_long, seeds_wide or workers_short; "all" runs each in turn
and prints every metric with its unit, per workload, as a table.

The first call configures and builds perfbench/ (which pulls the library in
from the repository root) under .bench_build/, or under $CARGO_TARGET_DIR
when that is set; later calls only rebuild what changed.  Build output goes
to stderr, so the last line of standard output is the benchmark's JSON
result.  Span files and per-run records land in .bench_build/results/.

Exit status: the benchmark's own (see perfbench/src/main.cpp), or 2 when the
checkout holds no loom sources to build, or 4 when the build or the run
fails without a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("mutants_long", "seeds_wide", "workers_short")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(env):
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return out / "loom_perfbench"


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.self_test and (args.seed < 0 or args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no loom sources under {ROOT}: nothing to build")
        return 2

    env = dict(os.environ, CCACHE_DISABLE="1")
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 4

    if args.self_test:
        return subprocess.run([str(binary), "--self-test"], env=env).returncode

    if args.workload != "all":
        rc, line = run_one(binary, env, args.workload, args)
        if line is not None:
            print(line)
        return rc

    # Every workload in turn, as a table; the last line maps each workload
    # to its result.
    rc, summary = 0, {}
    for name in WORKLOADS:
        one_rc, line = run_one(binary, env, name, args)
        rc = rc or one_rc
        if line is None:
            print(f"{name}: no result (exit {one_rc})")
            continue
        result = json.loads(line)
        summary[name] = result
        failed, attempted = result["failed"], result["attempted"]
        print(f"{name}: correct={result['correct']} "
              f"fail_ratio={failed / attempted:g} ({failed}/{attempted})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:38s} {m['value']:16.6f} {m['unit']}")
    print(json.dumps(summary))
    return rc


def run_one(binary, env, workload, args):
    """Runs one workload; returns (exit status, JSON result line or None)."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(results),
           "--git-sha", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
        return 4, None
    lines = run.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark exited {run.returncode} without a result")
        return run.returncode or 4, None
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        log("benchmark's last line is not JSON")
        return 4, None
    return run.returncode, lines[-1]


if __name__ == "__main__":
    sys.exit(main())
