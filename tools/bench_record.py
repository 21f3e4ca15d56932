#!/usr/bin/env python3
"""Regenerate the tracked BENCH_*.json perf baselines.

Runs the headline benchmark shapes and normalizes their
--benchmark_format=json output into two committed snapshots:

  BENCH_campaign.json   bench_throughput: BM_CampaignMutationHeavy,
                        BM_CampaignIncremental, BM_CampaignManyProperties,
                        BM_WorkerSupervision
  BENCH_scaling.json    bench_scaling: the threads sweep (pinned args)

Each snapshot carries a machine fingerprint (cpu count, build type,
pinned --benchmark_min_time, git sha) so tools/bench_compare.py can tell
"comparable" from "recorded on different hardware" — a mismatched
fingerprint is a skip, never a silently wrong comparison.

Usage:
    python3 tools/bench_record.py [--build-dir build] [--out-dir .]
                                  [--min-time 0.05]

The rule of the perf trajectory: any PR that claims a speedup (or touches
a hot path) regenerates these baselines in the same commit, so the claim
is a diffable number the CI bench-gate holds every later PR to.
"""

import argparse
import json
import os
import re
import subprocess
import sys

# Every field google-benchmark emits per entry that is *not* a user
# counter.  Anything numeric outside this set is treated as a counter and
# becomes part of the tracked baseline schema.
NON_COUNTER_FIELDS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "aggregate_name",
    "aggregate_unit", "error_occurred", "error_message",
}

# The headline campaign shapes: deterministic fixtures (fixed seeds, fixed
# unit counts), so every counter in the snapshot is reproducible and only
# the wall times carry machine noise.  BM_WireRoundTrip rides along: the
# wire codec is the floor under cross-process sharding, so its frame rate
# and allocs/frame are part of the tracked trajectory.  BM_WorkerSupervision
# prices the supervised (poll-based) drain on a clean run so the
# supervision overhead stays a diffable number.
CAMPAIGN_FILTER = (
    "^(BM_CampaignMutationHeavy|BM_CampaignIncremental|"
    "BM_CampaignManyProperties|BM_WireRoundTrip|BM_WorkerSupervision)/"
)

# Pinned threads-sweep arguments: 4 threads, 8 seeds, auto backend,
# stride 32.  Bounded runtime, same shape everywhere.
SCALING_ARGS = ["4", "8", "auto", "32"]

TIME_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_json(cmd):
    """Runs a benchmark binary and parses the JSON document on stdout."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode())


def normalize(doc):
    """Reduces a google-benchmark JSON document to the tracked schema."""
    benchmarks = []
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # aggregates (mean/stddev) are derived, not tracked
        scale = TIME_UNIT_TO_NS[entry.get("time_unit", "ns")]
        counters = {
            key: value
            for key, value in sorted(entry.items())
            if key not in NON_COUNTER_FIELDS
            and isinstance(value, (int, float))
        }
        benchmarks.append({
            "name": entry["name"],
            "label": entry.get("label", ""),
            "real_time_ns": entry["real_time"] * scale,
            "counters": counters,
        })
    benchmarks.sort(key=lambda b: b["name"])
    return benchmarks


def build_type(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8") as fh:
            for line in fh:
                match = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)", line.strip())
                if match:
                    return match.group(1) or "unknown"
    except OSError:
        pass
    return "unknown"


def git_sha(repo_dir):
    try:
        out = subprocess.run(
            ["git", "-C", repo_dir, "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True)
        return out.stdout.decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(args, source, num_cpus):
    return {
        # Compared by bench_compare.py — a mismatch means the runs are not
        # comparable and the gate skips instead of guessing:
        "num_cpus": num_cpus,
        "build_type": build_type(args.build_dir),
        "benchmark_min_time": args.min_time,
        # Informational only (always differs between baseline and fresh):
        "git_sha": git_sha(os.path.dirname(os.path.abspath(__file__))),
        "source": source,
    }


def write_snapshot(path, fp, benchmarks):
    doc = {"schema": 1, "fingerprint": fp, "benchmarks": benchmarks}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} ({len(benchmarks)} benchmarks)")


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate the tracked BENCH_*.json perf baselines.")
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory with the bench binaries")
    parser.add_argument("--out-dir", default=".",
                        help="where to write BENCH_campaign/scaling.json")
    parser.add_argument("--min-time", default="0.05",
                        help="--benchmark_min_time for bench_throughput "
                             "(pinned; part of the fingerprint)")
    parser.add_argument("--skip-scaling", action="store_true",
                        help="only regenerate BENCH_campaign.json")
    args = parser.parse_args()

    throughput = os.path.join(args.build_dir, "bench_throughput")
    scaling = os.path.join(args.build_dir, "bench_scaling")
    for binary in [throughput] + ([] if args.skip_scaling else [scaling]):
        if not os.path.exists(binary):
            sys.exit(f"error: {binary} not built "
                     f"(cmake --build {args.build_dir} first)")
    os.makedirs(args.out_dir, exist_ok=True)

    doc = run_json([
        throughput,
        f"--benchmark_filter={CAMPAIGN_FILTER}",
        f"--benchmark_min_time={args.min_time}",
        "--benchmark_format=json",
    ])
    num_cpus = doc.get("context", {}).get("num_cpus", os.cpu_count() or 1)
    write_snapshot(os.path.join(args.out_dir, "BENCH_campaign.json"),
                   fingerprint(args, "bench_throughput", num_cpus),
                   normalize(doc))

    if not args.skip_scaling:
        doc = run_json([scaling, *SCALING_ARGS, "--benchmark_format=json"])
        num_cpus = doc.get("context", {}).get("num_cpus", os.cpu_count() or 1)
        write_snapshot(os.path.join(args.out_dir, "BENCH_scaling.json"),
                       fingerprint(args, "bench_scaling", num_cpus),
                       normalize(doc))


if __name__ == "__main__":
    main()
