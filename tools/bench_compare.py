#!/usr/bin/env python3
"""Diff a fresh benchmark snapshot against a committed BENCH_*.json baseline.

    python3 tools/bench_compare.py BASELINE.json FRESH.json
                                   [--wall-tolerance 0.35]
                                   [--strict-fingerprint] [--verbose]

Per-metric policy (by counter name — the names are the schema written by
CampaignResult::diagnostic_counters() and the bench binaries):

  wall metrics    real_time_ns, wall/unit — lower is better, gated with
                  --wall-tolerance relative slack (machine noise is real).
  allocation      allocs/unit, allocs/mutant — lower is better and
                  engineered-invariant-adjacent (the zero-allocation steady
                  state): hard fail beyond 10% + 2 allocs of slack.
  ratios          skip_ratio, *_hit_rate, instance_reuse_rate,
                  bit_identical — higher is better and
                  deterministic for a given fixture: hard fail on a drop
                  > 0.02 absolute (bit_identical: any drop).
  semantic        backend_viapsl, backend_vm — which monitor construction
                  ran; any change fails, a backend flip is never noise.
  informational   checkpoint_hits, events_skipped, mon_events_per_s,
                  speedup — reported, never gated (absolute counts scale
                  with iteration counts; throughput/speedup are restated
                  wall time).

A fingerprint mismatch (cpu count, build type, pinned min_time) means the
two runs are not comparable: the gate prints a skip annotation and exits 0
(or 1 under --strict-fingerprint).  Exit status: 0 pass/skip, 1 regression
or coverage loss, 2 usage error.
"""

import argparse
import json
import os
import sys

FINGERPRINT_KEYS = ["num_cpus", "build_type", "benchmark_min_time"]

ALLOC_REL_TOL = 0.10
ALLOC_ABS_SLACK = 2.0
RATIO_ABS_TOL = 0.02

INFORMATIONAL = {"checkpoint_hits", "events_skipped", "mon_events_per_s",
                 "speedup"}
SEMANTIC = {"backend_viapsl", "backend_vm"}


def classify(name):
    """Maps a metric name to its gating policy."""
    if name in ("real_time_ns", "wall/unit"):
        return "wall"
    if name.startswith("allocs/"):
        return "alloc"
    if name == "bit_identical":
        return "exact_ratio"
    if (name == "skip_ratio" or name == "instance_reuse_rate"
            or name.endswith("_hit_rate")):
        return "ratio"
    if name in SEMANTIC:
        return "semantic"
    if name in INFORMATIONAL:
        return "info"
    return "info"  # unknown counters never gate — new ones phase in freely


def judge(policy, base, fresh, wall_tol):
    """Returns (status, detail): status in {ok, improved, FAIL, info}."""
    delta = fresh - base
    if policy == "wall":
        if base > 0 and fresh > base * (1.0 + wall_tol):
            return "FAIL", f"+{100.0 * delta / base:.1f}% > {wall_tol:.0%}"
        if base > 0 and fresh < base * (1.0 - wall_tol):
            return "improved", f"{100.0 * delta / base:+.1f}%"
        return "ok", ""
    if policy == "alloc":
        if fresh > base * (1.0 + ALLOC_REL_TOL) + ALLOC_ABS_SLACK:
            return "FAIL", f"allocs regressed {base:.2f} -> {fresh:.2f}"
        if fresh < base - ALLOC_ABS_SLACK:
            return "improved", f"{base:.2f} -> {fresh:.2f}"
        return "ok", ""
    if policy == "ratio":
        if delta < -RATIO_ABS_TOL:
            return "FAIL", f"dropped {base:.3f} -> {fresh:.3f}"
        if delta > RATIO_ABS_TOL:
            return "improved", f"{base:.3f} -> {fresh:.3f}"
        return "ok", ""
    if policy == "exact_ratio":
        if fresh < base:
            return "FAIL", f"dropped {base:g} -> {fresh:g}"
        return "ok", ""
    if policy == "semantic":
        if fresh != base:
            return "FAIL", f"changed {base:g} -> {fresh:g}"
        return "ok", ""
    return "info", ""


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot load {path}: {err}")
    if "benchmarks" not in doc:
        sys.exit(f"error: {path} is not a BENCH_*.json snapshot")
    return doc


def fmt(value):
    return f"{value:,.3g}" if abs(value) >= 1000 else f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(
        description="Gate a fresh benchmark run against a baseline.")
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--wall-tolerance", type=float, default=0.35,
                        help="relative slack for wall metrics (default 0.35)")
    parser.add_argument("--strict-fingerprint", action="store_true",
                        help="fail instead of skip on fingerprint mismatch")
    parser.add_argument("--verbose", action="store_true",
                        help="print every metric row, not just changes")
    args = parser.parse_args()

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)

    base_fp = base_doc.get("fingerprint", {})
    fresh_fp = fresh_doc.get("fingerprint", {})
    mismatched = [k for k in FINGERPRINT_KEYS
                  if base_fp.get(k) != fresh_fp.get(k)]
    if mismatched:
        detail = ", ".join(
            f"{k}: {base_fp.get(k)!r} vs {fresh_fp.get(k)!r}"
            for k in mismatched)
        print(f"**SKIP** — fingerprint mismatch ({detail}); "
              "runs are not comparable.")
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::notice title=bench-gate skipped::"
                  f"fingerprint mismatch: {detail}")
        sys.exit(1 if args.strict_fingerprint else 0)

    base_by_name = {b["name"]: b for b in base_doc["benchmarks"]}
    fresh_by_name = {b["name"]: b for b in fresh_doc["benchmarks"]}

    rows = []
    failures = []
    for name, base in base_by_name.items():
        fresh = fresh_by_name.get(name)
        if fresh is None:
            failures.append(f"`{name}`: present in baseline, missing from "
                            "fresh run (coverage loss)")
            continue
        metrics = [("real_time_ns", base["real_time_ns"],
                    fresh["real_time_ns"])]
        for key, base_value in base["counters"].items():
            if key in fresh["counters"]:
                metrics.append((key, base_value, fresh["counters"][key]))
            else:
                failures.append(f"`{name}`: counter `{key}` vanished from "
                                "the fresh run")
        for key, base_value, fresh_value in metrics:
            policy = classify(key)
            status, detail = judge(policy, base_value, fresh_value,
                                   args.wall_tolerance)
            if status == "FAIL":
                failures.append(f"`{name}` / `{key}`: {detail}")
            if args.verbose or status in ("FAIL", "improved"):
                rows.append((name, key, base_value, fresh_value, status,
                             detail))
    new_names = sorted(set(fresh_by_name) - set(base_by_name))

    print(f"## bench_compare: `{os.path.basename(args.fresh)}` vs "
          f"`{os.path.basename(args.baseline)}`\n")
    print(f"{len(base_by_name)} baseline benchmarks, "
          f"{len(failures)} regression(s), "
          f"wall tolerance ±{args.wall_tolerance:.0%}\n")
    if rows:
        print("| benchmark | metric | baseline | fresh | status |")
        print("|---|---|---:|---:|---|")
        for name, key, base_value, fresh_value, status, detail in rows:
            note = f" ({detail})" if detail else ""
            print(f"| `{name}` | {key} | {fmt(base_value)} | "
                  f"{fmt(fresh_value)} | {status}{note} |")
        print()
    if new_names:
        print("New benchmarks without a baseline (commit a regenerated "
              "snapshot to start tracking them):")
        for name in new_names:
            print(f"- `{name}`")
        print()
    if failures:
        print("### REGRESSIONS\n")
        for failure in failures:
            print(f"- {failure}")
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::error title=bench-gate::{len(failures)} benchmark "
                  "regression(s); see the bench-gate job log")
        sys.exit(1)
    print("No regressions against the baseline.")


if __name__ == "__main__":
    main()
