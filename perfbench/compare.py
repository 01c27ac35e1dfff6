#!/usr/bin/env python3
"""Compares two sets of perfbench result files, refusing mismatched hosts.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json ...

Result files are the JSON objects perfbench writes next to its build
(<build>/results/<workload>_seed<n>_trace<t>.json). The comparison is
refused (exit 2) when the files disagree on anything that makes timings
incomparable: host width, CPU model, cache geometry, OpenMP width, build
type, the STS_TRACING/STS_FAULTS/STS_CHECKS flags, W, workload or trace
mode. Otherwise each metric's median is compared; with end-to-end
results the bounds of BENCHMARK.json apply. The exit code is 1 when a
metric is worse than its bound, when a new result is not correct or when
the new side failed a larger share of its operations than the base; 0
otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

# Provenance fields two comparable result sets must share.
HOST_KEYS = (
    "nproc", "cpu_model", "hardware_cores", "omp_max_threads", "l1d_bytes",
    "l2_bytes", "l3_bytes", "build_type", "sts_tracing", "sts_faults",
    "sts_checks", "width", "workload", "trace",
)


def load(paths):
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    return results


def host_of(results, side):
    hosts = {tuple(r["provenance"].get(k) for k in HOST_KEYS) for r in results}
    if len(hosts) != 1:
        raise ValueError(f"{side} results come from more than one host/build")
    return dict(zip(HOST_KEYS, hosts.pop()))


def bounds(benchmark_path):
    with open(benchmark_path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(base, new, limits):
    """Rows of (name, base median, new median, change, verdict); `change`
    is the relative worsening (positive = worse)."""
    rows = []
    for name in sorted(base[0]["metrics"]):
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        spec = limits.get(name)
        if spec is None or b == 0:
            rows.append((name, b, n, None, "info"))
            continue
        worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
        rows.append((name, b, n, worse,
                     "REGRESSED" if worse > spec["bound"] else "ok"))
    return rows


def failures(base, new):
    """Reasons the new side fails whatever its timings."""
    reasons = []
    incorrect = sum(1 for r in new if r.get("correct") is not True)
    if incorrect:
        reasons.append(f"{incorrect} of {len(new)} new results are not correct")
    shares = []
    for side in (base, new):
        failed = sum(r["failed"] for r in side)
        attempted = sum(r["attempted"] for r in side)
        shares.append((failed / attempted if attempted else 1.0,
                       failed, attempted))
    if shares[1][0] > shares[0][0]:
        reasons.append("new side failed {1} of {2} operations, base {4} of {5}"
                       .format(*shares[1], *shares[0]))
    return reasons


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=str(Path(__file__).resolve().parent.parent /
                                "BENCHMARK.json"))
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    try:
        base_host, new_host = host_of(base, "base"), host_of(new, "new")
    except ValueError as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    differ = [k for k in HOST_KEYS if base_host[k] != new_host[k]]
    if differ:
        for k in differ:
            print(f"compare: refused: {k} differs "
                  f"({base_host[k]!r} vs {new_host[k]!r})", file=sys.stderr)
        return 2
    limits = {} if base_host["trace"] else bounds(args.benchmark)
    rows = compare(base, new, limits)
    for name, b, n, worse, verdict in rows:
        change = "" if worse is None else f"{worse:+.1%} worse"
        print(f"{name:36s} {b:14.6g} {n:14.6g} {change:>14s} {verdict}")
    reasons = failures(base, new)
    for reason in reasons:
        print(f"compare: FAILED: {reason}")
    return 1 if reasons or any(r[4] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
