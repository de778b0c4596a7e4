#!/usr/bin/env python3
"""Gate on the ratio of two google-benchmark results from one run.

Usage:

    micro_mechanisms --benchmark_filter=... --benchmark_format=json > r.json
    python3 tools/bench_ratio_gate.py r.json NUMERATOR DENOMINATOR MAX_RATIO

Reads the JSON report, takes each named benchmark's CPU time (the
median aggregate when the run used --benchmark_repetitions, else the
single iteration row) and exits 1 when NUMERATOR / DENOMINATOR exceeds
MAX_RATIO, 2 when a name is missing. Both numbers come from the same
process on the same machine, so the verdict does not depend on how
fast the machine is — only on how the two mechanisms compare.
"""
import json
import sys


def cpu_time(report, name):
    median = single = None
    for b in report.get("benchmarks", []):
        if b.get("run_name", b.get("name")) != name:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                median = b["cpu_time"]
        elif single is None:
            single = b["cpu_time"]
    return median if median is not None else single


def main():
    if len(sys.argv) != 5:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path, num_name, den_name, max_ratio = sys.argv[1:]
    with open(path) as f:
        report = json.load(f)
    num = cpu_time(report, num_name)
    den = cpu_time(report, den_name)
    if num is None or den is None or den <= 0:
        print("ratio gate: %s or %s missing from %s"
              % (num_name, den_name, path), file=sys.stderr)
        return 2
    ratio = num / den
    verdict = "ok" if ratio <= float(max_ratio) else "FAIL"
    print("ratio gate: %s / %s = %.3f / %.3f = %.3f (max %s): %s"
          % (num_name, den_name, num, den, ratio, max_ratio, verdict))
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
