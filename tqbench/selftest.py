#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Run from the root of a checkout:

    python3 tqbench/selftest.py [--seconds 2]

Runs every workload briefly through tqbench/run.py, untraced and
traced, and checks that
  - every metric BENCHMARK.json names appears with its unit,
  - the output checks pass (correct, nothing failed),
  - no ledger hop is negative (runtime workloads),
  - the traced run's span file parses as Chrome trace JSON;
then checks that run.py fails, without printing a result, when only
BENCHMARK.json and tqbench/ are present. Exits nonzero on any failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RUNTIME_WORKLOADS = ["kv_open", "tiny_closed", "tpcc_classes"]
WORKLOADS = RUNTIME_WORKLOADS + ["sim_sweep"]


def run(workload, seconds, trace, seed=1):
    r = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=2)
    a = ap.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    problems = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            tag = "%s trace=%d" % (w, trace)
            rc, res, err = run(w, a.seconds, trace)
            check(rc == 0 and res is not None, tag + ": exit 0 with result")
            if res is None:
                sys.stderr.write(err)
                continue
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, tag + ": output checks pass")
            want = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in want
                       if res["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            check(not missing, tag + ": every metric with its unit %s"
                  % (missing or ""))
            if not trace:
                zero = [m["name"] for m in want
                        if res["metrics"][m["name"]]["value"] == 0]
                check(not zero, tag + ": no end-to-end metric is 0 %s"
                      % (zero or ""))
                continue
            if w in RUNTIME_WORKLOADS:
                neg = res["metrics"]["ledger.negative_hops"]["value"]
                check(neg == 0, tag + ": no negative hop (%g)" % neg)
            path = os.path.join(build, "tqbench", "traces",
                                "%s-seed1.json" % w)
            try:
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                spans = [e for e in events if e.get("ph") == "X"]
                check(len(spans) > 0, tag + ": span file parses (%d spans)"
                      % len(spans))
            except (OSError, ValueError, KeyError) as e:
                check(False, tag + ": span file parses (%s)" % e)

    # Outside a full checkout run.py must fail without a result line.
    bare = os.path.join(build, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "tqbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "tqbench/run.py", "--workload",
                        "kv_open", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    check(r.returncode != 0 and not r.stdout.strip(),
          "bare directory: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
