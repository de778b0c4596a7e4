#!/usr/bin/env python3
"""Build and run the TQ end-to-end benchmark.

Usage, from the root of a checkout:

    python3 tqbench/run.py --workload kv_open --seed 1 --seconds 20 --trace 0
    python3 tqbench/run.py --workload all --seed 1 --seconds 5

Builds tqbench (tqbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/tqbench, default .bench_build/tqbench, runs one
workload (or all four in turn), checks that the result names every
metric BENCHMARK.json lists for the mode, with its unit, and prints the
program's output. The last stdout line is the result object. Exits
nonzero when the build fails, an output check fails or a metric is
missing. Traced runs (--trace 1) also write a Chrome trace of the
benchmark's spans under <build dir>/traces/.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ["kv_open", "tiny_closed", "tpcc_classes", "sim_sweep"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("tqbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(REPO, base, "tqbench")


def build():
    out = build_dir()
    log = sys.stderr
    # Configure every time (cheap once cached): a build tree left by an
    # older version of this benchmark may lack the current target.
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("cmake configure failed")
    cmd = ["cmake", "--build", out, "--target", "tqbench",
           "--parallel", str(min(4, os.cpu_count() or 1))]
    if subprocess.call(cmd, stdout=log, stderr=log) != 0:
        fail("build failed")
    return os.path.join(out, "tqbench")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    """sha256 over src/: names the code measured when git is absent."""
    h = hashlib.sha256()
    src = os.path.join(REPO, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(exe, workload, seed, seconds, trace, ids):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", ids[0], "--src-digest", ids[1]]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, r.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: malformed result object" % workload)
    for name, unit in expected_metrics(trace).items():
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            fail("%s: metric %s missing or not in %s" % (workload, name, unit))
    ok = r.returncode == 0 and result["correct"] and result["failed"] == 0
    return result, lines[-1], ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not os.path.exists(os.path.join(REPO, "src", "runtime", "runtime.h")):
        fail("no src/ next to tqbench/: run from a full checkout")
    exe = build()
    ids = (commit(), src_digest())
    names = WORKLOADS if a.workload == "all" else [a.workload]
    results, all_ok = [], True
    for w in names:
        result, raw, ok = run_one(exe, w, a.seed, a.seconds, a.trace, ids)
        results.append((w, result))
        all_ok = all_ok and ok
        if len(names) > 1:
            print(json.dumps({"workload": w, "result": result}))
    if len(names) == 1:
        print(raw)
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, k): v
                        for w, r in results for k, v in r["metrics"].items()},
        }
        print(json.dumps(final))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
