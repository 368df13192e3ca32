#!/usr/bin/env python3
"""Builds and runs the daisy benchmark.

    python3 perfbench/run.py --workload polybench|cloudsc|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1). A traced run also writes a Chrome
trace next to the build and checks that it parses and holds a span for
every layer. --smoke runs every workload once untraced and twice traced
with a short window and asserts that the exact counts repeat.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("polybench", "cloudsc", "serve")
RUN_TIMEOUT_S = 170

# Spans the traced run wraps around each layer's entry point.
LAYER_SPANS = {"frontends", "normalize", "idiom", "transfer", "recipe",
               "compile", "run"}
SEEDED = {"polybench", "serve"}  # These also seed a database.

# Per-layer metrics that are deterministic counts: equal in every run.
EXACT_COUNTS = (
    "normalize.loops_distributed", "normalize.nests_permuted", "idiom.lifted",
    "transfer.hits", "transfer.defaults", "search.candidates",
    "search.simulations", "search.sim_hit_ratio", "search.db_entries",
    "engine.plan_compiles", "engine.plan_cache_hits",
)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the benchmark; build logs go to stderr."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def check_trace(path, workload):
    """Returns the layer spans missing from the Chrome trace at path."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    seen = {e["name"] for e in events
            if e.get("cat") == "bench" and e.get("ph") == "B"}
    wanted = LAYER_SPANS | ({"search.seed"} if workload in SEEDED else set())
    return sorted(wanted - seen)


def run(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (notes, result dict) or raises."""
    trace_path = os.path.join(build_dir(), f"perfbench-trace-{workload}.json")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if trace:
        try:
            missing = check_trace(trace_path, workload)
        except (OSError, ValueError, KeyError) as err:
            missing = [f"unreadable trace: {err}"]
        result["attempted"] += 1
        if missing:
            result["failed"] += 1
            result["correct"] = False
            lines.insert(-1, f"FAILED: trace lacks spans {missing}")
    return lines[:-1], result


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        _, plain = run(binary, workload, 1, 1, False)
        _, first = run(binary, workload, 1, 1, True)
        _, second = run(binary, workload, 2, 1, True)
        for name, res in (("untraced", plain), ("traced", first),
                          ("traced again", second)):
            if not res["correct"] or res["failed"]:
                print(f"{workload}: {name} run failed {res['failed']} of "
                      f"{res['attempted']} operations")
                ok = False
        for key in EXACT_COUNTS:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            if a != b:
                print(f"{workload}: {key} differs between runs: {a} vs {b}")
                ok = False
        print(f"{workload}: checked {plain['attempted']} + "
              f"{first['attempted']} + {second['attempted']} operations")
    print("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    try:
        notes, result = run(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
