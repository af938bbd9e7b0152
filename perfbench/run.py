#!/usr/bin/env python3
"""Builds and runs the layered benchmark.

    python3 perfbench/run.py --workload train|batch|serve|adaptive \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark (Release) into $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild incrementally. Every run first executes
the benchmark's arithmetic self-test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it is the run's provenance. Each run is also appended, with
its provenance, to <build dir>/runs.jsonl; a traced run writes its spans
to <build dir>/traces/.

Exits non-zero, without a result line, when the build or the self-test
fails or the result does not match BENCHMARK.json; exits 1 after the
result line when any output failed its check.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "batch", "serve", "adaptive")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(out):
    log_path = os.path.join(out, "build.log")
    # Compiler scratch files stay in the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(nproc()),
                      "--target", "perfbench", "perfbench_selftest"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    tail = f.readlines()[-30:]
                sys.stderr.writelines(tail)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")


def source_digest():
    """sha256 over the files the benchmark builds from, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat; None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def next_run_index(out):
    """Runs made so far in this build directory, counting this one."""
    path = os.path.join(out, "run_index")
    index = 0
    if os.path.exists(path):
        with open(path) as f:
            index = int(f.read().strip() or 0)
    with open(path, "w") as f:
        f.write(str(index + 1))
    return index


def check_result(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive whole number")
    if not isinstance(result["failed"], int):
        fail("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    for name, unit in expected.items():
        entry = metrics[name]
        if entry.get("unit") != unit:
            fail(f"{name}: unit {entry.get('unit')!r}, BENCHMARK.json says "
                 f"{unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"{name}: no measured value")


def check_map(spec, imap):
    """Fails unless interactions.json agrees with BENCHMARK.json."""
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = imap["workloads"]
    if set(workloads) != set(WORKLOADS):
        fail(f"interactions.json must describe the workloads {WORKLOADS}")
    for name, entry in workloads.items():
        if entry["gated"] != (name in gated) or (
                name in gated and entry["why"] != gated[name]):
            fail(f"interactions.json: workload {name} differs from "
                 "BENCHMARK.json")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    if set(imap["end_to_end"]) != end_to_end:
        fail("interactions.json must define exactly the end-to-end metrics "
             "of BENCHMARK.json")
    mapped = [m for layer in imap["layers"].values() for m in layer["metrics"]]
    if (len(mapped) != len(set(mapped)) or
            set(mapped) != {m["name"] for m in spec["per_layer"]}):
        fail("interactions.json must place each per-layer metric of "
             "BENCHMARK.json in exactly one layer")
    for name, layer in imap["layers"].items():
        for key in ("should_move", "should_not_move"):
            for workload, metrics in layer[key].items():
                if workload not in WORKLOADS or not (
                        metrics == "all" or set(metrics) <= end_to_end):
                    fail(f"interactions.json: layer {name}, {key}: unknown "
                         f"workload or metric under {workload!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}
    with open(os.path.join(HERE, "interactions.json")) as f:
        check_map(spec, json.load(f))

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout + selftest.stderr)
        fail("arithmetic self-test failed")

    run_index = next_run_index(out)
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}-run{run_index}.jsonl")]
    started = time.time()
    ticks_before = cpu_ticks()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    ticks_after = cpu_ticks()
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON (exit {done.returncode})")
    check_result(result, expected)

    notes = lines[:-1]
    build_line = next((n for n in notes if n.startswith("build: ")), "")
    nproc_seen = re.search(r"\bnproc (\d+)", build_line)
    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build": build_line[len("build: "):],
        "nproc": int(nproc_seen.group(1)) if nproc_seen else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "run_index": run_index,
        "trace": args.trace == "1",
        "started_unix": started,
        # Share of CPU time the hypervisor gave to other guests during the
        # run; host contention shows here, not in the metrics' names.
        "host_steal_frac": (
            (ticks_after[0] - ticks_before[0]) /
            max(1, ticks_after[1] - ticks_before[1])
            if ticks_before and ticks_after else None),
    }
    with open(os.path.join(out, "runs.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "notes": notes,
                            "result": result}) + "\n")
    for note in notes:
        print(note)
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
