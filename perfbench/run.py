#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload campaign-c7552 --seed 1 --seconds 25 --trace 0

Run from the repository root. The script builds perfbench_workload and
cwsp_tool (Release) under $CARGO_TARGET_DIR or .bench_build, writes the
seeded input designs there, runs the workload in its own process and
prints its metrics; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. `--workload all` runs every
workload in turn. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import reduce  # noqa: E402

# The workload process must end within this; the whole invocation within
# 180 s once built.
WORKLOAD_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(out_dir):
    """Configures (once) and builds the workload binary and the daemon."""
    repo = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        fail("no repository sources next to %s; run from a full checkout" % HERE)
    build_dir = os.path.join(out_dir, "perfbench")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(build_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp_dir)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "a") as log:
        ninja = shutil.which("ninja")
        if not os.path.exists(os.path.join(build_dir, "build.ninja" if ninja else "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if ninja:
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log, env=env) != 0:
                fail("configure failed; see " + log_path)
        jobs = str(os.cpu_count() or 1)
        if subprocess.call(["cmake", "--build", build_dir, "--target", "perfbench_workload",
                            "-j", jobs], stdout=log, stderr=log, env=env) != 0:
            fail("build failed; see " + log_path)
    return (os.path.join(build_dir, "perfbench_workload"),
            os.path.join(build_dir, "cwsp_tools", "cwsp_tool"))


def inputs(binary, out_dir, seed):
    """The seeded designs, generated once per seed outside any measured process."""
    path = os.path.join(out_dir, "inputs", "seed-%d" % seed)
    if os.path.isdir(path):
        return path
    tmp = "%s.tmp-%d" % (path, os.getpid())
    os.makedirs(tmp)
    if subprocess.call([binary, "generate", "--seed", str(seed), "--inputs", tmp]) != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("input generation failed for seed %d" % seed)
    try:
        os.rename(tmp, path)
    except OSError:  # another invocation generated it first
        shutil.rmtree(tmp, ignore_errors=True)
    return path


def stop_group(pgid):
    """Kills whatever is left of a workload's process group and waits until
    it is gone (an orphaned daemon cannot be reaped from here)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(binary, tool, out_dir, workload, seed, seconds, trace):
    run_dir = os.path.join(out_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    # Unix socket paths are short; keep it relative to the checkout root.
    socket = os.path.relpath(os.path.join(run_dir, "serve-%d.sock" % os.getpid()))
    cmd = [binary, workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0", "--inputs", inputs(binary, out_dir, seed),
           "--tool", tool, "--socket", socket]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, WORKLOAD_TIMEOUT_S))
    finally:
        stop_group(proc.pid)
        if os.path.exists(socket):
            os.unlink(socket)
    if proc.returncode != 0:
        fail("%s exited with status %d" % (workload, proc.returncode))
    return json.loads(stdout)


def report(raw, trace, seed, seconds):
    """Prints the human-readable lines and returns the result object."""
    mode = "traced" if trace else "untraced"
    print("workload %s  seed %d  %g s  %s" % (raw["workload"], seed, seconds, mode))
    print("  kernel isa %s (%d lanes)  report digest %s" % (raw["isa"], raw["lanes"],
                                                          raw["digest"]))
    print("  ops attempted %d  failed %d" % (raw["attempted"], raw["failed"]))
    for failure in raw["failures"]:
        print("    failure: " + failure)
    print("  noise (ungated): alu loop %.1f ms  memory loop %.1f ms"
          % (raw["noise"]["alu_ms"], raw["noise"]["mem_ms"]))
    units = reduce.units(trace)
    try:
        metrics = reduce.per_layer(raw) if trace else reduce.end_to_end(raw)
    except ValueError as e:  # e.g. every op failed, so there is nothing to reduce
        print("  no metrics: %s" % e)
        metrics = {}
    missing = [name for name in units if metrics.get(name) is None]
    if trace:
        for name, unit, _, _, moves in reduce.PER_LAYER:
            value = metrics.get(name)
            shown = "-" if value is None else "%.6g" % value
            print("  %-36s %12s %-5s -> %s" % (name, shown, unit, moves))
    else:
        samples = len(raw["latency_ms"]) if raw["workload"] == "service-c7552" \
            else len(raw["op_ms"])
        print("  %d latency samples, %d set-ups" % (samples, len(raw["setup_ms"])))
        if raw["workload"] != "service-c7552":
            rank = reduce.tail_rank(samples, 0.99)
            print("  p99_ms is the p%.0f of the ops: the highest percentile with ten"
                  " ops beyond it" % (100.0 * rank / max(samples, 1)))
        for name, unit in reduce.END_TO_END:
            value = metrics.get(name)
            shown = "-" if value is None else "%.6g" % value
            print("  %-12s %14s %s" % (name, shown, unit))
    for name in missing:
        print("  metric %s was not measured" % name)
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1 and not missing,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if value is not None},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=reduce.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary, tool = build(out_dir)
    workloads = reduce.WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        raw = run_workload(binary, tool, out_dir, workload, args.seed, args.seconds,
                           bool(args.trace))
        result = report(raw, bool(args.trace), args.seed, args.seconds)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
