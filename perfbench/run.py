#!/usr/bin/env python3
"""Build and run the XCluster benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch-hot --seed 1 --seconds 8 --trace 0

It builds perfbench/xcbench.exe and bin/xcluster.exe with dune into
.bench_build/, runs the benchmark in a fresh work directory under
.bench_work/ (removed afterwards), and passes its output through. The
last line of standard output is the JSON result. The exit code is the
benchmark's: non-zero on a build failure, a crash, a timeout, or any
served answer that differs from the oracle.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["batch-hot", "point-skew"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of an xcluster source checkout (no dune-project/lib here)")
    dune = shutil.which("dune")
    env = dict(os.environ)
    if dune is None:
        # an opam switch that is installed but not on PATH
        found = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if not found:
            fail("dune is not on PATH")
        dune = found[0]
        env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "./perfbench/xcbench.exe", "./bin/xcluster.exe"]
    # build output goes to stderr so the result stays the last stdout line
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "default", "perfbench", "xcbench.exe"),
            os.path.join(BUILD_DIR, "default", "bin", "xcluster.exe"))


def reap_group(pgid):
    """Kill whatever is left in the benchmark's process group (a daemon
    orphaned by a crash) and wait until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    bench, xcluster = build()
    work = os.path.join(".bench_work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = ".bench_trace"
    cmd = [bench, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--xcluster", xcluster, "--workdir", work]
    if a.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    env = dict(os.environ, XC_DOMAINS="1")
    env.pop("XC_FAULTS", None)
    # One CPU for the load generator and the daemon it spawns: every
    # hand-off is then a same-core switch, where a cross-CPU wake-up on a
    # virtual machine costs ~150 us and varies from run to run.
    cpu = max(os.sched_getaffinity(0))
    cmd += ["--nproc", str(os.cpu_count()), "--cpu", str(cpu)]
    # its own process group, so a timeout reaps the daemon it spawned too
    p = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(p.pid)
        p.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        reap_group(p.pid)
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(".bench_work")
    except OSError:
        pass
    text = out.decode()
    sys.stdout.write(text)
    sys.stdout.flush()
    if p.returncode != 0:
        sys.exit(p.returncode if p.returncode > 0 else 1)
    lines = text.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = list(result.get("metrics", {}))
    want = expected_metrics(a.trace)
    if got != want:
        fail("metric names differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)))


if __name__ == "__main__":
    main()
