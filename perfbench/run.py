#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload release|serve|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the agmdp CLI and the benchmark binary
from source into $CARGO_TARGET_DIR (default .bench_build), runs the
workload, and passes the binary's output through: its last line is the
result object, holding the metrics BENCHMARK.json lists for the mode.
Scratch files go to .bench_run/, result records and Chrome
traces to .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("src", "tools", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                      "--target"] + targets)
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return out


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in SOURCE_DIRS + ("CMakeLists.txt",):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def reported_metrics(trace):
    """The metric names BENCHMARK.json lists for this mode, in its order."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric list from BENCHMARK.json: %s" % e)


def run_workload(out, workload, seed, seconds, trace, tiny=False):
    """Runs the benchmark binary once; returns (exit code, stdout text)."""
    workdir = os.path.join(ROOT, ".bench_run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(out, "agmdp_perfbench"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--workdir=" + workdir,
           "--out-dir=" + os.path.join(ROOT, ".bench_out"),
           "--cli=" + os.path.join(out, "agmdp", "agmdp"),
           "--commit=" + source_revision(),
           "--report=" + ",".join(reported_metrics(trace))]
    if tiny:
        cmd.append("--tiny")
    # Own process group, so a timed-out run takes its daemons down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        code, stdout = 1, ""
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return code, stdout


def self_test():
    """Helper unit tests, then a tiny run of every workload, both modes."""
    out = build(["agmdp_perfbench", "agmdp_cli", "agmdp_perfbench_test"])
    failures = 0
    if subprocess.call([os.path.join(out, "agmdp_perfbench_test")]) != 0:
        failures += 1
    for workload in ("release", "serve", "churn"):
        for trace in (0, 1):
            code, stdout = run_workload(out, workload, 1, 1, trace, tiny=True)
            last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
            ok = code == 0 and last.startswith('{"correct": true')
            print("smoke %-8s trace=%d %s" % (workload, trace,
                                              "ok" if ok else "FAILED"))
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("release", "serve", "churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no agmdp sources beside perfbench/ in " + ROOT)
    if args.self_test:
        return self_test()
    if args.workload is None:
        fail("--workload is required")
    out = build(["agmdp_perfbench", "agmdp_cli"])
    code, stdout = run_workload(out, args.workload, args.seed, args.seconds,
                                args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
