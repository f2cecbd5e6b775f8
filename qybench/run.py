#!/usr/bin/env python3
"""Build qybench from source, run one workload, stamp and record the result.

    python3 qybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. The first run configures a Release
build of the libraries plus the harness under $CARGO_TARGET_DIR/qybench
(default .bench_build/qybench); later runs only rebuild what changed. A build
tree whose CMAKE_BUILD_TYPE is not Release is refused unless --force is
given.

The harness runs in <build>/run with TMPDIR=<build>/tmp, so its UNIX socket,
spill files and span traces stay inside the build tree. Its stdout is passed
through; the line before the last is the stamp (commit, build type, compiler,
nproc, measured effective CPUs, seed) and the last line is the result JSON.
Each run is also appended as one JSON line to <build>/ledger.jsonl. The exit
code is the harness's: nonzero when any correctness check failed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "qybench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 2


def die(message):
    print("qybench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def cache_value(cache_path, key):
    with open(cache_path) as f:
        for line in f:
            name, sep, value = line.rstrip("\n").partition("=")
            if sep and name.split(":")[0] == key:
                return value
    return ""


def git_stamp():
    """Commit and dirty flag, or nulls outside a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30)

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    if sha.returncode != 0 or status.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def build(build_dir, force):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no source tree at " + ROOT + " (src/CMakeLists.txt is missing)")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release" and not force:
        die("%s is a %r build; timings need Release (or pass --force)"
            % (build_dir, build_type))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "qybench",
                   "-j", str(BUILD_JOBS)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return build_type


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--force", action="store_true",
                        help="run on a build tree that is not Release")
    args = parser.parse_args()

    metrics, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        die("unknown workload %r (BENCHMARK.json lists %s)"
            % (args.workload, ", ".join(workloads)))

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "qybench")
    build_type = build(build_dir, args.force)
    run_dir = os.path.join(build_dir, "run")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "qybench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, TMPDIR=tmp_dir))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("qybench did not finish within %d s" % RUN_TIMEOUT_S)

    lines = out.splitlines()
    stamp_lines = [l for l in lines if l.startswith("stamp ")]
    try:
        result = json.loads(lines[-1])
        stamp = json.loads(stamp_lines[0][len("stamp "):])
    except (IndexError, ValueError):
        for line in lines:
            print(line, file=sys.stderr)
        die("qybench exited %d without a result line" % proc.returncode)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("result line has keys %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != metrics:
        die("metrics %s do not match BENCHMARK.json's %s"
            % (sorted(got.items()), sorted(metrics.items())))

    stamp.update(git_stamp())
    stamp["cmake_build_type"] = build_type
    for line in lines[:-1]:
        if not line.startswith("stamp "):
            print(line)
    print("stamp " + json.dumps(stamp))
    print(lines[-1])
    sys.stdout.flush()
    with open(os.path.join(build_dir, "ledger.jsonl"), "a") as ledger:
        ledger.write(json.dumps({"time": time.time(), "exit": proc.returncode,
                                 "stamp": stamp, "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
