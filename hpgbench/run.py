#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (see BENCHMARK.json).

    python3 hpgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
runner (Release) under .bench_build/ from the sources in the checkout; later
calls only re-check the build. The script then sets the workload's OpenMP
thread count, refuses a workload whose ranks x workers x threads exceeds the
host's cores, and runs the runner, whose last stdout line is the JSON result.
Traced runs (--trace 1) also write Chrome trace-event JSON under
.bench_build/traces/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hpgbench")

# name -> (ranks, service workers, OpenMP threads per rank or worker)
WORKLOADS = {
    "cache-1x32": (1, 1, 1),
    "dram-4x48": (4, 1, 1),
    "service-mix": (1, 2, 1),
}

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library and runner sources (the checkout has no git)."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()[:12]
        return "unknown"
    return ref[:12]


def build(jobs):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", str(jobs)]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("error: the library sources (CMakeLists.txt, src/) are not next "
            "to hpgbench/; run from a full checkout")
        return 2

    ranks, workers, threads = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    budget = ranks * workers * threads
    if budget > nproc:
        log(f"refusing {args.workload}: ranks({ranks}) x workers({workers}) "
            f"x threads({threads}) = {budget} exceeds nproc {nproc}")
        return 3

    if not build(min(4, nproc)):
        log("error: build failed")
        return 2

    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    # Binding would pin the initial thread, and with it every ThreadComm rank
    # and service worker thread spawned from it, to a single core.
    env["OMP_PROC_BIND"] = "false"
    cmd = [os.path.join(BUILD, "hpgbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    print(f"commit={commit()} source_digest={source_digest()} nproc={nproc} "
          f"budget={budget}", flush=True)
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"error: run exceeded {RUN_TIMEOUT_S} s")
        return 4


if __name__ == "__main__":
    sys.exit(main())
