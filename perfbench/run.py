#!/usr/bin/env python3
"""Build the uavres benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test     # the benchmark's own checks

Run from the repository root. The build goes to .bench_build/perfbench
(Release). The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; a copy of it, with the
environment block and the run's details, is written to
.bench_build/perfbench/results/<workload>/seed<N>-trace<T>.json for
perfbench/compare.py. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_grid", "fleet_n100", "serve_mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build `targets`; compiler output goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path and content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(binary_env):
    """The machine and build a result was measured on. compare.py refuses to
    compare results whose blocks differ in anything but the code identity
    (git_sha, source_digest)."""
    env = dict(binary_env)
    env.update({"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                "git_sha": git_sha(), "source_digest": source_digest()})
    return env


def prefixed(lines, prefix):
    for line in lines:
        if line.startswith(prefix + " "):
            return json.loads(line[len(prefix) + 1:])
    return {}


def self_test():
    """Arithmetic checks, then the metric names and units the binary prints
    against BENCHMARK.json."""
    build(["perfbench", "perfbench_stats_test"])
    subprocess.run([os.path.join(BUILD, "perfbench_stats_test")], check=True)
    out = subprocess.run([os.path.join(BUILD, "perfbench"), "--list-metrics", "1"],
                         check=True, capture_output=True, text=True).stdout
    printed = json.loads(out.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    ok = True
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in declared[kind]]
        got = [tuple(m) for m in printed[kind]]
        if want != got:
            ok = False
            log(f"{kind} metrics differ from BENCHMARK.json:\n  declared {want}\n  printed  {got}")
    names = sorted(w["name"] for w in declared["workloads"])
    if names != sorted(WORKLOADS):
        ok = False
        log(f"workloads differ from BENCHMARK.json: {names}")
    log("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true", help="run the benchmark's own checks")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no uavres sources under {ROOT}/src; run from a full checkout")
        return 2
    if args.test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build(["perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    work = os.path.join(BUILD, "work")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1

    record = {"environment": environment(prefixed(lines, "perfbench-env")),
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result,
              "detail": prefixed(lines, "perfbench-detail")}
    out_dir = os.path.join(BUILD, "results", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
