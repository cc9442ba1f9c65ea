#!/usr/bin/env python3
"""Builds the lossyts benchmark from source and runs its workloads.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, default seed
    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid --trace 1   # per-layer run
    python3 perfbench/run.py --self-test          # the benchmark's own tests
    python3 perfbench/run.py --write-digests      # re-base the output digests

Each workload run prints the benchmark's report and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json when --trace is 0, its per-layer metrics
when --trace is 1. The exit status is 0 only when every output gate passed.
Build files and run files go to .bench_build/ under the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = "perfbench"
BUILD_DIR = os.path.join(".bench_build", "cmake")
RUN_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("sweep", "grid", "serve")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ("BENCHMARK.json", "CMakeLists.txt", "src",
                 os.path.join(BENCH_DIR, "CMakeLists.txt")):
        if not os.path.exists(path):
            fail("run from the lossyts source root: %s is missing" % path)


def build(targets):
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
               "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_id():
    """Git commit when the tree is a checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and os.path.isdir(".git"):
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", BENCH_DIR, "CMakeLists.txt"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def run_binary(argv):
    """Runs the benchmark binary in its own process group; returns
    (exit code, stdout). The whole group is killed on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload run exceeded %d s" % RUN_TIMEOUT_S, 3)
    return proc.returncode, out


def run_workload(spec, workload, seed, seconds, trace, sid, write_digest=None):
    run_dir = os.path.join(RUN_DIR, "%s-s%d-t%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    argv = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--run-dir", run_dir,
            "--digest-dir", os.path.join(BENCH_DIR, "digests"),
            "--source-id", sid]
    if write_digest:
        argv += ["--write-digest", write_digest]
    code, out = run_binary(argv)
    lines = out.splitlines()
    raw = None
    for line in lines:
        if line.startswith("RESULT "):
            raw = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if raw is None or code not in (0, 1):
        fail("%s run ended with status %d and no result" % (workload, code), 3)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(raw, f, indent=1)

    # The contract line: exactly BENCHMARK.json's metrics for this mode. A
    # per-layer metric the workload does not call is 0 (predicted unchanged).
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not trace:
                fail("%s did not report %s" % (workload, m["name"]), 3)
            got = {"value": 0.0, "unit": m["unit"], "samples": 0}
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail("%s reported %s as %r" % (workload, m["name"], got), 3)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print("-- %s %s metrics (seed %d):" %
          (workload, "per-layer" if trace else "end-to-end", seed))
    for name, m in metrics.items():
        samples = raw["metrics"].get(name, {}).get("samples", 0)
        print("   %-36s %18.6f %-6s samples %d" %
              (name, m["value"], m["unit"], samples))
    result = {"correct": bool(raw["correct"]), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    return result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()

    check_tree()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    if args.self_test:
        build(["perfbench_tests"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_tests")]).returncode)

    build(["perfbench"])
    sid = source_id()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        if args.write_digests:
            if workload == "serve":
                continue
            path = os.path.join(BENCH_DIR, "digests", workload + ".txt")
            ok &= run_workload(spec, workload, 42, seconds, 0, sid, path)
        else:
            ok &= run_workload(spec, workload, args.seed, seconds, args.trace,
                               sid)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
