#!/usr/bin/env python3
"""Build and run the XSP benchmark.

    python3 perfbench/run.py --workload zoo_profile --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the repository's libraries and the
benchmark binary into .bench_build/perfbench (Release) on first use, runs
one workload, and passes the binary's output through. The last line of
standard output is the result object; build output goes to standard error.
Exits non-zero, without a result, if the sources are missing or the build
fails, and with the binary's exit code otherwise.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "xsp_perfbench")
WORKLOADS = ("zoo_profile", "fleet_ingest", "live_tracing")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no XSP sources under {ROOT}/src; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "xsp_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", os.path.join(ROOT, ".bench_run")]
    # A signal to this script ends the benchmark binary too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(60.0, args.seconds * 6))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("the benchmark did not finish in time")
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(proc.returncode or 1)

    # The binary's metric names must be exactly those BENCHMARK.json lists.
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(want):
        print("run.py: metric names differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(want))}", file=sys.stderr)
        sys.exit(1)
    if not args.trace:
        zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
        if zero:
            print(f"run.py: end-to-end metrics not measured: {zero}", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
