#!/usr/bin/env python3
"""End-to-end benchmark of the CGraph engine.

    python3 perfbench/run.py --workload batch_mix --seed 1 --seconds 20 --trace 0

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the engine from
this checkout's src/) into .bench_build/, runs one workload and prints one JSON object
as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer
metrics and writes a Chrome trace-event file (open it in Perfetto) and a per-layer
self-time summary to .bench_build/traces/. The printed names and units are checked
against BENCHMARK.json before the line is printed. Exit code 0 means every job matched
the reference implementation; anything else means no result line was printed.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "cgraph_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_child(cmd, timeout_s, capture):
    """Runs cmd in its own process group; on timeout kills the whole group and waits."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout_s))
    return proc.returncode, out


def build():
    """Configures (once) and builds the binary; a no-op build when nothing changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "cgraph_perfbench", "-j", jobs]
    code, _ = run_child(cmd, BUILD_TIMEOUT_S, capture=False)
    if code != 0:
        raise BenchError("build failed")


def load_spec():
    with open(SPEC) as f:
        spec = json.load(f)
    return spec


def declared(spec, trace):
    """Name -> unit of the metrics a run with this trace flag must print."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, spec, trace):
    """Raises BenchError unless `result` has the result-line shape and the declared metrics."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise BenchError("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("nothing was attempted")
    want = declared(spec, trace)
    got = result["metrics"]
    for name, metric in got.items():
        if not NAME_RE.match(name):
            raise BenchError("metric name %r has characters outside [A-Za-z0-9_.-]" % name)
        if name not in want:
            raise BenchError("metric %s is not declared in BENCHMARK.json" % name)
        if metric.get("unit") != want[name]:
            raise BenchError("metric %s has unit %r, BENCHMARK.json says %r"
                             % (name, metric.get("unit"), want[name]))
        if not isinstance(metric.get("value"), (int, float)):
            raise BenchError("metric %s has no numeric value" % name)
    missing = sorted(set(want) - set(got))
    if missing:
        raise BenchError("metrics not printed: %s" % ", ".join(missing))


def run_workload(workload, seed, seconds, trace, reduced=False):
    """Builds if needed, runs one workload and returns (exit code, parsed result).

    reduced=True runs the self-test's small inputs (selftest.py only)."""
    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", TRACE_DIR]
    if reduced:
        cmd.append("--reduced")
    code, out = run_child(cmd, RUN_TIMEOUT_S, capture=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise BenchError("cgraph_perfbench printed no result (exit code %d)" % code)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError("the last line of cgraph_perfbench is not JSON: %s" % lines[-1][:200])
    return code, result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if not os.path.exists(SPEC):
            raise BenchError("BENCHMARK.json not found at the checkout root")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError("unknown workload %s (have %s)" % (args.workload, ", ".join(names)))
        code, result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
        check_result(result, spec, args.trace == 1)
        if code != 0 or not result["correct"]:
            raise BenchError("%d of %d jobs or requests failed or differ from the reference"
                             % (result["failed"], result["attempted"]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
