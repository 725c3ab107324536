#!/usr/bin/env python3
"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/selftest.py [--seed N]

Checks, for each workload in BENCHMARK.json:
  * every printed metric name matches [A-Za-z0-9_.-]+ and is declared in BENCHMARK.json
    with the unit it is printed with (run.py's check_result);
  * every job and request matched the reference (correct, failed == 0, error_rate 0);
  * the deterministic counts (scheduling steps, compute units, checkpoints, modeled cache
    bytes, latencies in steps, ...) repeat exactly between two traced runs of one seed;
  * a traced run leaves a loadable Chrome trace and a per-layer self-time summary.
Exit code 0 when everything holds; the failures are listed otherwise.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

# Units of wall-clock and memory readings; every other metric is a deterministic count
# that two runs of one seed must reproduce exactly. trace.overhead_ratio is a ratio of
# two wall times.
MEASURED_UNITS = {"s", "us", "ns", "MB", "1/s"}
MEASURED_NAMES = {"trace.overhead_ratio"}
SECONDS = 1


def deterministic(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in MEASURED_UNITS and name not in MEASURED_NAMES}


def check_trace_files(workload, seed, failures):
    stem = os.path.join(run.TRACE_DIR, "%s-seed%d" % (workload, seed))
    try:
        with open(stem + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        with open(stem + ".layers.json") as f:
            layers = json.load(f)["layers"]
    except (OSError, ValueError, KeyError) as e:
        failures.append("%s: trace files missing or unreadable: %s" % (workload, e))
        return
    names = {e["name"] for e in events}
    if not events or not layers or "partition.Build" not in names:
        failures.append("%s: trace has no spans" % workload)


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = run.load_spec()
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        counts = []
        # One untraced run checks the end-to-end names; two traced runs carry every
        # deterministic count.
        for trace in (False, True, True):
            try:
                code, result = run.run_workload(workload, args.seed, SECONDS, trace,
                                                reduced=True)
                run.check_result(result, spec, trace)
            except run.BenchError as e:
                failures.append("%s (trace %d): %s" % (workload, trace, e))
                continue
            if code != 0 or not result["correct"] or result["failed"] != 0:
                failures.append("%s (trace %d): %d of %d failed"
                                % (workload, trace, result["failed"], result["attempted"]))
            if trace:
                if result["metrics"]["error_rate"]["value"] != 0:
                    failures.append("%s: error_rate is not 0" % workload)
                counts.append(deterministic(result))
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            failures.append("%s: counts differ between two runs of seed %d: %s"
                            % (workload, args.seed, ", ".join(diff)))
        check_trace_files(workload, args.seed, failures)
        print("selftest: %s done" % workload, flush=True)
    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
