// The benchmark's three workloads, each driven through the engine's public API.
//
//   batch_mix         closed batch of six mixed jobs submitted at once (BSP, pooled
//                     workers): the trigger-stage compute layer dominates.
//   query_service     step-clock open loop: a bursty trace of short traversal queries
//                     replayed through ServiceDriver::Run on one worker: per-job and
//                     per-iteration fixed costs dominate.
//   async_checkpoint  closed batch under bounded-staleness async execution with
//                     iteration-boundary checkpoints at high partition count.
//
// Every input (RMAT graph, traversal sources, arrival trace) is derived from the
// workload seed; the engine receives only the generated inputs.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // Measured time: repetitions run until this much has elapsed.
  bool trace = false;     // Traced run: per-layer metrics instead of end-to-end ones.
  bool reduced = false;   // Small inputs for the self-test.
  std::string out_dir;    // Where a traced run writes its trace files.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;  // Jobs (batch) or requests (service) run, over all repetitions.
  uint64_t failed = 0;     // Of those: failed, shed, cancelled, or wrong answer.
  std::vector<std::string> problems;  // Human-readable reasons, empty when correct.
  std::vector<Metric> metrics;
  bool correct() const { return failed == 0 && problems.empty(); }
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Pre: options.workload is one of WorkloadNames().
RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
