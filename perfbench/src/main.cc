// Benchmark binary: runs one workload and prints its result as one JSON line.
//
//   cgraph_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--reduced] [--out-dir DIR]
//
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value", "unit"}}}
// with the end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
// Progress and correctness problems go to standard error. Exit code: 0 when every job
// matched the reference, 1 when any did not, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: cgraph_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reduced] [--out-dir DIR]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reduced") {
      options.reduced = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseUint(value, &n)) {
      options.seed = n;
    } else if (arg == "--seconds" && ParseUint(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && ParseUint(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!have_workload || !known) {
    return Usage("--workload must be batch_mix, query_service or async_checkpoint");
  }

  const perfbench::RunResult result = perfbench::RunWorkload(options);
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "problem: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return result.correct() ? 0 : 1;
}
