// Assertion and configuration helpers shared by the engine, baseline, and
// integration suites.

#ifndef TESTS_TESTING_TEST_HELPERS_H_
#define TESTS_TESTING_TEST_HELPERS_H_

#include <string>
#include <vector>

#include "src/core/engine_options.h"
#include "src/core/vertex_program.h"
#include "src/metrics/run_report.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph {
namespace test_support {

// EngineOptions sized so that test-graph working sets contend for cache:
// `cache_kib` KiB of cache in 4 KiB segments over 64 MiB of memory, 4 workers.
EngineOptions TestEngineOptions(uint64_t cache_kib = 64);

// Element-wise parity check used by every engine-vs-reference suite.
// Infinities must match exactly (unreached vertices); finite values must agree
// within `tolerance`. `what` prefixes every failure message.
void ExpectNearValues(const std::vector<double>& actual,
                      const std::vector<double>& expected, double tolerance,
                      const std::string& what);

// The report's modeled CSV (RunReportToCsv under the default CostModel) with every
// wall-clock field zeroed: the machine-independent form the committed goldens pin.
std::string ModeledCsv(RunReport report);

// Contents of tests/golden/<name> in the source tree; fails the calling test when the
// file is missing.
std::string ReadGolden(const std::string& name);

// Checks that a fixture reaches the thread pool from the engine's first iteration:
// every partition of `pg` covers two JobManager::kSweepGrain chunks, so its bookkeeping
// sweeps are chunked, and `program`'s initial frontier in every partition alone reaches
// TriggerStage::kPooledActiveVertices, so every trigger batch holding the job
// dispatches. Tests that compare worker counts use it to prove the pooled paths ran.
void ExpectReachesPooledDispatch(const PartitionedGraph& pg, const VertexProgram& program);

}  // namespace test_support
}  // namespace cgraph

#endif  // TESTS_TESTING_TEST_HELPERS_H_
