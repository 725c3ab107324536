#include "tests/testing/test_helpers.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "src/core/job_manager.h"
#include "src/core/trigger_stage.h"
#include "src/metrics/csv_writer.h"
#include "src/storage/vertex_state.h"

namespace cgraph {
namespace test_support {

EngineOptions TestEngineOptions(uint64_t cache_kib) {
  EngineOptions options;
  options.num_workers = 4;
  options.hierarchy.cache_capacity_bytes = cache_kib << 10;
  options.hierarchy.cache_segment_bytes = 4ull << 10;
  options.hierarchy.memory_capacity_bytes = 64ull << 20;
  return options;
}

void ExpectNearValues(const std::vector<double>& actual,
                      const std::vector<double>& expected, double tolerance,
                      const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (size_t v = 0; v < actual.size(); ++v) {
    if (std::isinf(expected[v])) {
      EXPECT_TRUE(std::isinf(actual[v])) << what << " vertex " << v;
    } else {
      EXPECT_NEAR(actual[v], expected[v], tolerance) << what << " vertex " << v;
    }
  }
}

std::string ModeledCsv(RunReport report) {
  report.wall_seconds = 0.0;
  for (JobStats& job : report.jobs) {
    job.wall_seconds = 0.0;
  }
  return RunReportToCsv(report, CostModel{});
}

std::string ReadGolden(const std::string& name) {
  const std::string path = std::string(CGRAPH_TEST_SRCDIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void ExpectReachesPooledDispatch(const PartitionedGraph& pg, const VertexProgram& program) {
  for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
    const GraphPartition& part = pg.partition(p);
    EXPECT_GE(part.num_local_vertices(), 2 * JobManager::kSweepGrain) << "partition " << p;
    // The engine's first activity sweep evaluates InitiallyActive over this state.
    uint64_t initially_active = 0;
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      VertexState state = program.InitialState(part.vertex(v));
      state.delta_next = AccIdentity(program.acc_kind());
      initially_active += program.InitiallyActive(part.vertex(v), state) ? 1 : 0;
    }
    EXPECT_GE(initially_active, TriggerStage::kPooledActiveVertices) << "partition " << p;
  }
}

}  // namespace test_support
}  // namespace cgraph
