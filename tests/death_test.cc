// Death tests: programmer errors must fail fast with a diagnostic, not corrupt state.

#include <gtest/gtest.h>

#include <limits>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/core/scheduler.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph {
namespace {

TEST(CheckDeathTest, CheckAbortsWithExpression) {
  EXPECT_DEATH(CGRAPH_CHECK(1 == 2), "CHECK failed");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH(CGRAPH_CHECK_EQ(1, 2), "CHECK failed");
  EXPECT_DEATH(CGRAPH_CHECK_LT(3, 2), "CHECK failed");
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_DEATH((void)result.value(), "CHECK failed");
}

TEST(GeneratorDeathTest, RmatScaleBeyondVertexIdAborts) {
  RmatOptions options;
  options.scale = 32;
  options.edge_factor = 1;
  EXPECT_DEATH(GenerateRmat(options), "CHECK failed");
}

TEST(SchedulerDeathTest, ThetaScaleOutsideUnitIntervalAborts) {
  const EdgeList edges = GenerateRing(8);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  // NaN is the case a clamp used to let through: every priority became NaN.
  EXPECT_DEATH(Scheduler(pg, true, std::numeric_limits<double>::quiet_NaN()),
               "CHECK failed");
  EXPECT_DEATH(Scheduler(pg, true, 1.5), "CHECK failed");
  EXPECT_DEATH(Scheduler(pg, true, -0.5), "CHECK failed");
}

}  // namespace
}  // namespace cgraph
