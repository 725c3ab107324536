// Lifetime-footprint forecasting: profile accumulation and decay, bucket-grid edge
// cases (short, uneven, and long traces), runner projection, prediction fallback when a
// program type has no completed history, and determinism of learned profiles across
// repeated runs and worker counts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/wcc.h"
#include "src/core/footprint_history.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

using Trace = std::vector<std::vector<PartitionId>>;

TEST(FootprintHistoryTest, SingleJobProfileMatchesItsTrace) {
  FootprintHistory history(/*num_partitions=*/3, /*buckets=*/4, /*decay=*/0.5);
  EXPECT_FALSE(history.HasProfile("bfs"));
  // Four iterations onto four buckets: iteration i is bucket i exactly.
  history.RecordCompletion("bfs", Trace{{0}, {0, 1}, {1}, {2}}, /*iterations=*/4);
  ASSERT_TRUE(history.HasProfile("bfs"));
  EXPECT_EQ(history.num_profiles(), 1u);
  EXPECT_DOUBLE_EQ(history.ExpectedLifetime("bfs"), 4.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("bfs", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("bfs", 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("bfs", 1, 1), 1.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("bfs", 2, 0), 0.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("bfs", 3, 2), 1.0);
  // Lifetime weight = occupancy integrated over buckets.
  EXPECT_DOUBLE_EQ(history.LifetimeWeight("bfs", 0), 0.5);
  EXPECT_DOUBLE_EQ(history.LifetimeWeight("bfs", 1), 0.5);
  EXPECT_DOUBLE_EQ(history.LifetimeWeight("bfs", 2), 0.25);
}

TEST(FootprintHistoryTest, DecayWeighsRecentJobsHigher) {
  FootprintHistory history(/*num_partitions=*/2, /*buckets=*/2, /*decay=*/0.5);
  // First job lives on partition 0, second on partition 1. With decay 0.5 the older
  // job's contribution is halved before the newer folds in: weight = 0.5 + 1 = 1.5,
  // so p0 occupancy = 0.5/1.5 and p1 = 1/1.5.
  history.RecordCompletion("job", Trace{{0}, {0}}, /*iterations=*/2);
  history.RecordCompletion("job", Trace{{1}, {1}}, /*iterations=*/2);
  EXPECT_DOUBLE_EQ(history.Occupancy("job", 0, 0), 0.5 / 1.5);
  EXPECT_DOUBLE_EQ(history.Occupancy("job", 0, 1), 1.0 / 1.5);
  // Lifetimes decay the same way: (2 * 0.5 + 6) / 1.5.
  history.RecordCompletion("life", Trace{{0}, {0}}, 2);
  history.RecordCompletion("life", Trace{{0}, {0}, {0}, {0}, {0}, {0}}, 6);
  EXPECT_DOUBLE_EQ(history.ExpectedLifetime("life"), (2.0 * 0.5 + 6.0) / 1.5);

  // decay = 0 keeps only the latest job.
  FootprintHistory latest_only(/*num_partitions=*/2, /*buckets=*/2, /*decay=*/0.0);
  latest_only.RecordCompletion("job", Trace{{0}, {0}}, 2);
  latest_only.RecordCompletion("job", Trace{{1}, {1}}, 2);
  EXPECT_DOUBLE_EQ(latest_only.Occupancy("job", 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(latest_only.Occupancy("job", 0, 1), 1.0);

  // decay = 1 is the plain mean.
  FootprintHistory mean(/*num_partitions=*/2, /*buckets=*/2, /*decay=*/1.0);
  mean.RecordCompletion("job", Trace{{0}, {0}}, 2);
  mean.RecordCompletion("job", Trace{{1}, {1}}, 2);
  EXPECT_DOUBLE_EQ(mean.Occupancy("job", 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(mean.Occupancy("job", 0, 1), 0.5);
}

TEST(FootprintHistoryTest, ShortTraceStretchesAcrossBuckets) {
  // One iteration, four buckets: the single iteration covers the whole lifetime, so
  // every bucket sees its partitions at full occupancy.
  FootprintHistory history(/*num_partitions=*/2, /*buckets=*/4, /*decay=*/0.5);
  history.RecordCompletion("one", Trace{{0, 1}}, /*iterations=*/1);
  for (uint32_t b = 0; b < 4; ++b) {
    EXPECT_DOUBLE_EQ(history.Occupancy("one", b, 0), 1.0) << b;
    EXPECT_DOUBLE_EQ(history.Occupancy("one", b, 1), 1.0) << b;
  }
}

TEST(FootprintHistoryTest, UnevenTraceSplitsBucketsFractionally) {
  // Three iterations over two buckets: iteration 1 (active on p0 only) spans the bucket
  // boundary. Bucket 0 = iter 0 (2/3 of it) + first half of iter 1 -> p0 occupancy 1;
  // bucket 1 = second half of iter 1 (1/3) + iter 2 (2/3, on p1).
  FootprintHistory history(/*num_partitions=*/2, /*buckets=*/2, /*decay=*/0.5);
  history.RecordCompletion("mix", Trace{{0}, {0}, {1}}, /*iterations=*/3);
  EXPECT_DOUBLE_EQ(history.Occupancy("mix", 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("mix", 0, 1), 0.0);
  EXPECT_NEAR(history.Occupancy("mix", 1, 0), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(history.Occupancy("mix", 1, 1), 2.0 / 3.0, 1e-12);
}

TEST(FootprintHistoryTest, LongTraceAveragesWithinBuckets) {
  // Eight iterations over two buckets: partition 0 is active in 2 of bucket 0's 4
  // iterations and in none of bucket 1's.
  FootprintHistory history(/*num_partitions=*/1, /*buckets=*/2, /*decay=*/0.5);
  history.RecordCompletion("long", Trace{{0}, {0}, {}, {}, {}, {}, {}, {}},
                           /*iterations=*/8);
  EXPECT_DOUBLE_EQ(history.Occupancy("long", 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(history.Occupancy("long", 1, 0), 0.0);
}

TEST(FootprintHistoryTest, RowsBeyondIterationsAndZeroIterationJobsAreIgnored) {
  FootprintHistory history(/*num_partitions=*/2, /*buckets=*/2, /*decay=*/0.5);
  // A job's final activation refresh registers an iteration that never runs; that row
  // must not contribute.
  history.RecordCompletion("job", Trace{{0}, {0}, {1}}, /*iterations=*/2);
  EXPECT_DOUBLE_EQ(history.Occupancy("job", 1, 1), 0.0);
  EXPECT_DOUBLE_EQ(history.Occupancy("job", 1, 0), 1.0);
  // Zero-iteration completions (nothing initially active) carry no signal at all.
  history.RecordCompletion("instant", Trace{}, /*iterations=*/0);
  EXPECT_FALSE(history.HasProfile("instant"));
}

TEST(FootprintHistoryTest, PredictOverlapProjectsRunnersThroughTheirProfiles) {
  FootprintHistory history(/*num_partitions=*/2, /*buckets=*/4, /*decay=*/0.5);
  // Waiter type: 8 iterations, always on partition 0. Runner type: 2 iterations,
  // always on partition 0.
  history.RecordCompletion("w", Trace(8, {0}), 8);
  history.RecordCompletion("short", Trace(2, {0}), 2);
  const std::vector<uint32_t> on_p0 = {5, 0};

  // A runner with a profile is projected forward through it: at waiter bucket
  // midpoints (iteration offsets 1, 3, 5, 7 of the waiter's 8-iteration lifetime), a
  // "short" runner already at iteration 1 of an expected 2 is predicted finished
  // everywhere -> overlap 0.
  const std::vector<PredictedRunner> late = {{"short", 1, &on_p0}};
  EXPECT_DOUBLE_EQ(history.PredictOverlap("w", late), 0.0);
  // At iteration 0 it still covers the first midpoint (offset 1 -> position 0.5 of its
  // lifetime) and is predicted gone for the rest: overlap = 1 of 4 buckets.
  const std::vector<PredictedRunner> fresh = {{"short", 0, &on_p0}};
  EXPECT_DOUBLE_EQ(history.PredictOverlap("w", fresh), 0.25);
  // A runner with no profile persists on its current active set for good.
  const std::vector<PredictedRunner> persistent = {{"unknown", 0, &on_p0}};
  EXPECT_DOUBLE_EQ(history.PredictOverlap("w", persistent), 1.0);
  // No runners: nothing to share with.
  EXPECT_DOUBLE_EQ(history.PredictOverlap("w", {}), 0.0);
}

// --- Engine integration: history is fed by real completions, deterministically -------

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.partitioner = PartitionerKind::kEvenEdge;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

TEST(FootprintHistoryEngineTest, CompletedJobsPopulateProfilesAndReleaseTraces) {
  const EdgeList edges = GenerateErdosRenyi(250, 2000, 71);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  EngineOptions options = test_support::TestEngineOptions();
  options.admission_policy = AdmissionPolicyKind::kPredict;
  LtpEngine engine(&pg, options);
  const LtpEngine::JobHandle pr = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
  const LtpEngine::JobHandle bfs = engine.Submit(std::make_unique<BfsProgram>(source));
  engine.RunUntilIdle();

  const FootprintHistory& history = engine.footprint_history();
  ASSERT_TRUE(history.HasProfile("pagerank"));
  ASSERT_TRUE(history.HasProfile("bfs"));
  EXPECT_DOUBLE_EQ(history.ExpectedLifetime("pagerank"),
                   static_cast<double>(pr.stats().iterations));
  EXPECT_DOUBLE_EQ(history.ExpectedLifetime("bfs"),
                   static_cast<double>(bfs.stats().iterations));
  // PageRank sweeps the whole graph every iteration: full occupancy everywhere.
  for (uint32_t b = 0; b < history.buckets(); ++b) {
    for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
      EXPECT_DOUBLE_EQ(history.Occupancy("pagerank", b, p), 1.0) << b << "," << p;
    }
  }
  // Traces are folded into the profile and released at completion.
  EXPECT_TRUE(engine.job(pr.id()).activity_trace().empty());
  EXPECT_TRUE(engine.job(bfs.id()).activity_trace().empty());
}

TEST(FootprintHistoryEngineTest, ProfilesAreIdenticalAcrossRunsAndWorkerCounts) {
  const EdgeList edges = GenerateErdosRenyi(20000, 100000, 73);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 4);
  // Profiles are learned from modeled activation traces, so they must not depend on
  // worker interleaving. The fixture is large enough that at workers > 1 the bookkeeping
  // sweeps and trigger batches really run on the pool.
  test_support::ExpectReachesPooledDispatch(pg, PageRankProgram(0.85, 1e-8));

  auto profile_dump = [&](uint32_t workers) {
    EngineOptions options = test_support::TestEngineOptions();
    options.admission_policy = AdmissionPolicyKind::kPredict;
    options.num_workers = workers;
    options.max_jobs = 2;
    LtpEngine engine(&pg, options);
    engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
    engine.Submit(std::make_unique<WccProgram>());
    engine.SubmitAt(std::make_unique<BfsProgram>(source), 3);
    engine.SubmitAt(std::make_unique<WccProgram>(), 6);
    engine.SubmitAt(std::make_unique<BfsProgram>(source), 9);
    engine.RunUntilIdle();
    const FootprintHistory& history = engine.footprint_history();
    std::vector<double> dump;
    for (const char* type : {"pagerank", "wcc", "bfs"}) {
      EXPECT_TRUE(history.HasProfile(type)) << type;
      dump.push_back(history.ExpectedLifetime(type));
      for (uint32_t b = 0; b < history.buckets(); ++b) {
        for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
          dump.push_back(history.Occupancy(type, b, p));
        }
      }
    }
    for (JobId id = 0; id < engine.num_jobs(); ++id) {
      dump.push_back(static_cast<double>(engine.job(id).stats().wait_steps));
      dump.push_back(engine.job(id).stats().admit_overlap);
      dump.push_back(engine.job(id).stats().predicted_overlap);
    }
    return dump;
  };
  const std::vector<double> baseline = profile_dump(1);
  EXPECT_EQ(baseline, profile_dump(1)) << "same worker count, repeated run";
  EXPECT_EQ(baseline, profile_dump(4)) << "different worker count";
}

}  // namespace
}  // namespace cgraph
