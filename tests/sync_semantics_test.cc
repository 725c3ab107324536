// White-box tests of the Push synchronization semantics (paper Algorithms 1-2) on
// hand-crafted graphs whose replica layout is known exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/algorithms/pagerank.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/edge_list.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph {
namespace {

EngineOptions Opts() {
  EngineOptions options;
  options.num_workers = 2;
  return options;
}

// Path 0 -> 1 -> 2 cut into two single-edge partitions: vertex 1 is replicated (one
// replica per partition), so every hop crosses the replica boundary through Push.
class TwoPartitionPathTest : public ::testing::Test {
 protected:
  TwoPartitionPathTest() {
    EdgeList edges;
    edges.Add(0, 1, 1.0f);
    edges.Add(1, 2, 1.0f);
    PartitionOptions popts;
    popts.num_partitions = 2;
    popts.partitioner = PartitionerKind::kEvenEdge;
    popts.core_subgraph = false;
    pg_ = PartitionedGraphBuilder::Build(edges, popts);
  }
  PartitionedGraph pg_;
};

TEST_F(TwoPartitionPathTest, LayoutIsAsExpected) {
  ASSERT_EQ(pg_.num_partitions(), 2u);
  EXPECT_EQ(pg_.partition(0).num_local_edges(), 1u);
  EXPECT_EQ(pg_.partition(1).num_local_edges(), 1u);
  // Vertex 1 appears in both partitions; exactly one replica is the master.
  uint32_t replicas = 0;
  uint32_t masters = 0;
  for (PartitionId p = 0; p < 2; ++p) {
    for (LocalVertexId v = 0; v < pg_.partition(p).num_local_vertices(); ++v) {
      if (pg_.partition(p).vertex(v).global_id == 1) {
        ++replicas;
        masters += pg_.partition(p).vertex(v).is_master ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(replicas, 2u);
  EXPECT_EQ(masters, 1u);
  EXPECT_DOUBLE_EQ(pg_.replication_factor(), 4.0 / 3.0);
}

TEST_F(TwoPartitionPathTest, SsspCrossesReplicaBoundary) {
  LtpEngine engine(&pg_, Opts());
  const JobId id = engine.Submit(std::make_unique<SsspProgram>(0)).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  const auto dist = engine.FinalValues(id);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  // Iteration 1 relaxes 0->1, iteration 2 relaxes 1->2 (in whichever partition holds the
  // edge), iteration 3 finds nothing active.
  EXPECT_EQ(report.jobs[0].iterations, 3u);
  // Exactly one sync record flows: 0 scatters into vertex 1 in the partition holding its
  // *master*, so no mirror->master record exists and the Push stage emits a single
  // master->mirror broadcast that activates the replica owning edge 1->2.
  EXPECT_EQ(report.jobs[0].push_updates, 1u);
}

TEST_F(TwoPartitionPathTest, PageRankMassConserved) {
  LtpEngine engine(&pg_, Opts());
  const JobId id = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-12)).id();
  engine.RunUntilIdle();
  const auto rank = engine.FinalValues(id);
  // Closed form for the 3-vertex path with damping d and base (1-d):
  //   r0 = 0.15, r1 = 0.15 + d*r0, r2 = 0.15 + d*r1.
  EXPECT_NEAR(rank[0], 0.15, 1e-9);
  EXPECT_NEAR(rank[1], 0.15 + 0.85 * rank[0], 1e-9);
  EXPECT_NEAR(rank[2], 0.15 + 0.85 * rank[1], 1e-9);
}

// Diamond 0 -> {1, 2} -> 3 split so that vertex 3 receives contributions in two
// partitions within the same iteration: the mirror's buffered delta and the master's
// in-place delta must merge through Acc, not overwrite each other.
TEST(SyncMergeTest, ContributionsFromTwoPartitionsMerge) {
  EdgeList edges;
  edges.Add(0, 1, 1.0f);
  edges.Add(1, 3, 1.0f);
  edges.Add(0, 2, 1.0f);
  edges.Add(2, 3, 5.0f);
  PartitionOptions popts;
  popts.num_partitions = 2;
  popts.partitioner = PartitionerKind::kEvenEdge;
  popts.core_subgraph = false;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  LtpEngine engine(&pg, Opts());
  const JobId sssp = engine.Submit(std::make_unique<SsspProgram>(0)).id();
  engine.RunUntilIdle();
  const auto dist = engine.FinalValues(sssp);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);  // min(1+1, 1+5): the Acc-min across partitions.

  // And for a sum accumulator both contributions must arrive.
  LtpEngine pr_engine(&pg, Opts());
  const JobId pr = pr_engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-12)).id();
  pr_engine.RunUntilIdle();
  const auto rank = pr_engine.FinalValues(pr);
  // Vertex 3 receives damped mass from both 1 and 2.
  EXPECT_NEAR(rank[3], 0.15 + 0.85 * rank[1] + 0.85 * rank[2], 1e-9);
}

// A vertex replicated across MANY partitions (star hub cut into several chunks): the
// hub's delta must broadcast identically to every replica.
TEST(SyncMergeTest, HubReplicaConsistencyAcrossManyPartitions) {
  EdgeList edges;
  const VertexId kLeaves = 32;
  for (VertexId v = 1; v <= kLeaves; ++v) {
    edges.Add(0, v, 1.0f);  // Hub out-edges.
    edges.Add(v, 0, 1.0f);  // Leaf back-edges.
  }
  PartitionOptions popts;
  popts.num_partitions = 8;
  popts.partitioner = PartitionerKind::kEvenEdge;
  popts.core_subgraph = false;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  LtpEngine engine(&pg, Opts());
  const JobId id = engine.Submit(std::make_unique<WccProgram>()).id();
  engine.RunUntilIdle();
  const auto labels = engine.FinalValues(id);
  for (VertexId v = 0; v <= kLeaves; ++v) {
    EXPECT_DOUBLE_EQ(labels[v], 0.0) << v;  // One component, min id 0.
  }
}

// Convergence bookkeeping: after the run no partition may remain registered, and the
// result of re-running on the same partitioned graph must be identical (the engine does
// not mutate the structure).
TEST(SyncMergeTest, StructureIsImmutableAcrossRuns) {
  const EdgeList edges = [] {
    EdgeList e;
    e.Add(0, 1, 2.0f);
    e.Add(1, 2, 3.0f);
    e.Add(2, 0, 4.0f);
    return e;
  }();
  PartitionOptions popts;
  popts.num_partitions = 3;
  popts.partitioner = PartitionerKind::kEvenEdge;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  std::vector<double> first;
  for (int run = 0; run < 2; ++run) {
    LtpEngine engine(&pg, Opts());
    const JobId id = engine.Submit(std::make_unique<SsspProgram>(0)).id();
    engine.RunUntilIdle();
    const auto dist = engine.FinalValues(id);
    if (run == 0) {
      first = dist;
    } else {
      EXPECT_EQ(dist, first);
    }
  }
}

}  // namespace
}  // namespace cgraph
