// Program-level unit tests: initial states, activation predicates, accumulator kinds,
// and the newer algorithms (personalized PageRank, k-hop) end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/khop.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

LocalVertexInfo Info(VertexId id, uint32_t out_degree = 3, uint32_t total_degree = 5) {
  LocalVertexInfo info;
  info.global_id = id;
  info.global_out_degree = out_degree;
  info.global_total_degree = total_degree;
  return info;
}

TEST(ProgramContractTest, PageRank) {
  PageRankProgram program(0.85, 1e-9);
  EXPECT_EQ(program.acc_kind(), AccKind::kSum);
  const VertexState s = program.InitialState(Info(7));
  EXPECT_DOUBLE_EQ(s.value, 0.0);
  EXPECT_DOUBLE_EQ(s.delta, 0.15);
  EXPECT_TRUE(program.IsActive(s));
  VertexState converged = s;
  converged.delta = 1e-12;
  EXPECT_FALSE(program.IsActive(converged));
}

TEST(ProgramContractTest, SsspSourceOnlyActive) {
  SsspProgram program(3);
  EXPECT_EQ(program.acc_kind(), AccKind::kMin);
  EXPECT_TRUE(program.IsActive(program.InitialState(Info(3))));
  EXPECT_FALSE(program.IsActive(program.InitialState(Info(4))));
}

TEST(ProgramContractTest, BfsMirrorsSssp) {
  BfsProgram program(1);
  EXPECT_EQ(program.acc_kind(), AccKind::kMin);
  EXPECT_TRUE(program.IsActive(program.InitialState(Info(1))));
  EXPECT_FALSE(program.IsActive(program.InitialState(Info(0))));
}

TEST(ProgramContractTest, WccEveryVertexActive) {
  WccProgram program;
  const VertexState s = program.InitialState(Info(9));
  EXPECT_DOUBLE_EQ(s.delta, 9.0);
  EXPECT_TRUE(program.IsActive(s));
}

TEST(ProgramContractTest, SccStartsInForwardPhase) {
  SccProgram program;
  EXPECT_EQ(program.acc_kind(), AccKind::kMax);
  const VertexState s = program.InitialState(Info(5));
  EXPECT_TRUE(program.IsActive(s));  // delta (own id) > value (-inf).
  VertexState assigned = s;
  assigned.aux = 6.0;
  EXPECT_FALSE(program.IsActive(assigned));
}

TEST(ProgramContractTest, KCoreInitiallyActiveEvenWithZeroDelta) {
  KCoreProgram program(3);
  const VertexState s = program.InitialState(Info(2, 3, 7));
  EXPECT_DOUBLE_EQ(s.value, 7.0);
  EXPECT_FALSE(program.IsActive(s));                      // No pending decrement...
  EXPECT_TRUE(program.InitiallyActive(Info(2, 3, 7), s));  // ...but first sweep runs.
  VertexState peeled = s;
  peeled.aux = 1.0;
  EXPECT_FALSE(program.InitiallyActive(Info(2, 3, 7), peeled));
}

TEST(ProgramContractTest, KHopBudget) {
  KHopProgram program(0, 2);
  EXPECT_EQ(program.acc_kind(), AccKind::kMin);
  EXPECT_TRUE(program.IsActive(program.InitialState(Info(0))));
  EXPECT_FALSE(program.IsActive(program.InitialState(Info(5))));
}

TEST(ProgramContractTest, PprSeedCarriesAllMass) {
  PersonalizedPageRankProgram program(4, 0.85, 1e-9);
  EXPECT_DOUBLE_EQ(program.InitialState(Info(4)).delta, 0.15);
  EXPECT_DOUBLE_EQ(program.InitialState(Info(5)).delta, 0.0);
}

TEST(FactoryTest, AllNamesConstruct) {
  for (const char* name : {"pagerank", "sssp", "scc", "bfs", "wcc", "kcore", "ppr", "khop"}) {
    const auto program = MakeProgram(name, 0);
    ASSERT_NE(program, nullptr) << name;
    // Factory names may be canonical short forms of the program's own name.
    EXPECT_FALSE(program->name().empty());
  }
}

TEST(FactoryTest, BenchmarkMixCyclesPaperOrder) {
  const auto names = BenchmarkJobNames(6);
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "pagerank");
  EXPECT_EQ(names[1], "sssp");
  EXPECT_EQ(names[2], "scc");
  EXPECT_EQ(names[3], "bfs");
  EXPECT_EQ(names[4], "pagerank");
  EXPECT_EQ(names[5], "sssp");
}

TEST(FactoryTest, PickSourceIsLowestPositiveOutDegree) {
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(2, 0);
  edges.Add(2, 1);
  edges.Add(2, 3);
  // Out-degrees: v0 = 1, v1 = 0, v2 = 3, v3 = 0. The hub (v2) is skipped — a low-degree
  // source keeps traversal footprints localized — and so are the zero-out-degree sinks.
  EXPECT_EQ(PickSourceVertex(edges), 0u);
  // Ties break toward the lowest id.
  EdgeList tied;
  tied.Add(1, 0);
  tied.Add(2, 0);
  EXPECT_EQ(PickSourceVertex(tied), 1u);
  // No vertex has outgoing edges: fall back to 0.
  EXPECT_EQ(PickSourceVertex(EdgeList{}), 0u);
}

class NewAlgorithmEngineTest : public ::testing::Test {
 protected:
  NewAlgorithmEngineTest() {
    edges_ = test_support::FixedRmat(9, 8, 13);
    graph_ = Graph::FromEdges(edges_);
    PartitionOptions popts;
    popts.num_partitions = 6;
    pg_ = PartitionedGraphBuilder::Build(edges_, popts);
    options_ = test_support::TestEngineOptions();
    // Only cache contention is test-sized here; the memory tier stays at the
    // hierarchy default so no structure ever spills to disk.
    options_.hierarchy.memory_capacity_bytes = HierarchyOptions().memory_capacity_bytes;
  }

  EdgeList edges_;
  Graph graph_;
  PartitionedGraph pg_;
  EngineOptions options_;
};

TEST_F(NewAlgorithmEngineTest, PersonalizedPageRankMatchesReference) {
  const VertexId seed = PickSourceVertex(edges_);
  LtpEngine engine(&pg_, options_);
  const JobId id =
      engine.Submit(std::make_unique<PersonalizedPageRankProgram>(seed, 0.85, 1e-11)).id();
  engine.RunUntilIdle();
  const auto expected = ReferencePersonalizedPageRank(graph_, seed, 0.85, 1e-11);
  const auto actual = engine.FinalValues(id);
  for (size_t v = 0; v < expected.size(); ++v) {
    EXPECT_NEAR(actual[v], expected[v], 1e-7) << v;
  }
}

TEST_F(NewAlgorithmEngineTest, KHopMatchesReferenceAndTruncates) {
  const VertexId source = PickSourceVertex(edges_);
  for (const uint32_t hops : {0u, 1u, 2u, 4u}) {
    LtpEngine engine(&pg_, options_);
    const JobId id = engine.Submit(std::make_unique<KHopProgram>(source, hops)).id();
    engine.RunUntilIdle();
    const auto expected = ReferenceKHop(graph_, source, hops);
    const auto actual = engine.FinalValues(id);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(actual[v])) << "hops=" << hops << " v=" << v;
      } else {
        EXPECT_DOUBLE_EQ(actual[v], expected[v]) << "hops=" << hops << " v=" << v;
        EXPECT_LE(actual[v], static_cast<double>(hops));
      }
    }
  }
}

TEST_F(NewAlgorithmEngineTest, KHopTouchesLessDataThanBfs) {
  const VertexId source = PickSourceVertex(edges_);
  LtpEngine khop_engine(&pg_, options_);
  khop_engine.Submit(std::make_unique<KHopProgram>(source, 1));
  khop_engine.RunUntilIdle();
  const RunReport khop = khop_engine.Report();

  LtpEngine bfs_engine(&pg_, options_);
  bfs_engine.Submit(std::make_unique<BfsProgram>(source));
  bfs_engine.RunUntilIdle();
  const RunReport bfs = bfs_engine.Report();

  EXPECT_LT(khop.jobs[0].charge.total_bytes(), bfs.jobs[0].charge.total_bytes());
  EXPECT_LE(khop.jobs[0].iterations, bfs.jobs[0].iterations);
}

TEST_F(NewAlgorithmEngineTest, PprMassBounded) {
  const VertexId seed = PickSourceVertex(edges_);
  LtpEngine engine(&pg_, options_);
  const JobId id = engine.Submit(std::make_unique<PersonalizedPageRankProgram>(seed)).id();
  engine.RunUntilIdle();
  double total = 0.0;
  for (const double v : engine.FinalValues(id)) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_LE(total, 1.0 + 1e-9);  // Mass only leaks through dangling vertices.
}

}  // namespace
}  // namespace cgraph
