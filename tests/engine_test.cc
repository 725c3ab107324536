// End-to-end correctness of the LTP engine: every algorithm, on a family of graph
// shapes, must reproduce the single-threaded reference results. Also covers engine
// behaviours: iteration counting, partition skipping, determinism, ablation toggles.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/metrics/csv_writer.h"
#include "src/graph/graph.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

using test_support::GraphCase;
using test_support::StandardGraphCases;

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts = 6) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.partitioner = PartitionerKind::kEvenEdge;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

class EngineAlgorithmTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const GraphCase& Case() { return StandardGraphCases()[GetParam()]; }
};

TEST_P(EngineAlgorithmTest, PageRankMatchesReference) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10)).id();
  engine.RunUntilIdle();
  const auto expected = ReferencePageRank(Graph::FromEdges(c.edges), 0.85, 1e-10);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 1e-6, c.name + "/pagerank");
}

TEST_P(EngineAlgorithmTest, SsspMatchesDijkstra) {
  const GraphCase& c = Case();
  const VertexId source = PickSourceVertex(c.edges);
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<SsspProgram>(source)).id();
  engine.RunUntilIdle();
  const auto expected = ReferenceSssp(Graph::FromEdges(c.edges), source);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 1e-12, c.name + "/sssp");
}

TEST_P(EngineAlgorithmTest, BfsMatchesReference) {
  const GraphCase& c = Case();
  const VertexId source = PickSourceVertex(c.edges);
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<BfsProgram>(source)).id();
  engine.RunUntilIdle();
  const auto expected = ReferenceBfs(Graph::FromEdges(c.edges), source);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 0.0, c.name + "/bfs");
}

TEST_P(EngineAlgorithmTest, WccMatchesUnionFind) {
  const GraphCase& c = Case();
  if (c.edges.num_vertices() == 0) {
    return;
  }
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<WccProgram>()).id();
  engine.RunUntilIdle();
  const auto expected = ReferenceWcc(Graph::FromEdges(c.edges));
  // Min-label propagation converges to the minimum member id — identical to union-by-min.
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 0.0, c.name + "/wcc");
}

TEST_P(EngineAlgorithmTest, SccMatchesTarjan) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<SccProgram>()).id();
  engine.RunUntilIdle();
  std::vector<double> labels = engine.FinalAux(id);
  for (double& l : labels) {
    l -= 1.0;  // aux stores component + 1.
  }
  const auto expected = ReferenceScc(Graph::FromEdges(c.edges));
  EXPECT_EQ(CanonicalizeLabels(labels), CanonicalizeLabels(expected)) << c.name << "/scc";
}

TEST_P(EngineAlgorithmTest, KCoreMatchesPeeling) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<KCoreProgram>(3)).id();
  engine.RunUntilIdle();
  const auto aux = engine.FinalAux(id);  // 1.0 = peeled.
  const auto expected = ReferenceKCore(Graph::FromEdges(c.edges), 3);  // 1.0 = in core.
  ASSERT_EQ(aux.size(), expected.size());
  for (size_t v = 0; v < aux.size(); ++v) {
    EXPECT_EQ(aux[v] == 0.0, expected[v] == 1.0) << c.name << "/kcore vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, EngineAlgorithmTest,
                         ::testing::Range<size_t>(0, StandardGraphCases().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return StandardGraphCases()[param_info.param].name;
                         });

TEST(EngineTest, ConcurrentJobMixAllCorrect) {
  RmatOptions rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  rmat.seed = 5;
  const EdgeList edges = GenerateRmat(rmat);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 12);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId pr = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10)).id();
  const JobId ss = engine.Submit(std::make_unique<SsspProgram>(source)).id();
  const JobId sc = engine.Submit(std::make_unique<SccProgram>()).id();
  const JobId bf = engine.Submit(std::make_unique<BfsProgram>(source)).id();
  const JobId wc = engine.Submit(std::make_unique<WccProgram>()).id();
  const JobId kc = engine.Submit(std::make_unique<KCoreProgram>(4)).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_EQ(report.jobs.size(), 6u);

  test_support::ExpectNearValues(engine.FinalValues(pr), ReferencePageRank(g, 0.85, 1e-10), 1e-6, "mix/pr");
  test_support::ExpectNearValues(engine.FinalValues(ss), ReferenceSssp(g, source), 1e-12, "mix/sssp");
  test_support::ExpectNearValues(engine.FinalValues(bf), ReferenceBfs(g, source), 0.0, "mix/bfs");
  test_support::ExpectNearValues(engine.FinalValues(wc), ReferenceWcc(g), 0.0, "mix/wcc");
  std::vector<double> scc_labels = engine.FinalAux(sc);
  for (double& l : scc_labels) {
    l -= 1.0;
  }
  EXPECT_EQ(CanonicalizeLabels(scc_labels), CanonicalizeLabels(ReferenceScc(g)));
  const auto kcore_aux = engine.FinalAux(kc);
  const auto kcore_ref = ReferenceKCore(g, 4);
  for (size_t v = 0; v < kcore_aux.size(); ++v) {
    ASSERT_EQ(kcore_aux[v] == 0.0, kcore_ref[v] == 1.0) << v;
  }
}

TEST(EngineTest, SchedulerAblationStillCorrect) {
  const EdgeList edges = GenerateErdosRenyi(300, 2500, 91);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  EngineOptions options = test_support::TestEngineOptions();
  options.use_scheduler = false;
  options.straggler_split = false;
  LtpEngine engine(&pg, options);
  const JobId id = engine.Submit(std::make_unique<SsspProgram>(source)).id();
  engine.RunUntilIdle();
  test_support::ExpectNearValues(engine.FinalValues(id), ReferenceSssp(g, source), 1e-12, "ablation/sssp");
}

TEST(EngineTest, SingleWorkerCorrect) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 17);
  const Graph g = Graph::FromEdges(edges);
  const PartitionedGraph pg = Partition(edges, 4);
  EngineOptions options = test_support::TestEngineOptions();
  options.num_workers = 1;
  LtpEngine engine(&pg, options);
  const JobId id = engine.Submit(std::make_unique<WccProgram>()).id();
  engine.RunUntilIdle();
  test_support::ExpectNearValues(engine.FinalValues(id), ReferenceWcc(g), 0.0, "single-worker/wcc");
}

TEST(EngineTest, BfsIterationsTrackFrontierDepth) {
  // On a 40-vertex path partitioned into one partition, BFS from vertex 0 needs about one
  // iteration per hop (intra-partition propagation is one hop per iteration in LTP).
  EdgeList path = GeneratePath(40);
  const PartitionedGraph pg = Partition(path, 1);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<BfsProgram>(0)).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_GE(report.jobs[0].iterations, 39u);
  (void)id;
}

TEST(EngineTest, InactivePartitionsAreSkipped) {
  // A star with the hub as BFS source converges in ~2 iterations; PageRank sweeps many
  // more times. BFS must therefore charge far fewer structure bytes than PageRank.
  const EdgeList star = GenerateStar(512);
  const PartitionedGraph pg = Partition(star, 8);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId bfs = engine.Submit(std::make_unique<BfsProgram>(0)).id();
  const JobId pr = engine.Submit(std::make_unique<PageRankProgram>()).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_LT(report.jobs[bfs].iterations, report.jobs[pr].iterations);
  EXPECT_LT(report.jobs[bfs].charge.total_bytes(), report.jobs[pr].charge.total_bytes());
}

TEST(EngineTest, DeterministicReportsForExactAlgorithms) {
  const EdgeList edges = GenerateErdosRenyi(300, 2500, 23);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  RunReport first;
  RunReport second;
  for (RunReport* out : {&first, &second}) {
    LtpEngine engine(&pg, test_support::TestEngineOptions());
    engine.Submit(std::make_unique<BfsProgram>(source));
    engine.Submit(std::make_unique<WccProgram>());
    engine.RunUntilIdle();
    *out = engine.Report();
  }
  EXPECT_EQ(first.cache.touches, second.cache.touches);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  EXPECT_EQ(first.memory.disk_bytes, second.memory.disk_bytes);
  ASSERT_EQ(first.jobs.size(), second.jobs.size());
  for (size_t j = 0; j < first.jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].iterations, second.jobs[j].iterations);
    EXPECT_EQ(first.jobs[j].compute_units, second.jobs[j].compute_units);
    EXPECT_EQ(first.jobs[j].charge.total_bytes(), second.jobs[j].charge.total_bytes());
  }
}

TEST(EngineTest, EmptyGraphFinishesImmediately) {
  EdgeList empty;
  const PartitionedGraph pg = Partition(empty, 4);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.Submit(std::make_unique<WccProgram>());
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_EQ(report.jobs[0].vertex_computes, 0u);
}

TEST(EngineTest, SourceOutsideGraphConvergesInstantly) {
  const EdgeList edges = GenerateRing(16);
  const PartitionedGraph pg = Partition(edges, 2);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.Submit(std::make_unique<SsspProgram>(999)).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_EQ(report.jobs[0].vertex_computes, 0u);
  for (double d : engine.FinalValues(id)) {
    EXPECT_TRUE(std::isinf(d));
  }
}

TEST(EngineTest, MaxIterationSafetyValve) {
  const EdgeList ring = GenerateRing(32);
  const PartitionedGraph pg = Partition(ring, 2);
  EngineOptions options = test_support::TestEngineOptions();
  options.max_iterations_per_job = 3;
  LtpEngine engine(&pg, options);
  // PageRank on a ring takes many iterations; the valve must stop it at 3.
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-15));
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  EXPECT_EQ(report.jobs[0].iterations, 3u);
}

TEST(EngineTest, JobStatsArePopulated) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 3);
  const PartitionedGraph pg = Partition(edges, 4);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.Submit(std::make_unique<PageRankProgram>());
  engine.RunUntilIdle();
  const RunReport report = engine.Report();
  const JobStats& stats = report.jobs[0];
  EXPECT_EQ(stats.job_name, "pagerank");
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.vertex_computes, 0u);
  EXPECT_GT(stats.edge_traversals, 0u);
  EXPECT_GT(stats.compute_units, 0u);
  EXPECT_GT(stats.charge.total_bytes(), 0u);
  EXPECT_GT(report.cache.touches, 0u);
}

TEST(EngineTest, SnapshotJobsSeeTheirVersions) {
  // Two WCC jobs on different snapshots must compute components of *their* graph.
  EdgeList edges;
  // Two components: {0,1} and {2,3}.
  edges.Add(0, 1);
  edges.Add(1, 0);
  edges.Add(2, 3);
  edges.Add(3, 2);
  PartitionOptions popts;
  popts.num_partitions = 2;
  popts.partitioner = PartitionerKind::kEvenEdge;
  popts.core_subgraph = false;
  SnapshotStore store(PartitionedGraphBuilder::Build(edges, popts));
  // Rewiring at 100% change ratio alters edges within partitions; job at t=0 must still
  // see the base graph.
  store.CreateSnapshot(10, 1.0, 3);
  LtpEngine engine(&store, test_support::TestEngineOptions());
  const JobId old_job = engine.Submit(std::make_unique<WccProgram>(), /*submit_time=*/0).id();
  const JobId new_job = engine.Submit(std::make_unique<WccProgram>(), /*submit_time=*/10).id();
  engine.RunUntilIdle();
  const Graph base_graph = Graph::FromEdges(edges);
  test_support::ExpectNearValues(engine.FinalValues(old_job), ReferenceWcc(base_graph), 0.0, "snapshot/old");
  // The new job ran on the rewired graph; just verify it converged to a valid labeling
  // (labels are min ids, so every label <= vertex id).
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_LE(engine.FinalValues(new_job)[v], static_cast<double>(v));
  }
}

// The worker count must not change any modeled metric. At one worker every sweep and
// trigger batch runs inline on the driver thread; at four, this fixture is large enough
// that bookkeeping sweeps are chunked and trigger batches dispatch through the pool.
// Counts are integer sums and the active bitmask is written in disjoint words, so chunk
// order cannot matter.
TEST(EngineTest, ModeledCsvIsIdenticalAtOneAndFourWorkers) {
  const EdgeList edges = GenerateErdosRenyi(20000, 100000, 37);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 4);
  test_support::ExpectReachesPooledDispatch(pg, WccProgram());

  auto run = [&](uint32_t workers) {
    EngineOptions options = test_support::TestEngineOptions();
    options.num_workers = workers;
    LtpEngine engine(&pg, options);
    // Min-accumulator and exact-sum jobs only: deterministic even with 4 workers.
    engine.Submit(std::make_unique<SsspProgram>(source));
    engine.Submit(std::make_unique<BfsProgram>(source));
    engine.Submit(std::make_unique<WccProgram>());
    engine.Submit(std::make_unique<KCoreProgram>(3));
    engine.RunUntilIdle();
    RunReport report = engine.Report();
    report.workers = 1;  // Modeled time divides the work by workers; compare the work.
    return test_support::ModeledCsv(report);
  };

  EXPECT_EQ(run(1), run(4));
}

TEST(EngineTest, ThetaDominanceSchedulerPrefersMoreJobs) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 29);
  const PartitionedGraph pg = Partition(edges, 8);
  Scheduler scheduler(pg, /*use_priorities=*/true);
  GlobalTable table(pg.num_partitions(), 4);
  // Partition 3 needed by two jobs, partition 5 by one with maximal D*C.
  table.Register(3, 0);
  table.Register(3, 1);
  table.Register(5, 2);
  scheduler.SetStateChange(3, 0.0);
  scheduler.SetStateChange(5, 1.0);
  std::vector<bool> eligible(pg.num_partitions(), true);
  EXPECT_EQ(scheduler.PickNext(table, eligible), 3u);
}

}  // namespace
}  // namespace cgraph
