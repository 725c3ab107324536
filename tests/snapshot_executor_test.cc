// Executor behaviour over evolving-graph snapshots: the sharing mechanics behind the
// paper's Figures 16-19, at test scale.

#include <gtest/gtest.h>

#include <memory>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/cache/memory_hierarchy.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/snapshot_store.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

EngineOptions SmallOptions() {
  EngineOptions options = test_support::TestEngineOptions(/*cache_kib=*/48);
  options.num_workers = 2;
  return options;
}

EdgeList BaseEdges() { return test_support::FixedRmat(10, 8, 77); }

std::unique_ptr<SnapshotStore> MakeStore(double change_ratio, size_t snapshots) {
  const EdgeList edges = BaseEdges();
  PartitionOptions popts;
  popts.num_partitions = 10;
  popts.partitioner = PartitionerKind::kEvenEdge;
  auto store =
      std::make_unique<SnapshotStore>(PartitionedGraphBuilder::Build(edges, popts));
  for (size_t i = 1; i <= snapshots; ++i) {
    store->CreateSnapshot(static_cast<Timestamp>(i) * 10, change_ratio, 1000 + i);
  }
  return store;
}

// Options with a memory tier sized relative to the store's structure: `memory_factor` of
// 1.5 holds one shared copy plus private tables but not per-snapshot duplicates.
EngineOptions TightMemoryOptions(const SnapshotStore& store, double memory_factor) {
  EngineOptions options = SmallOptions();
  options.hierarchy.memory_capacity_bytes = static_cast<uint64_t>(
      memory_factor * static_cast<double>(store.base().total_structure_bytes()));
  return options;
}

// Runs `jobs` jobs, one per snapshot timestamp, on the LTP engine; returns the report.
RunReport RunCgraphOnStore(const SnapshotStore& store, size_t jobs,
                           double memory_factor = 1e6) {
  LtpEngine engine(&store, TightMemoryOptions(store, memory_factor));
  const auto names = BenchmarkJobNames(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    engine.Submit(MakeProgram(names[i], 0), static_cast<Timestamp>(i) * 10);
  }
  engine.RunUntilIdle();
  return engine.Report();
}

RunReport RunBaselineOnStore(const SnapshotStore& store, BaselineSystem system, size_t jobs,
                             double memory_factor = 1e6) {
  BaselineOptions options;
  options.system = system;
  options.engine = TightMemoryOptions(store, memory_factor);
  BaselineExecutor executor(&store, options);
  const auto names = BenchmarkJobNames(jobs);
  for (size_t i = 0; i < jobs; ++i) {
    executor.Submit(MakeProgram(names[i], 0), static_cast<Timestamp>(i) * 10);
  }
  return executor.Run();
}

TEST(SnapshotExecutorTest, ZeroChangeRatioBehavesLikeOneSnapshot) {
  const auto changed = MakeStore(0.0, 3);
  // With nothing changed, every job resolves to version 0 of every partition: the cache
  // traffic must equal the same mix bound to a single snapshot.
  const RunReport multi = RunCgraphOnStore(*changed, 4);
  LtpEngine single(&*changed, SmallOptions());
  const auto names = BenchmarkJobNames(4);
  for (size_t i = 0; i < 4; ++i) {
    single.Submit(MakeProgram(names[i], 0), /*submit_time=*/0);
  }
  single.RunUntilIdle();
  const RunReport base = single.Report();
  EXPECT_EQ(multi.cache.miss_bytes, base.cache.miss_bytes);
  EXPECT_EQ(multi.cache.touches, base.cache.touches);
}

TEST(SnapshotExecutorTest, MoreChangesMeanMoreTraffic) {
  // Higher change ratios reduce cross-snapshot sharing, so CGraph's cache volume rises
  // (the paper's Fig. 16 trend).
  const RunReport low = RunCgraphOnStore(*MakeStore(0.001, 3), 4);
  const RunReport high = RunCgraphOnStore(*MakeStore(0.5, 3), 4);
  EXPECT_GT(high.cache.miss_bytes, low.cache.miss_bytes);
}

TEST(SnapshotExecutorTest, PlainSeraphDuplicatesUnchangedPartitions) {
  // Plain Seraph materializes each snapshot as a full copy; Version-Traveler-style
  // storage shares unchanged partitions. With a tight memory tier, the full copies fault
  // more bytes from disk.
  auto store = MakeStore(0.01, 3);
  BaselineOptions options;
  // Memory fits one shared structure copy plus state, not four per-snapshot copies.
  options.engine = TightMemoryOptions(*store, 2.0);

  options.system = BaselineSystem::kSeraph;
  BaselineExecutor seraph(&*store, options);
  options.system = BaselineSystem::kSeraphVt;
  BaselineExecutor seraph_vt(&*store, options);
  const auto names = BenchmarkJobNames(4);
  for (size_t i = 0; i < 4; ++i) {
    seraph.Submit(MakeProgram(names[i], 0), static_cast<Timestamp>(i) * 10);
    seraph_vt.Submit(MakeProgram(names[i], 0), static_cast<Timestamp>(i) * 10);
  }
  const RunReport plain = seraph.Run();
  const RunReport vt = seraph_vt.Run();
  EXPECT_GT(plain.memory.disk_bytes, vt.memory.disk_bytes);
}

TEST(SnapshotExecutorTest, SeraphAndSeraphVtModeledCsvsMatchGoldens) {
  // Full-copy versus shared-version snapshot storage under a tight memory tier: the
  // goldens pin both systems' modeled columns at one and four workers.
  auto store = MakeStore(0.05, 3);
  const VertexId source = PickSourceVertex(BaseEdges());
  for (const BaselineSystem system : {BaselineSystem::kSeraph, BaselineSystem::kSeraphVt}) {
    for (const uint32_t workers : {1u, 4u}) {
      BaselineOptions options;
      options.system = system;
      options.engine = TightMemoryOptions(*store, 2.0);
      options.engine.num_workers = workers;
      BaselineExecutor executor(&*store, options);
      Timestamp submit_time = 0;
      for (const char* job : {"pagerank", "ppr", "scc", "kcore"}) {
        executor.Submit(MakeProgram(job, source), submit_time);
        submit_time += 10;
      }
      const std::string name = std::string("baseline_") + BaselineSystemName(system) +
                               "_snapshots_w" + std::to_string(workers) + ".csv";
      const std::string csv = test_support::ModeledCsv(executor.Run());
      EXPECT_EQ(csv, test_support::ReadGolden(name)) << name;
    }
  }
}

TEST(SnapshotExecutorTest, CgraphBeatsSeraphVtOnSnapshots) {
  // The Fig. 16 headline at test scale: same snapshot chain, same jobs — CGraph's shared
  // loads move less data than Seraph-VT's individual streams.
  auto store = MakeStore(0.05, 7);
  const RunReport cgraph = RunCgraphOnStore(*store, 8);
  const RunReport vt = RunBaselineOnStore(*store, BaselineSystem::kSeraphVt, 8);
  EXPECT_LT(cgraph.cache.miss_bytes, vt.cache.miss_bytes);
  EXPECT_LT(cgraph.cache.miss_rate(), vt.cache.miss_rate());
}

TEST(SnapshotExecutorTest, SparedAccessesGrowWithJobs) {
  // Fig. 19's trend: relative to sequential execution (which re-streams the graph from
  // disk per job), CGraph's savings grow with the number of concurrent jobs. A tight
  // memory tier keeps the runs in the paper's out-of-core regime.
  // memory_factor 0.5: no single job's working set fits, so even the sequential runs
  // stream from disk every iteration — the paper's regime, where hyperlink14 exceeds
  // the testbed's memory severalfold.
  auto spared = [](size_t jobs) {
    auto store = MakeStore(0.05, jobs > 1 ? jobs - 1 : 0);
    const RunReport seq =
        RunBaselineOnStore(*store, BaselineSystem::kSequential, jobs, /*memory_factor=*/0.5);
    const RunReport cgraph = RunCgraphOnStore(*store, jobs, /*memory_factor=*/0.5);
    const double seq_bytes =
        static_cast<double>(seq.cache.miss_bytes + seq.memory.disk_bytes);
    const double cg_bytes =
        static_cast<double>(cgraph.cache.miss_bytes + cgraph.memory.disk_bytes);
    return 1.0 - cg_bytes / seq_bytes;
  };
  const double at_two = spared(2);
  const double at_eight = spared(8);
  EXPECT_GT(at_eight, at_two);
  EXPECT_GT(at_eight, 0.0);
}

TEST(SnapshotExecutorTest, RuntimeArrivalOnSnapshotBindsItsVersion) {
  // A job that arrives mid-run with a later submit time must compute on *its* snapshot,
  // not on whatever the already-running jobs are bound to.
  EdgeList edges;
  edges.Add(0, 1);
  edges.Add(1, 0);
  edges.Add(2, 3);
  edges.Add(3, 2);
  PartitionOptions popts;
  popts.num_partitions = 2;
  popts.partitioner = PartitionerKind::kEvenEdge;
  popts.core_subgraph = false;
  SnapshotStore store(PartitionedGraphBuilder::Build(edges, popts));
  store.CreateSnapshot(10, 1.0, 9);

  LtpEngine engine(&store, SmallOptions());
  const JobId early = engine.Submit(MakeProgram("wcc", 0), /*submit_time=*/0).id();
  const JobId late =
      engine.SubmitAt(MakeProgram("wcc", 0), /*arrival_step=*/3, /*submit_time=*/10).id();
  engine.RunUntilIdle();
  // The early job sees the base graph: components {0,1} and {2,3} labeled by min id.
  const auto early_labels = engine.FinalValues(early);
  EXPECT_DOUBLE_EQ(early_labels[0], 0.0);
  EXPECT_DOUBLE_EQ(early_labels[1], 0.0);
  EXPECT_DOUBLE_EQ(early_labels[2], 2.0);
  EXPECT_DOUBLE_EQ(early_labels[3], 2.0);
  // The late job ran on the rewired snapshot; its labeling must still be a valid
  // min-label fixpoint (label <= own id).
  const auto late_labels = engine.FinalValues(late);
  for (size_t v = 0; v < late_labels.size(); ++v) {
    EXPECT_LE(late_labels[v], static_cast<double>(v));
  }
}

TEST(ExpectedTouchedSegmentsTest, Boundaries) {
  // 16 segments of 1 KiB, 1600 vertices -> 100 vertices per segment.
  EXPECT_EQ(ExpectedTouchedSegments(16 << 10, 1 << 10, 0, 1600), 0u);
  EXPECT_EQ(ExpectedTouchedSegments(16 << 10, 1 << 10, 1600, 1600), 16u);
  EXPECT_EQ(ExpectedTouchedSegments(0, 1 << 10, 100, 1600), 0u);
  // A single active vertex touches at least one segment but not all.
  const uint32_t one = ExpectedTouchedSegments(16 << 10, 1 << 10, 1, 1600);
  EXPECT_GE(one, 1u);
  EXPECT_LT(one, 16u);
  // Monotone in the active count.
  uint32_t prev = 0;
  for (uint32_t active : {1u, 10u, 100u, 400u, 1600u}) {
    const uint32_t touched = ExpectedTouchedSegments(16 << 10, 1 << 10, active, 1600);
    EXPECT_GE(touched, prev);
    prev = touched;
  }
}

}  // namespace
}  // namespace cgraph
