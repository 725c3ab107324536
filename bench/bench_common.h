// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one of the paper's tables/figures as stdout rows. The
// harness fixes the comparison protocol: the five scaled stand-in datasets, a simulated
// hierarchy whose capacities scale with the datasets (so the in-memory / out-of-core
// regimes of the paper are preserved), the four-job benchmark mix (PageRank, SSSP, SCC,
// BFS, submitted simultaneously, section 4), and runners for the LTP engine and every
// baseline.
//
// Flags (all optional):
//   --scale-shift=N   uniform dataset scaling (default -2: sixteen times smaller than the
//                     DESIGN.md reference scales; keeps the full suite under minutes)
//   --workers=N       worker lanes: the driver thread plus N-1 pool threads (default 4)
//   --jobs=N          job-mix size where applicable (default 4)
//   --datasets=N      limit to the first N datasets (default all 5)

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/strings.h"
#include "src/core/ltp_engine.h"
#include "src/graph/datasets.h"
#include "src/metrics/table_printer.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/snapshot_store.h"

namespace cgraph::bench {

struct BenchEnv {
  int scale_shift = -2;
  uint32_t workers = 4;
  uint32_t jobs = 4;
  size_t max_datasets = 5;

  static BenchEnv FromArgs(int argc, char** argv) {
    BenchEnv env;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const char* value = nullptr;
      auto match = [&arg, &value](std::string_view prefix) {
        if (!arg.starts_with(prefix)) {
          return false;
        }
        value = arg.data() + prefix.size();
        return true;
      };
      if (match("--scale-shift=")) {
        env.scale_shift = std::atoi(value);
      } else if (match("--workers=")) {
        env.workers = static_cast<uint32_t>(std::atoi(value));
      } else if (match("--jobs=")) {
        env.jobs = static_cast<uint32_t>(std::atoi(value));
      } else if (match("--datasets=")) {
        env.max_datasets = static_cast<size_t>(std::atoi(value));
      }
    }
    return env;
  }

  // Hierarchy capacities scale with 2^shift so cache:data and memory:data ratios stay in
  // the paper's regime: the three smaller datasets fit the memory tier with the 4-job
  // mix, uk-union and hyperlink14 do not (Fig. 13's crossover).
  HierarchyOptions Hierarchy() const {
    const double scale = std::pow(2.0, scale_shift);
    HierarchyOptions h;
    h.cache_capacity_bytes = std::max<uint64_t>(64ull << 10, static_cast<uint64_t>((4ull << 20) * scale));
    h.cache_segment_bytes = std::max<uint64_t>(2ull << 10, h.cache_capacity_bytes / 128);
    // 36 MiB at reference scale: the three smaller datasets (structure + 4 jobs' states)
    // fit, uk-union is marginal, hyperlink14 exceeds it ~2.7x — the paper's regime, where
    // uk-union (68 GB) and hyperlink14 (480 GB) exceed the testbed's 64 GB.
    h.memory_capacity_bytes =
        std::max<uint64_t>(1ull << 20, static_cast<uint64_t>((36ull << 20) * scale));
    return h;
  }

  EngineOptions Engine() const {
    EngineOptions options;
    options.num_workers = workers;
    options.hierarchy = Hierarchy();
    return options;
  }

  CostModel Cost() const { return CostModel{}; }
};

struct PreparedDataset {
  DatasetSpec spec;
  EdgeList edges;
  PartitionedGraph graph;       // Core-subgraph partitioning (CGraph layout).
  PartitionedGraph graph_flat;  // Plain vertex-cut (baselines / CGraph-without).
  VertexId source = 0;
};

inline uint32_t PartitionCountFor(const EdgeList& edges, const BenchEnv& env) {
  // The partitioned structure stores both CSR directions plus replicated vertex records:
  // about 2.2x the flat edge-list estimate.
  const uint64_t structure =
      static_cast<uint64_t>(2.2 * static_cast<double>(EstimateStructureBytes(edges)));
  // Private state per structure byte: ~32 bytes per (replicated) vertex per job over
  // ~16 bytes per edge.
  const double state_ratio =
      edges.num_edges() == 0
          ? 0.25
          : std::min(1.0, 2.5 * static_cast<double>(edges.num_vertices()) /
                              static_cast<double>(edges.num_edges()));
  const HierarchyOptions h = env.Hierarchy();
  return SuitablePartitionCount(structure, h.cache_capacity_bytes, env.jobs, state_ratio,
                                h.cache_capacity_bytes / 8);
}

inline PreparedDataset Prepare(const DatasetSpec& spec, const BenchEnv& env) {
  PreparedDataset ds;
  ds.spec = spec;
  ds.edges = GenerateDataset(spec);
  const uint32_t parts = PartitionCountFor(ds.edges, env);
  // The paper's Figure-4 layout, pinned so the figures keep their meaning.
  PartitionOptions core_opts;
  core_opts.num_partitions = parts;
  core_opts.partitioner = PartitionerKind::kEvenEdge;
  core_opts.core_subgraph = true;
  ds.graph = PartitionedGraphBuilder::Build(ds.edges, core_opts);
  PartitionOptions flat_opts;
  flat_opts.num_partitions = parts;
  flat_opts.partitioner = PartitionerKind::kEvenEdge;
  flat_opts.core_subgraph = false;
  ds.graph_flat = PartitionedGraphBuilder::Build(ds.edges, flat_opts);
  ds.source = PickSourceVertex(ds.edges);
  return ds;
}

inline std::vector<DatasetSpec> BenchDatasets(const BenchEnv& env) {
  auto specs = PaperDatasets(env.scale_shift);
  if (specs.size() > env.max_datasets) {
    specs.resize(env.max_datasets);
  }
  return specs;
}

template <typename ExecutorT>
void AddMixJobs(ExecutorT& executor, const PreparedDataset& ds, size_t count) {
  for (const std::string& name : BenchmarkJobNames(count)) {
    executor.Submit(MakeProgram(name, ds.source));
  }
}

// Runs the CGraph LTP engine on the dataset with the 4-job mix.
inline RunReport RunCgraph(const PreparedDataset& ds, const BenchEnv& env, size_t jobs,
                           bool use_scheduler = true) {
  EngineOptions options = env.Engine();
  options.use_scheduler = use_scheduler;
  const PartitionedGraph& graph = use_scheduler ? ds.graph : ds.graph_flat;
  LtpEngine engine(&graph, options);
  AddMixJobs(engine, ds, jobs);
  engine.RunUntilIdle();
  RunReport report = engine.Report();
  report.executor_name = use_scheduler ? "CGraph" : "CGraph-without";
  return report;
}

// Runs a baseline system on the dataset with the job mix.
inline RunReport RunBaseline(const PreparedDataset& ds, const BenchEnv& env,
                             BaselineSystem system, size_t jobs) {
  BaselineOptions options;
  options.system = system;
  options.engine = env.Engine();
  BaselineExecutor executor(&ds.graph_flat, options);
  AddMixJobs(executor, ds, jobs);
  return executor.Run();
}

// --- Evolving-graph (snapshot) experiments, Figs. 16-19. ---

struct EvolvingSetup {
  std::unique_ptr<SnapshotStore> store;
  std::vector<Timestamp> job_times;  // Submit time of job i (binds its snapshot).
  VertexId source = 0;
};

// Builds a snapshot chain: job 0 runs on the base graph; each later job runs on a fresh
// snapshot whose change ratio against the previous snapshot is `change_ratio`
// (section 4.4's protocol).
inline EvolvingSetup PrepareEvolving(const DatasetSpec& spec, const BenchEnv& env,
                                     size_t num_jobs, double change_ratio) {
  EvolvingSetup setup;
  EdgeList edges = GenerateDataset(spec);
  setup.source = PickSourceVertex(edges);
  PartitionOptions popts;
  popts.num_partitions = PartitionCountFor(edges, env);
  popts.partitioner = PartitionerKind::kEvenEdge;
  popts.core_subgraph = true;
  setup.store =
      std::make_unique<SnapshotStore>(PartitionedGraphBuilder::Build(edges, popts));
  setup.job_times.push_back(0);
  for (size_t i = 1; i < num_jobs; ++i) {
    const Timestamp ts = static_cast<Timestamp>(i) * 10;
    setup.store->CreateSnapshot(ts, change_ratio, 0xE0E0ull + i);
    setup.job_times.push_back(ts);
  }
  return setup;
}

inline RunReport RunCgraphEvolving(const EvolvingSetup& setup, const BenchEnv& env) {
  EngineOptions options = env.Engine();
  LtpEngine engine(setup.store.get(), options);
  const auto names = BenchmarkJobNames(setup.job_times.size());
  for (size_t i = 0; i < setup.job_times.size(); ++i) {
    engine.Submit(MakeProgram(names[i], setup.source), setup.job_times[i]);
  }
  engine.RunUntilIdle();
  RunReport report = engine.Report();
  report.executor_name = "CGraph";
  return report;
}

inline RunReport RunBaselineEvolving(const EvolvingSetup& setup, const BenchEnv& env,
                                     BaselineSystem system) {
  BaselineOptions options;
  options.system = system;
  options.engine = env.Engine();
  BaselineExecutor executor(setup.store.get(), options);
  const auto names = BenchmarkJobNames(setup.job_times.size());
  for (size_t i = 0; i < setup.job_times.size(); ++i) {
    executor.Submit(MakeProgram(names[i], setup.source), setup.job_times[i]);
  }
  return executor.Run();
}

// Total data accessed below the LLC plus disk->memory traffic: the quantity whose
// savings Fig. 19 reports.
inline double TotalAccessedBytes(const RunReport& report) {
  return static_cast<double>(report.cache.miss_bytes + report.memory.disk_bytes);
}

inline std::string Pct(double fraction) { return FormatDouble(fraction * 100.0, 1); }

inline std::string Norm(double value, double base) {
  return base <= 0.0 ? std::string("-") : FormatDouble(value / base, 3);
}

}  // namespace cgraph::bench

#endif  // BENCH_BENCH_COMMON_H_
