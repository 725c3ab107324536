// Concurrent analytics: the paper's headline scenario. Four iterative jobs — PageRank,
// SSSP, SCC, BFS — are submitted simultaneously over one shared graph, once on the
// CGraph LTP engine and once on a Seraph-style executor, and the simulated data-access
// economics are compared.

#include <cstdio>
#include <memory>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/baselines/baseline_executor.h"
#include "src/common/strings.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/metrics/table_printer.h"
#include "src/partition/partitioned_graph.h"

int main() {
  using namespace cgraph;

  RmatOptions rmat;
  rmat.scale = 13;
  rmat.edge_factor = 12;
  const EdgeList edges = GenerateRmat(rmat);
  const VertexId source = PickSourceVertex(edges);

  PartitionOptions popts;
  popts.num_partitions = 24;
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);

  EngineOptions options;
  options.num_workers = 4;
  options.hierarchy.cache_capacity_bytes = 512ull << 10;
  options.hierarchy.cache_segment_bytes = 8ull << 10;
  const CostModel cost;

  auto add_jobs = [source](auto& executor) {
    executor.Submit(std::make_unique<PageRankProgram>(0.85, 1e-6));
    executor.Submit(std::make_unique<SsspProgram>(source));
    executor.Submit(std::make_unique<SccProgram>());
    executor.Submit(std::make_unique<BfsProgram>(source));
  };

  // CGraph: one loading order shared by all jobs.
  LtpEngine cgraph(&graph, options);
  add_jobs(cgraph);
  cgraph.RunUntilIdle();
  const RunReport cg = cgraph.Report();

  // Seraph-style: shared in-memory graph, but each job streams partitions in its own
  // order.
  BaselineOptions bopts;
  bopts.system = BaselineSystem::kSeraph;
  bopts.engine = options;
  BaselineExecutor seraph(&graph, bopts);
  add_jobs(seraph);
  const RunReport sr = seraph.Run();

  std::printf("four concurrent jobs on a %u-vertex, %zu-edge graph\n\n", edges.num_vertices(),
              edges.num_edges());
  TablePrinter table({"Metric", "Seraph-style", "CGraph (LTP)", "ratio"});
  auto row = [&table](const char* name, double seraph_value, double cgraph_value,
                      const std::string& s, const std::string& c) {
    table.AddRow({name, s, c,
                  seraph_value > 0 ? FormatDouble(cgraph_value / seraph_value, 3) : "-"});
  };
  row("LLC miss rate", sr.cache.miss_rate(), cg.cache.miss_rate(),
      FormatDouble(sr.cache.miss_rate() * 100, 1) + "%",
      FormatDouble(cg.cache.miss_rate() * 100, 1) + "%");
  row("volume into cache", static_cast<double>(sr.cache.miss_bytes),
      static_cast<double>(cg.cache.miss_bytes), HumanBytes(sr.cache.miss_bytes),
      HumanBytes(cg.cache.miss_bytes));
  row("modeled makespan", sr.ModeledMakespan(cost), cg.ModeledMakespan(cost),
      FormatDouble(sr.ModeledMakespan(cost), 0), FormatDouble(cg.ModeledMakespan(cost), 0));
  row("CPU utilization", sr.CpuUtilization(cost), cg.CpuUtilization(cost),
      FormatDouble(sr.CpuUtilization(cost) * 100, 1) + "%",
      FormatDouble(cg.CpuUtilization(cost) * 100, 1) + "%");
  table.Print();

  std::printf("\nper-job iterations (identical results, verified in the test suite):\n");
  for (size_t j = 0; j < cg.jobs.size(); ++j) {
    std::printf("  %-9s cgraph=%llu seraph=%llu\n", cg.jobs[j].job_name.c_str(),
                static_cast<unsigned long long>(cg.jobs[j].iterations),
                static_cast<unsigned long long>(sr.jobs[j].iterations));
  }
  return 0;
}
