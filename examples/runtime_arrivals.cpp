// Runtime job arrival: the production pattern from the paper's Figure 1 — jobs keep
// being submitted while others are mid-flight ("it allows to add new jobs into SJobs at
// runtime", section 3.4). A newcomer registers the partitions of its first iteration and
// is triggered off the same shared loads from then on.

#include <cstdio>
#include <memory>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"

int main() {
  using namespace cgraph;

  RmatOptions rmat;
  rmat.scale = 12;
  rmat.edge_factor = 10;
  const EdgeList edges = GenerateRmat(rmat);
  const VertexId source = PickSourceVertex(edges);

  PartitionOptions popts;
  popts.num_partitions = 16;
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);

  EngineOptions options;
  options.num_workers = 4;
  LtpEngine engine(&graph, options);

  // PageRank starts immediately; a BFS arrives after 30 partition loads; a WCC arrives
  // after 80 more.
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-6));
  engine.SubmitAt(std::make_unique<BfsProgram>(source), /*arrival_step=*/30);
  engine.SubmitAt(std::make_unique<WccProgram>(), /*arrival_step=*/110);
  engine.RunUntilIdle();
  const RunReport report = engine.Report();

  std::printf("three jobs with staggered arrivals on a %u-vertex graph:\n\n",
              edges.num_vertices());
  for (const auto& job : report.jobs) {
    std::printf("  %-9s iterations=%-4llu vertex computes=%llu\n", job.job_name.c_str(),
                static_cast<unsigned long long>(job.iterations),
                static_cast<unsigned long long>(job.vertex_computes));
  }
  std::printf("\nshared-cache economics across the staggered mix: %.1f%% LLC miss rate\n",
              report.cache.miss_rate() * 100);
  std::printf("(late arrivals piggyback on loads issued for the jobs already running)\n");
  return 0;
}
