// Quickstart: build a graph, partition it, run one PageRank job on the CGraph LTP
// engine, and read the results back.
//
//   $ ./quickstart [path/to/edge_list.txt]
//
// Without an argument a small synthetic power-law graph is used. The edge-list format is
// one "src dst [weight]" triple per line; '#' starts a comment.

#include <cstdio>
#include <memory>
#include <vector>

#include "src/algorithms/pagerank.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/partition/partitioned_graph.h"

int main(int argc, char** argv) {
  using namespace cgraph;

  // 1. Obtain a graph: load from file or generate a small R-MAT instance.
  EdgeList edges;
  if (argc > 1) {
    auto loaded = LoadEdgeListText(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    edges = std::move(loaded).value();
  } else {
    RmatOptions rmat;
    rmat.scale = 12;
    rmat.edge_factor = 8;
    edges = GenerateRmat(rmat);
  }
  std::printf("graph: %u vertices, %zu edges\n", edges.num_vertices(), edges.num_edges());

  // 2. Partition: vertex-cut under the default greedy placement, which puts each edge
  //    where its endpoints already live to keep replication low (docs/partitioning.md).
  PartitionOptions popts;
  popts.num_partitions = 16;
  const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);
  std::printf("partitioned into %u partitions, replication factor %.2f\n",
              graph.num_partitions(), graph.replication_factor());

  // 3. Run one PageRank job on the LTP engine.
  EngineOptions options;
  options.num_workers = 4;
  LtpEngine engine(&graph, options);
  const JobId job = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-9)).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();

  std::printf("converged in %llu iterations (%.1f ms wall)\n",
              static_cast<unsigned long long>(report.jobs[0].iterations),
              report.wall_seconds * 1e3);

  // 4. Read results: top-5 ranked vertices.
  const std::vector<double> ranks = engine.FinalValues(job);
  std::vector<VertexId> order(ranks.size());
  for (VertexId v = 0; v < order.size(); ++v) {
    order[v] = v;
  }
  std::partial_sort(order.begin(), order.begin() + std::min<size_t>(5, order.size()),
                    order.end(), [&](VertexId a, VertexId b) { return ranks[a] > ranks[b]; });
  std::printf("top vertices by rank:\n");
  for (size_t i = 0; i < std::min<size_t>(5, order.size()); ++i) {
    std::printf("  #%zu vertex %u rank %.6f\n", i + 1, order[i], ranks[order[i]]);
  }
  return 0;
}
