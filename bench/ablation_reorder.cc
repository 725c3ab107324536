// Ablation: vertex-id layout. Since partitions are cut from the (core-first,
// source-sorted) edge order, relabeling vertices changes which vertices share partitions.
// Compares the natural R-MAT labeling against degree-descending and BFS relabelings on
// the four-job mix.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/graph/reorder.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);
  const CostModel cost = env.Cost();

  const auto specs = bench::BenchDatasets(env);
  const auto& spec = specs[std::min<size_t>(3, specs.size() - 1)];
  const EdgeList natural = GenerateDataset(spec);
  const uint32_t parts = bench::PartitionCountFor(natural, env);

  std::printf("== Ablation: vertex-id layout on %s (%u partitions) ==\n\n", spec.name.c_str(),
              parts);
  TablePrinter table({"Layout", "Replication", "Makespan (norm)", "LLC miss %"});

  double base_time = 0.0;
  auto run_with = [&](const char* label, const EdgeList& edges) {
    PartitionOptions popts;
    popts.num_partitions = parts;
    popts.partitioner = PartitionerKind::kEvenEdge;
    const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);
    const VertexId source = PickSourceVertex(edges);
    LtpEngine engine(&graph, env.Engine());
    for (const std::string& name : BenchmarkJobNames(env.jobs)) {
      engine.Submit(MakeProgram(name, source));
    }
    engine.RunUntilIdle();
    const RunReport report = engine.Report();
    const double time = report.ModeledMakespan(cost);
    if (base_time == 0.0) {
      base_time = time;
    }
    table.AddRow({label, FormatDouble(graph.replication_factor(), 2),
                  bench::Norm(time, base_time), bench::Pct(report.cache.miss_rate())});
  };

  run_with("natural (generator ids)", natural);
  run_with("degree-descending", ReorderByDegree(natural).edges);
  run_with("bfs order", ReorderByBfs(natural).edges);
  table.Print();
  std::printf("\nBFS order clusters topologically-close vertices into the same chunks,\n"
              "cutting replication; degree order concentrates hubs like the core-subgraph\n"
              "layout does explicitly.\n");
  return 0;
}
