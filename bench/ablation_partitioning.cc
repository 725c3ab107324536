// Ablation: edge-placement strategies (docs/partitioning.md). The paper's even-edge
// vertex-cut (section 3.2.1) is compared against hash-by-source, the streaming greedy
// replication-minimizing placement, and degree-aware hashing. Each row reports the
// build-time quality indices (replication factor, edge-cut fraction, edge balance)
// alongside the modeled makespan of the standard job mix on that layout — placement
// quality and runtime cost side by side.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/partition/partitioner.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);
  const CostModel cost = env.Cost();

  const auto specs = bench::BenchDatasets(env);
  const auto& spec = specs.back();
  const EdgeList edges = GenerateDataset(spec);
  const uint32_t parts = bench::PartitionCountFor(edges, env);
  const VertexId source = PickSourceVertex(edges);

  std::printf("== Ablation: edge-placement strategies on %s (%u partitions) ==\n\n",
              spec.name.c_str(), parts);
  TablePrinter table({"Strategy", "Replication", "Edge cut", "Edge balance",
                      "Mirrors", "Makespan (norm)"});

  double base_time = 0.0;
  auto run_with = [&](const char* label, PartitionerKind kind, bool core) {
    PartitionOptions popts;
    popts.num_partitions = parts;
    popts.partitioner = kind;
    popts.core_subgraph = core;
    const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);
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
    const PartitionQuality& q = graph.quality();
    table.AddRow({label, FormatDouble(q.replication_factor, 2),
                  FormatDouble(q.edge_cut_fraction, 3),
                  FormatDouble(q.edge_balance, 2), std::to_string(q.mirror_count),
                  bench::Norm(time, base_time)});
  };

  run_with("even_edge + core (paper)", PartitionerKind::kEvenEdge, true);
  run_with("even_edge", PartitionerKind::kEvenEdge, false);
  run_with("hash_source", PartitionerKind::kHashSource, false);
  run_with("greedy", PartitionerKind::kGreedy, false);
  run_with("degree", PartitionerKind::kDegree, false);
  table.Print();
  return 0;
}
