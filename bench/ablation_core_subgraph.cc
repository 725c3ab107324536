// Ablation: the core-subgraph partitioning threshold (paper section 3.3).
//
// Sweeps the core-degree multiplier (a vertex is "core" above multiplier * average
// degree) and compares against plain vertex-cut partitioning, measuring modeled makespan
// and the volume swapped into the cache for the four-job mix.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);
  const CostModel cost = env.Cost();

  const auto specs = bench::BenchDatasets(env);
  const auto& spec = specs.back();
  const EdgeList edges = GenerateDataset(spec);
  const uint32_t parts = bench::PartitionCountFor(edges, env);
  const VertexId source = PickSourceVertex(edges);

  std::printf("== Ablation: core-subgraph degree threshold on %s ==\n\n", spec.name.c_str());
  TablePrinter table({"Partitioning", "Makespan (norm)", "Cache volume (norm)", "Core partitions"});

  double base_time = 0.0;
  double base_volume = 0.0;
  auto run_with = [&](const char* label, bool core, double multiplier) {
    PartitionOptions popts;
    popts.num_partitions = parts;
    popts.partitioner = PartitionerKind::kEvenEdge;
    popts.core_subgraph = core;
    popts.core_degree_multiplier = multiplier;
    const PartitionedGraph graph = PartitionedGraphBuilder::Build(edges, popts);
    uint32_t core_count = 0;
    for (const auto& part : graph.partitions()) {
      core_count += part.is_core() ? 1 : 0;
    }
    LtpEngine engine(&graph, env.Engine());
    for (const std::string& name : BenchmarkJobNames(env.jobs)) {
      engine.Submit(MakeProgram(name, source));
    }
    engine.RunUntilIdle();
    const RunReport report = engine.Report();
    const double time = report.ModeledMakespan(cost);
    const double volume = static_cast<double>(report.cache.miss_bytes);
    if (base_time == 0.0) {
      base_time = time;
      base_volume = volume;
    }
    table.AddRow({label, bench::Norm(time, base_time), bench::Norm(volume, base_volume),
                  std::to_string(core_count) + "/" + std::to_string(parts)});
  };

  run_with("plain vertex-cut", false, 0.0);
  run_with("core x2", true, 2.0);
  run_with("core x4", true, 4.0);
  run_with("core x8 (default)", true, 8.0);
  run_with("core x16", true, 16.0);
  table.Print();
  return 0;
}
