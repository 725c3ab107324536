// Ablation: LLC eviction policy. Paper section 2.2 argues plain LRU swaps out
// frequently-used partitions in favor of one-shot streaming data; the frequency-aware
// policy evicts the least-touched entry within a tail window instead. Measured on the
// four-job mix over every dataset, for Seraph (individual streams, where interference is
// worst) and CGraph.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);

  std::printf("== Ablation: LLC eviction policy (miss rate %%) ==\n\n");
  TablePrinter table({"Data set", "Seraph LRU", "Seraph freq", "CGraph LRU", "CGraph freq"});
  for (const auto& spec : bench::BenchDatasets(env)) {
    const bench::PreparedDataset ds = bench::Prepare(spec, env);
    std::vector<std::string> row = {spec.name};
    for (const bool cgraph : {false, true}) {
      for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFrequencyAware}) {
        if (cgraph) {
          EngineOptions options = env.Engine();
          options.hierarchy.eviction_policy = policy;
          LtpEngine engine(&ds.graph, options);
          bench::AddMixJobs(engine, ds, env.jobs);
          engine.RunUntilIdle();
          row.push_back(bench::Pct(engine.Report().cache.miss_rate()));
        } else {
          BaselineOptions options;
          options.system = BaselineSystem::kSeraph;
          options.engine = env.Engine();
          options.engine.hierarchy.eviction_policy = policy;
          BaselineExecutor executor(&ds.graph_flat, options);
          bench::AddMixJobs(executor, ds, env.jobs);
          row.push_back(bench::Pct(executor.Run().cache.miss_rate()));
        }
      }
    }
    // Reorder: seraph-lru, seraph-freq, cgraph-lru, cgraph-freq already in order.
    table.AddRow(row);
  }
  table.Print();
  return 0;
}
