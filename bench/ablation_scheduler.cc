// Ablation: decomposing the scheduler's Eq. 1 into its two terms.
//
//   none        — fixed index order, plain vertex-cut partitions (CGraph-without)
//   N(P) only   — priority = jobs registered (theta = 0), core-subgraph layout
//   full Eq. 1  — N(P) + theta * D(P) * C(P), core-subgraph layout
//
// The N(P) term does the temporal-correlation work; the D*C tiebreak accelerates
// convergence by pushing hub-heavy, fast-changing partitions first.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);
  const CostModel cost = env.Cost();

  std::printf("== Ablation: scheduler terms (modeled makespan, normalized to 'none') ==\n\n");
  TablePrinter table({"Data set", "none", "N(P) only", "full Eq.1", "full: LLC miss %"});
  for (const auto& spec : bench::BenchDatasets(env)) {
    const bench::PreparedDataset ds = bench::Prepare(spec, env);

    const RunReport none = bench::RunCgraph(ds, env, env.jobs, /*use_scheduler=*/false);

    EngineOptions n_only = env.Engine();
    n_only.theta_scale = 0.0;
    LtpEngine n_engine(&ds.graph, n_only);
    bench::AddMixJobs(n_engine, ds, env.jobs);
    n_engine.RunUntilIdle();
    const RunReport n_report = n_engine.Report();

    const RunReport full = bench::RunCgraph(ds, env, env.jobs, /*use_scheduler=*/true);

    const double base = none.ModeledMakespan(cost);
    table.AddRow({spec.name, "1.000", bench::Norm(n_report.ModeledMakespan(cost), base),
                  bench::Norm(full.ModeledMakespan(cost), base),
                  bench::Pct(full.cache.miss_rate())});
  }
  table.Print();
  return 0;
}
