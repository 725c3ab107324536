// Figure 2: the motivation experiment — per-job execution and data-access time on Seraph
// as the number of concurrent jobs grows, normalized against the sequential way (each
// job runs alone in a fresh engine, graph re-streamed from disk).
//
// For each benchmark algorithm, n concurrent copies are submitted together. A job's
// "execution time" is its completion time — with n same-length jobs sharing the machine
// that is the run's modeled makespan — and its data-access time is the access component
// of that makespan. The paper's two observations must reproduce: (1) the concurrent way
// beats the sequential way in total time (about 60% at eight jobs), because one shared
// in-memory structure copy serves every job; (2) the average per-job time nevertheless
// grows with n (cache interference and bandwidth contention), driven by data access.

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cgraph;
  const auto env = bench::BenchEnv::FromArgs(argc, argv);
  const CostModel cost = env.Cost();

  // uk-union, as in the paper's section 2.1.
  const auto specs = bench::BenchDatasets(env);
  const auto& spec = specs[std::min<size_t>(3, specs.size() - 1)];
  const bench::PreparedDataset ds = bench::Prepare(spec, env);
  std::printf("== Figure 2: per-job cost on Seraph vs number of jobs (dataset %s) ==\n",
              spec.name.c_str());
  std::printf("values normalized to the same algorithm executed the sequential way\n\n");

  const std::vector<std::string> algos = {"pagerank", "sssp", "scc", "bfs"};
  TablePrinter exec_table({"Algorithm", "n=1", "n=2", "n=4", "n=8"});
  TablePrinter access_table({"Algorithm", "n=1", "n=2", "n=4", "n=8"});

  double concurrent_total_8 = 0.0;
  double sequential_total_8 = 0.0;

  for (const auto& algo : algos) {
    // Sequential unit: one cold run (fresh engine, graph streamed from disk).
    BaselineOptions seq_options;
    seq_options.system = BaselineSystem::kSequential;
    seq_options.engine = env.Engine();
    BaselineExecutor sequential(&ds.graph_flat, seq_options);
    sequential.Submit(MakeProgram(algo, ds.source));
    const RunReport seq_report = sequential.Run();
    const double seq_time = seq_report.ModeledMakespan(cost);
    const double seq_access = seq_report.jobs[0].ModeledAccessTime(cost, seq_report.workers);

    std::vector<std::string> exec_row = {algo};
    std::vector<std::string> access_row = {algo};
    for (const size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      BaselineOptions options;
      options.system = BaselineSystem::kSeraph;
      options.engine = env.Engine();
      BaselineExecutor executor(&ds.graph_flat, options);
      for (size_t i = 0; i < n; ++i) {
        executor.Submit(MakeProgram(algo, ds.source));
      }
      const RunReport report = executor.Run();
      const double per_job_time = report.ModeledMakespan(cost);
      double access_total = 0.0;
      for (const auto& job : report.jobs) {
        access_total += cost.AccessCost(job.charge);
      }
      const double per_job_access =
          access_total / std::max<uint32_t>(1, std::min(report.workers, cost.bandwidth_channels));
      exec_row.push_back(bench::Norm(per_job_time, seq_time));
      access_row.push_back(bench::Norm(per_job_access, seq_access));
      if (n == 8) {
        concurrent_total_8 += per_job_time;      // Makespan of the 8 concurrent copies.
        sequential_total_8 += 8.0 * seq_time;    // 8 cold runs back to back.
      }
    }
    exec_table.AddRow(exec_row);
    access_table.AddRow(access_row);
  }

  std::printf("-- (a) average execution time of each job --\n");
  exec_table.Print();
  std::printf("\n-- (b) average data access time of each job --\n");
  access_table.Print();
  std::printf(
      "\nconcurrent/sequential total time at 8 jobs: %s (paper: concurrent ~60%% of "
      "sequential)\n",
      bench::Norm(concurrent_total_8, sequential_total_8).c_str());
  return 0;
}
