// Fault-injection harness, per-job failure isolation, and checkpoint/restart recovery
// (docs/robustness.md). The contract under test: an injected per-job fault never aborts
// the process, the faulted job lands in a terminal Failed/Cancelled state through the
// normal finalization path, co-running jobs produce exactly the results of an
// undisturbed run, and a checkpoint-restored job converges to the same final values as
// if the fault never happened. The daemon's retry-with-backoff policy on top must be
// byte-deterministic across runs and worker counts.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/common/fault_injection.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"
#include "src/service/trace_gen.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts = 8) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.partitioner = PartitionerKind::kEvenEdge;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

EngineOptions BaseOptions(uint32_t workers, ExecutionMode mode) {
  EngineOptions options = test_support::TestEngineOptions();
  options.num_workers = workers;
  options.execution_mode = mode;
  if (mode == ExecutionMode::kAsync) {
    // A wide window: buffers deferred at a hot boundary may outlive several
    // checkpoints, so restores must rebuild them correctly.
    options.staleness = 8;
  }
  return options;
}

// The min-accumulator job mix: exactly order-independent final values, so recovered and
// undisturbed runs can be compared for bit equality (docs/robustness.md).
const std::vector<std::string>& JobMix() {
  static const std::vector<std::string> mix = {"sssp", "wcc", "bfs"};
  return mix;
}

struct BatchRun {
  std::vector<JobStats> stats;
  std::vector<std::vector<double>> values;  // Empty vector for non-completed jobs.
  uint64_t final_step = 0;
};

// Submits the mix up front and drives to idle; when `restart_faulted` is set, jobs that
// failed with a checkpoint are restarted until nothing recoverable remains (the CLI's
// batch recovery loop).
BatchRun RunBatch(const PartitionedGraph& graph, const EngineOptions& options,
                  bool restart_faulted = false) {
  LtpEngine engine(&graph, options);
  for (const std::string& name : JobMix()) {
    engine.Submit(MakeProgram(name, 1));
  }
  engine.RunUntilIdle();
  if (restart_faulted) {
    for (int round = 0; round < 8; ++round) {
      bool restarted = false;
      for (JobId id = 0; id < static_cast<JobId>(engine.num_jobs()); ++id) {
        const JobStats& stats = engine.job(id).stats();
        if ((stats.failed || stats.cancelled) && engine.HasCheckpoint(id) &&
            engine.RestartFromCheckpoint(id, engine.current_step()).ok()) {
          restarted = true;
        }
      }
      if (!restarted) {
        break;
      }
      engine.RunUntilIdle();
    }
  }
  BatchRun run;
  run.final_step = engine.current_step();
  for (JobId id = 0; id < static_cast<JobId>(engine.num_jobs()); ++id) {
    run.stats.push_back(engine.job(id).stats());
    const Result<std::vector<double>> values = engine.TryFinalValues(id);
    run.values.push_back(values.ok() ? values.value() : std::vector<double>());
  }
  return run;
}

// The schedule-invariant compute columns (docs/robustness.md): equal for a job whose
// own execution was undisturbed, whatever happened to its co-runners.
void ExpectSameComputeColumns(const JobStats& a, const JobStats& b,
                              const std::string& what) {
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.vertex_computes, b.vertex_computes) << what;
  EXPECT_EQ(a.edge_traversals, b.edge_traversals) << what;
  EXPECT_EQ(a.push_updates, b.push_updates) << what;
  EXPECT_EQ(a.compute_units, b.compute_units) << what;
}

void ExpectIdenticalValues(const std::vector<double>& a, const std::vector<double>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v], b[v]) << what << " vertex " << v;
  }
}

// --- Fault-spec grammar -------------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryKindWithAndWithoutJobPin) {
  const struct {
    const char* text;
    FaultKind kind;
    uint64_t step;
    JobId job;
  } cases[] = {
      {"load@0", FaultKind::kLoadError, 0, kInvalidJob},
      {"trigger@17", FaultKind::kTriggerError, 17, kInvalidJob},
      {"push@40:2", FaultKind::kPushError, 40, 2},
      {"corrupt@9:0", FaultKind::kCorruptState, 9, 0},
      {"cancel@123456789", FaultKind::kCancel, 123456789, kInvalidJob},
  };
  for (const auto& c : cases) {
    FaultSpec spec;
    ASSERT_TRUE(ParseFaultSpec(c.text, &spec)) << c.text;
    EXPECT_EQ(spec.kind, c.kind) << c.text;
    EXPECT_EQ(spec.step, c.step) << c.text;
    EXPECT_EQ(spec.job, c.job) << c.text;
    // Round trip through the canonical kind spelling.
    EXPECT_STREQ(FaultKindName(spec.kind), std::string(c.text).substr(0, std::string(c.text).find('@')).c_str());
  }
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  FaultSpec spec;
  for (const char* text : {"", "load", "@4", "load@", "load@x", "oom@4", "none@4",
                           "load@4:", "load@4:x", "load@4:4294967295", "load@-1"}) {
    EXPECT_FALSE(ParseFaultSpec(text, &spec)) << "'" << text << "'";
  }
}

TEST(FaultInjectorTest, SpecsFireOnceAtTheFirstMatchingPoll) {
  FaultInjector injector({{FaultKind::kPushError, 10, kInvalidJob},
                          {FaultKind::kPushError, 10, 3}},
                         7);
  EXPECT_TRUE(injector.armed());
  EXPECT_EQ(injector.fired(), 0u);
  // Below the step threshold: nothing fires.
  EXPECT_EQ(injector.Poll(FaultKind::kPushError, 9, 3), nullptr);
  // Kind mismatch: nothing fires.
  EXPECT_EQ(injector.Poll(FaultKind::kLoadError, 10, 3), nullptr);
  // The unpinned spec matches any job at step >= 10 and fires exactly once.
  EXPECT_NE(injector.Poll(FaultKind::kPushError, 12, 0), nullptr);
  EXPECT_EQ(injector.fired(), 1u);
  // The pinned spec ignores other jobs, then fires for job 3.
  EXPECT_EQ(injector.Poll(FaultKind::kPushError, 12, 0), nullptr);
  EXPECT_NE(injector.Poll(FaultKind::kPushError, 12, 3), nullptr);
  EXPECT_EQ(injector.fired(), 2u);
  // Everything spent: polls are no-ops from here on.
  EXPECT_EQ(injector.Poll(FaultKind::kPushError, 100, 3), nullptr);

  // Unarmed injector: the zero-cost fast path.
  FaultInjector unarmed;
  EXPECT_FALSE(unarmed.armed());
  EXPECT_EQ(unarmed.Poll(FaultKind::kPushError, 0, 0), nullptr);
}

TEST(FaultInjectorTest, CorruptionPointIsAPureFunctionOfSeedAndJob) {
  FaultInjector a({{FaultKind::kCorruptState, 0, 0}}, 42);
  FaultInjector b({{FaultKind::kCorruptState, 0, 0}}, 42);
  FaultInjector c({{FaultKind::kCorruptState, 0, 0}}, 43);
  EXPECT_EQ(a.CorruptionPoint(0), b.CorruptionPoint(0));
  EXPECT_EQ(a.CorruptionPoint(7), b.CorruptionPoint(7));
  EXPECT_NE(a.CorruptionPoint(0), a.CorruptionPoint(1));
  EXPECT_NE(a.CorruptionPoint(0), c.CorruptionPoint(0));
}

// --- Per-job failure isolation ------------------------------------------------------

// Every stage fault kind, under both execution modes and at 1 and 4 workers: the
// process survives, the faulted job is terminally Failed, and the co-running jobs'
// compute columns and converged values are exactly those of an undisturbed run.
TEST(FaultIsolationTest, InjectedFaultsNeverDisturbCoRunningJobs) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  const JobId victim = 1;  // wcc in the mix.

  for (ExecutionMode mode : {ExecutionMode::kBsp, ExecutionMode::kAsync}) {
    for (uint32_t workers : {1u, 4u}) {
      const EngineOptions clean_options = BaseOptions(workers, mode);
      const BatchRun clean = RunBatch(graph, clean_options);
      ASSERT_EQ(clean.stats.size(), JobMix().size());
      // Fire mid-flight: halfway to the victim's completion it is still running.
      const uint64_t fault_step = clean.stats[victim].finish_step / 2;

      for (FaultKind kind : {FaultKind::kLoadError, FaultKind::kTriggerError,
                             FaultKind::kPushError, FaultKind::kCorruptState}) {
        const std::string what = std::string(FaultKindName(kind)) + " mode=" +
                                 std::string(ExecutionModeName(mode)) +
                                 " workers=" + std::to_string(workers);
        EngineOptions options = clean_options;
        options.fault_specs = {{kind, fault_step, victim}};
        const BatchRun faulted = RunBatch(graph, options);

        ASSERT_EQ(faulted.stats.size(), clean.stats.size()) << what;
        EXPECT_TRUE(faulted.stats[victim].failed) << what;
        EXPECT_FALSE(faulted.stats[victim].fail_message.empty()) << what;
        EXPECT_TRUE(faulted.values[victim].empty()) << what;
        for (JobId id = 0; id < static_cast<JobId>(clean.stats.size()); ++id) {
          if (id == victim) {
            continue;
          }
          const std::string job_what = what + " job " + std::to_string(id);
          EXPECT_FALSE(faulted.stats[id].failed) << job_what;
          ExpectSameComputeColumns(faulted.stats[id], clean.stats[id], job_what);
          ExpectIdenticalValues(faulted.values[id], clean.values[id], job_what);
        }
      }
    }
  }
}

TEST(FaultIsolationTest, InjectedCancelRetiresTheJobAsCancelled) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.fault_specs = {{FaultKind::kCancel, 10, 0}};
  const BatchRun run = RunBatch(graph, options);
  EXPECT_TRUE(run.stats[0].cancelled);
  EXPECT_FALSE(run.stats[0].failed);
  EXPECT_TRUE(run.values[0].empty());
  // Co-runners still complete.
  EXPECT_FALSE(run.values[1].empty());
  EXPECT_FALSE(run.values[2].empty());
}

TEST(FaultIsolationTest, StepBudgetCancelsLongRunningJobs) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  const BatchRun clean = RunBatch(graph, BaseOptions(2, ExecutionMode::kBsp));

  // A budget below every job's clean runtime cancels them all.
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.job_step_budget = 4;
  const BatchRun budgeted = RunBatch(graph, options);
  for (JobId id = 0; id < static_cast<JobId>(budgeted.stats.size()); ++id) {
    EXPECT_TRUE(budgeted.stats[id].cancelled) << id;
  }
  // A budget far past the whole clean run cancels nothing.
  options.job_step_budget = clean.final_step * 4 + 1000;
  const BatchRun roomy = RunBatch(graph, options);
  for (JobId id = 0; id < static_cast<JobId>(roomy.stats.size()); ++id) {
    EXPECT_FALSE(roomy.stats[id].cancelled) << id;
    ExpectIdenticalValues(roomy.values[id], clean.values[id], std::to_string(id));
  }
}

TEST(CancelApiTest, CancelCoversWaitingRunningAndFinishedStates) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.max_jobs = 1;  // The second submission must queue.
  LtpEngine engine(&graph, options);
  const JobId running = engine.Submit(MakeProgram("sssp", 1)).id();
  const JobId waiting = engine.Submit(MakeProgram("wcc", 1)).id();
  ASSERT_TRUE(engine.Step());
  ASSERT_TRUE(engine.job(running).started());
  ASSERT_FALSE(engine.job(waiting).started());

  // Waiting: shed, never computes.
  EXPECT_TRUE(engine.Cancel(waiting));
  EXPECT_TRUE(engine.job(waiting).stats().shed);
  // Running: terminal mid-run cancellation; the slot frees for nothing else here.
  EXPECT_TRUE(engine.Cancel(running));
  EXPECT_TRUE(engine.job(running).stats().cancelled);
  // Wait() on a terminal job returns immediately instead of driving or hanging.
  engine.Wait(running);
  engine.Wait(waiting);
  // Finished: refused.
  EXPECT_FALSE(engine.Cancel(running));
  EXPECT_FALSE(engine.Cancel(waiting));
  engine.RunUntilIdle();
}

TEST(WaitSemanticsTest, TryFinalValuesNamesEveryTerminalState) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.max_jobs = 1;
  options.fault_specs = {{FaultKind::kTriggerError, 4, 0}};
  LtpEngine engine(&graph, options);
  const JobId doomed = engine.Submit(MakeProgram("sssp", 1)).id();
  const JobId queued = engine.Submit(MakeProgram("wcc", 1)).id();

  // Still pending: kFailedPrecondition, not a hang or a recycled-slot readback.
  EXPECT_EQ(engine.TryFinalValues(doomed).status().code(), StatusCode::kFailedPrecondition);
  engine.Cancel(queued);
  engine.RunUntilIdle();

  EXPECT_TRUE(engine.job(doomed).stats().failed);
  const Result<std::vector<double>> failed = engine.TryFinalValues(doomed);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  // The failure message travels to the caller.
  EXPECT_NE(failed.status().ToString().find("injected trigger-stage fault"),
            std::string::npos);
  EXPECT_EQ(engine.TryFinalValues(queued).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.TryFinalValues(999).status().code(), StatusCode::kNotFound);
}

// --- Checkpoint / restart -----------------------------------------------------------

TEST(CheckpointTest, RestoredJobConvergesToTheUndisturbedValues) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  const JobId wcc = 1;  // Index of wcc in JobMix().

  for (ExecutionMode mode : {ExecutionMode::kBsp, ExecutionMode::kAsync}) {
    for (uint32_t workers : {1u, 4u}) {
      const std::string what = std::string(ExecutionModeName(mode)) +
                               " workers=" + std::to_string(workers);
      const EngineOptions clean_options = BaseOptions(workers, mode);
      const BatchRun clean = RunBatch(graph, clean_options);
      if (mode == ExecutionMode::kAsync) {
        // wcc's all-active flood is what makes async boundaries hot; without deferral
        // every restore below would rebuild only empty windows.
        ASSERT_GT(clean.stats[wcc].deferred_pushes, 0u) << what;
      }

      for (JobId victim = 0; victim < static_cast<JobId>(JobMix().size()); ++victim) {
        // Late enough that the victim passed a checkpoint, early enough to be running.
        const uint64_t late_step = clean.stats[victim].finish_step * 3 / 4;
        // wcc touches every partition in its first iteration, so one step per partition
        // later it has just checkpointed that iteration's boundary — inside the flood,
        // where the async restore must bring back non-empty deferred windows.
        std::vector<uint64_t> fault_steps = {late_step};
        if (victim == wcc) {
          fault_steps.push_back(graph.num_partitions());
        }
        for (const uint64_t fault_step : fault_steps) {
          EngineOptions options = clean_options;
          options.checkpoint_every = 1;  // A restart point at every iteration boundary.
          options.fault_specs = {{FaultKind::kTriggerError, fault_step, victim}};
          const BatchRun recovered = RunBatch(graph, options, /*restart_faulted=*/true);

          const std::string job_what = what + " victim " + std::to_string(victim) +
                                       " fault_step " + std::to_string(fault_step);
          EXPECT_FALSE(recovered.stats[victim].failed) << job_what;
          EXPECT_EQ(recovered.stats[victim].recoveries, 1u) << job_what;
          for (JobId id = 0; id < static_cast<JobId>(clean.stats.size()); ++id) {
            const std::string each = job_what + " job " + std::to_string(id);
            ExpectSameComputeColumns(recovered.stats[id], clean.stats[id], each);
            ExpectIdenticalValues(recovered.values[id], clean.values[id], each);
          }
        }
      }
    }
  }
}

TEST(CheckpointTest, RestoreDiscardsCorruptedState) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  const BatchRun clean = RunBatch(graph, BaseOptions(2, ExecutionMode::kBsp));

  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.checkpoint_every = 1;
  options.fault_specs = {
      {FaultKind::kCorruptState, clean.stats[0].finish_step * 3 / 4, 0}};
  const BatchRun recovered = RunBatch(graph, options, /*restart_faulted=*/true);
  // The NaN scribbled into the victim's table must not survive the restore.
  ASSERT_FALSE(recovered.values[0].empty());
  for (double value : recovered.values[0]) {
    EXPECT_FALSE(std::isnan(value));
  }
  ExpectIdenticalValues(recovered.values[0], clean.values[0], "corrupt-restore");
}

TEST(CheckpointTest, CheckpointAccountingAndDropSemantics) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.checkpoint_every = 2;
  LtpEngine engine(&graph, options);
  std::vector<JobId> ids;
  for (const std::string& name : JobMix()) {
    ids.push_back(engine.Submit(MakeProgram(name, 1)).id());
  }
  engine.RunUntilIdle();
  for (JobId id : ids) {
    const JobStats& stats = engine.job(id).stats();
    // Every job with >= 2 completed iterations snapshotted, and paid bytes for it.
    if (stats.iterations >= 2) {
      EXPECT_GT(stats.checkpoints_taken, 0u) << id;
      EXPECT_GT(stats.checkpoint_bytes, 0u) << id;
    }
    // Clean completion drops the restart point — nothing to restore afterwards.
    EXPECT_FALSE(engine.HasCheckpoint(id)) << id;
    EXPECT_EQ(engine.RestartFromCheckpoint(id, 0).code(), StatusCode::kFailedPrecondition)
        << id;
  }
  EXPECT_EQ(engine.RestartFromCheckpoint(999, 0).code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, FailureBeforeFirstBoundaryHasNoRestartPoint) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.checkpoint_every = 1000;  // No job reaches iteration 1000.
  options.fault_specs = {{FaultKind::kPushError, 8, 0}};
  LtpEngine engine(&graph, options);
  for (const std::string& name : JobMix()) {
    engine.Submit(MakeProgram(name, 1));
  }
  engine.RunUntilIdle();
  ASSERT_TRUE(engine.job(0).stats().failed);
  EXPECT_FALSE(engine.HasCheckpoint(0));
  EXPECT_EQ(engine.RestartFromCheckpoint(0, 0).code(), StatusCode::kNotFound);
}

// Checkpoints must not change what the engine computes or charges: the modeled stats of
// a checkpointing run match a non-checkpointing run bit for bit (the snapshot cost is
// modeled analytically from checkpoint_bytes instead; docs/robustness.md).
TEST(CheckpointTest, CheckpointingAddsNoHierarchyCharge) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  const BatchRun plain = RunBatch(graph, BaseOptions(2, ExecutionMode::kBsp));
  EngineOptions options = BaseOptions(2, ExecutionMode::kBsp);
  options.checkpoint_every = 1;
  const BatchRun checkpointed = RunBatch(graph, options);
  ASSERT_EQ(plain.stats.size(), checkpointed.stats.size());
  EXPECT_EQ(plain.final_step, checkpointed.final_step);
  for (size_t id = 0; id < plain.stats.size(); ++id) {
    const std::string what = "job " + std::to_string(id);
    ExpectSameComputeColumns(checkpointed.stats[id], plain.stats[id], what);
    EXPECT_EQ(checkpointed.stats[id].charge.hit_bytes, plain.stats[id].charge.hit_bytes)
        << what;
    EXPECT_EQ(checkpointed.stats[id].charge.mem_bytes, plain.stats[id].charge.mem_bytes)
        << what;
    EXPECT_EQ(checkpointed.stats[id].charge.disk_bytes, plain.stats[id].charge.disk_bytes)
        << what;
    ExpectIdenticalValues(checkpointed.values[id], plain.values[id], what);
  }
}

// --- Daemon retry-with-backoff ------------------------------------------------------

ServiceReport RunDaemon(const PartitionedGraph& graph, const EdgeList& edges,
                        uint32_t workers, const ServiceOptions& sopts,
                        const EngineOptions& base) {
  EngineOptions options = base;
  options.num_workers = workers;
  LtpEngine engine(&graph, options);
  TraceGenOptions tgen;
  tgen.num_requests = 48;
  tgen.mean_gap = 3;
  tgen.programs = JobMix();
  tgen.sources = PickSourcePool(edges, 4);
  ServiceDriver driver(&engine, sopts);
  return driver.Run(GenerateArrivalTrace(tgen));
}

TEST(RetryTest, RetriedFaultsCompleteEveryRequestDeterministically) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions base = test_support::TestEngineOptions();
  base.checkpoint_every = 2;
  base.fault_specs = {{FaultKind::kTriggerError, 40, kInvalidJob},
                      {FaultKind::kPushError, 90, kInvalidJob}};
  ServiceOptions sopts;
  sopts.retry_limit = 3;
  sopts.retry_backoff = 4;

  std::vector<ServiceReport> reports;
  for (uint32_t workers : {1u, 4u, 4u}) {  // Twice at 4: run-to-run determinism too.
    reports.push_back(RunDaemon(graph, edges, workers, sopts, base));
  }
  const ServiceReport& first = reports.front();
  // Both injected faults fired and were absorbed: nothing terminal-failed, every
  // request completed, and at least one retry path (resume or resubmit) exercised.
  EXPECT_EQ(first.failed_requests, 0u);
  EXPECT_EQ(first.completed_requests + first.shed_requests, first.total_requests);
  EXPECT_EQ(first.failed_jobs, 2u);
  EXPECT_GT(first.retried_jobs + first.recovered_jobs, 0u);
  // Accounting: every submitted job either executed, was shed terminally, or hit
  // failure/cancellation events not absorbed by a checkpoint resume. Resumes keep the
  // JobId (no new submission, one more fail/cancel event later), so they subtract;
  // resubmissions add one submission AND one later event each, so they cancel out.
  EXPECT_EQ(first.submitted_jobs,
            first.executed_jobs + first.shed_jobs + first.failed_jobs +
                first.cancelled_jobs - first.recovered_jobs);

  for (size_t r = 1; r < reports.size(); ++r) {
    const ServiceReport& other = reports[r];
    EXPECT_EQ(other.final_step, first.final_step) << r;
    EXPECT_EQ(other.completed_requests, first.completed_requests) << r;
    EXPECT_EQ(other.retried_jobs, first.retried_jobs) << r;
    EXPECT_EQ(other.recovered_jobs, first.recovered_jobs) << r;
    ASSERT_EQ(other.outcomes.size(), first.outcomes.size()) << r;
    for (size_t i = 0; i < first.outcomes.size(); ++i) {
      EXPECT_EQ(other.outcomes[i].job, first.outcomes[i].job) << r << " req " << i;
      EXPECT_EQ(other.outcomes[i].finish_step, first.outcomes[i].finish_step)
          << r << " req " << i;
      EXPECT_EQ(other.outcomes[i].shed, first.outcomes[i].shed) << r << " req " << i;
      EXPECT_EQ(other.outcomes[i].failed, first.outcomes[i].failed) << r << " req " << i;
    }
  }
}

TEST(RetryTest, ExhaustedRetriesFailTheCallersWithoutAborting) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions base = test_support::TestEngineOptions();
  // No checkpoints, and a budget so tight every attempt is cancelled: retries burn out.
  base.job_step_budget = 4;
  ServiceOptions sopts;
  sopts.retry_limit = 2;
  sopts.retry_backoff = 4;
  const ServiceReport report = RunDaemon(graph, edges, 2, sopts, base);
  EXPECT_EQ(report.completed_requests, 0u);
  EXPECT_EQ(report.failed_requests + report.shed_requests, report.total_requests);
  EXPECT_GT(report.failed_requests, 0u);
  EXPECT_GT(report.retried_jobs, 0u);
  EXPECT_EQ(report.recovered_jobs, 0u);
  // The accounting identity in the retried > 0, recovered == 0 regime: every
  // resubmission contributes one submission and one later cancellation event.
  EXPECT_EQ(report.submitted_jobs,
            report.executed_jobs + report.shed_jobs + report.failed_jobs +
                report.cancelled_jobs - report.recovered_jobs);
  for (const RequestOutcome& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.failed || outcome.shed);
  }
}

TEST(RetryTest, NoRetryPolicyLeavesFaultedCallersFailed) {
  const EdgeList edges = test_support::FixedRmat(8, 8, 7);
  const PartitionedGraph graph = Partition(edges);
  EngineOptions base = test_support::TestEngineOptions();
  base.fault_specs = {{FaultKind::kTriggerError, 40, kInvalidJob}};
  const ServiceReport report =
      RunDaemon(graph, edges, 2, ServiceOptions(), base);
  EXPECT_EQ(report.failed_jobs, 1u);
  EXPECT_GT(report.failed_requests, 0u);
  EXPECT_EQ(report.retried_jobs + report.recovered_jobs, 0u);
  EXPECT_EQ(report.completed_requests + report.shed_requests + report.failed_requests,
            report.total_requests);
}

}  // namespace
}  // namespace cgraph
