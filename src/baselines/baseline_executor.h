// Behavioural models of the systems CGraph is compared against (paper section 4).
//
// All baselines execute the *same vertex programs* on the *same partitioned substrate*
// and the *same simulated memory hierarchy* as the LTP engine, and converge to identical
// results (asserted in tests). They differ from the LTP engine — and from each other —
// only in the data-access policies that the paper identifies as the real systems'
// distinguishing traits:
//
//   Sequential  — the jobs run one after another ("the sequential way" of Fig. 2); the
//                 cache is flushed between jobs; one shared in-memory structure copy.
//   Seraph      — jobs run concurrently and share a single in-memory structure copy (the
//                 decoupling contribution of Seraph [31, 32]), but each job traverses its
//                 own active partitions in its own job-specific order; the interleaved
//                 access streams interfere in the shared LLC. With snapshots, each
//                 distinct snapshot is a full separate structure copy.
//   Seraph-VT   — Seraph plus Version-Traveler-style incremental snapshots [17]:
//                 unchanged partitions share one version in memory; access streams remain
//                 individual per job.
//   Nxgraph     — a single-job engine [11]: every job owns a private destination-sorted
//                 structure copy. Per-job copies multiply the memory footprint (and the
//                 disk I/O once the copies exceed memory); there is no inter-job sharing.
//   CLIP        — a single-job out-of-core engine [6]: per-job copies, plus *reentry* — a
//                 loaded partition is locally re-iterated (masters consume locally
//                 accumulated deltas) until quiescent, reducing global iteration counts
//                 and hence total loaded volume — plus beyond-neighborhood stray reads
//                 modeled as extra foreign-segment touches that damage its locality.
//
// The executor is a policy driver over the LTP engine's own layers: a JobManager admits
// every job at Run(), and each baseline step charges the system's structure copy, runs
// TriggerStage for the one job, applies CLIP's reentry and stray reads, then hands the
// partition to PushStage. What the driver itself decides is only the policy: which
// structure copy a job touches, the order each job walks partitions, and the Sequential
// flush between jobs. Baselines run BSP only, with no fault injection or checkpoints.

#ifndef SRC_BASELINES_BASELINE_EXECUTOR_H_
#define SRC_BASELINES_BASELINE_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/check.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/core/job_manager.h"
#include "src/core/push_stage.h"
#include "src/core/scheduler.h"
#include "src/core/trigger_stage.h"
#include "src/core/vertex_program.h"
#include "src/metrics/run_report.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/global_table.h"
#include "src/storage/snapshot_store.h"

namespace cgraph {

enum class BaselineSystem {
  kSequential,
  kSeraph,
  kSeraphVt,
  kNxgraph,
  kClip,
};

const char* BaselineSystemName(BaselineSystem system);

struct BaselineOptions {
  BaselineSystem system = BaselineSystem::kSeraph;
  EngineOptions engine;
  // CLIP: stray foreign private-state touches per processed partition
  // (beyond-neighborhood reads).
  uint32_t clip_foreign_touches = 4;
  // CLIP: cap on local reentry sub-rounds per partition load. On real web graphs
  // propagation chains are only partially aligned with partition boundaries, so unbounded
  // reentry would overstate CLIP (whose published gains are bounded by exactly this).
  uint32_t clip_reentry_limit = 3;
};

class BaselineExecutor {
 public:
  // Single-snapshot run over a prepartitioned graph (not owned).
  BaselineExecutor(const PartitionedGraph* graph, const BaselineOptions& options);
  // Snapshot-aware run (Seraph / Seraph-VT comparisons of Figs. 16-19).
  BaselineExecutor(const SnapshotStore* snapshots, const BaselineOptions& options);

  BaselineExecutor(const BaselineExecutor&) = delete;
  BaselineExecutor& operator=(const BaselineExecutor&) = delete;

  // Queues a job; Run() admits every queued job at once. Pre: Run() was not called yet.
  JobId Submit(std::unique_ptr<VertexProgram> program, Timestamp submit_time = 0);

  RunReport Run();

  // Pre: Run() was called (jobs are admitted there).
  const Job& job(JobId id) const {
    CGRAPH_CHECK(ran_);
    return manager_->job(id);
  }
  const MemoryHierarchy& hierarchy() const { return *hierarchy_; }

  // Value/aux of every global vertex, read from master replicas. Pre: Run() was called.
  std::vector<double> FinalValues(JobId id) const;
  std::vector<double> FinalAux(JobId id) const;

 private:
  struct PendingJob {
    std::unique_ptr<VertexProgram> program;
    Timestamp submit_time = 0;
  };

  // Shared constructor target: the public constructors differ only in which of `graph`
  // / `snapshots` is set.
  BaselineExecutor(const BaselineOptions& options, const PartitionedGraph* graph,
                   const SnapshotStore* snapshots);

  const PartitionedGraph& layout() const;
  // Structure item identity under this system's ownership/versioning policy.
  ItemKey StructureKey(const Job& job, PartitionId p) const;
  const GraphPartition& ResolveData(const Job& job, PartitionId p) const;

  // Builds the engine layers, with one slot per job so every job runs concurrently,
  // and admits all jobs.
  void Start() CGRAPH_REQUIRES_DRIVER;
  // Processes the job's next unprocessed active partition in its own traversal order;
  // pushes at iteration end.
  void StepJob(Job& job) CGRAPH_REQUIRES_DRIVER;
  void ReentryRounds(Job& job, PartitionId p, const GraphPartition& part);
  void StrayReads(Job& job, PartitionId p);

  const PartitionedGraph* graph_ = nullptr;
  const SnapshotStore* snapshots_ = nullptr;
  BaselineOptions options_;

  std::unique_ptr<MemoryHierarchy> hierarchy_;
  std::unique_ptr<ThreadPool> pool_;
  // Built by Start(), once the job count is known.
  std::unique_ptr<GlobalTable> global_table_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<TriggerStage> trigger_;
  std::unique_ptr<PushStage> push_;
  std::vector<PendingJob> pending_;
  // The one-job trigger group handed to TriggerStage.
  std::vector<Job*> group_;
  // Per-job traversal permutation ("different graph paths").
  std::vector<std::vector<PartitionId>> traversal_order_;
  // Per-job cursor into traversal_order_ for the current iteration.
  std::vector<size_t> cursor_;
  // Distinct submit timestamps, sorted: plain Seraph materializes one full structure copy
  // per distinct snapshot.
  std::vector<Timestamp> snapshot_ordinals_;
  bool ran_ = false;
};

}  // namespace cgraph

#endif  // SRC_BASELINES_BASELINE_EXECUTOR_H_
