// Push stage of the LTP pipeline (paper section 3.2.4, Algorithm 2).
//
// When a job has handled all its active partitions, its buffered mirror deltas are merged
// into masters, merged values are broadcast back to mirrors, the delta double-buffer is
// swapped, and the next iteration's partitions are registered in the global table through
// the JobManager (activation tracing). Algorithm 2's SortD pass is realized as
// counting-sort buckets: mirror->master records are collected straight into
// per-destination-partition buckets (reused, pre-reserved on the Job), so sweeping buckets
// in partition order gives the same successive-access pattern — and the same charge model
// — as the sort, without sorting. The SortS half needs no buckets: each master's merged
// value is written straight into its mirrors' slots, and every destination slot has
// exactly one writer. Both halves walk each partition's mirror index (mirror_locals /
// replicated_masters) instead of filtering every local vertex. The iteration-boundary
// protocol with the vertex program runs here too: convergence detection, the
// max-iteration safety valve, and multi-phase re-initialization (SCC). Jobs that complete
// are finalized immediately via JobManager::FinishJob, which may admit a queued job into
// the freed slot.
//
// Async (bounded-staleness) jobs relax only the broadcast half of the sync: mirror->master
// merge runs every iteration, master->mirror delivery may lag by up to
// EngineOptions::staleness iterations through per-partition deferred-window accumulators,
// with a flush-on-drain pass guaranteeing every withheld record is delivered before the
// job can be declared converged. See docs/execution_modes.md.

#ifndef SRC_CORE_PUSH_STAGE_H_
#define SRC_CORE_PUSH_STAGE_H_

#include "src/cache/memory_hierarchy.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job_manager.h"
#include "src/partition/partitioned_graph.h"

namespace cgraph {

class PushStage {
 public:
  // `hierarchy` and `manager` are borrowed from the engine and must outlive this.
  PushStage(const PartitionedGraph& layout, MemoryHierarchy* hierarchy, JobManager* manager,
            const EngineOptions& options);

  // Buffers the job's non-identity mirror deltas of partition p into its sync queue
  // (the paper's S_new) after a trigger, clearing the slots for the broadcast phase.
  void CollectMirrorRecords(Job& job, PartitionId p) CGRAPH_REQUIRES_DRIVER;

  // Runs the job's full iteration-boundary push: merge, broadcast, buffer swap, activity
  // refresh, and the program's OnIterationEnd protocol. Finishes the job when it
  // converged, hit the iteration valve, or declared itself done.
  void Push(Job& job) CGRAPH_REQUIRES_DRIVER;

 private:
  // Master->mirror delivery: for every partition that is dirty or holds a pending
  // deferred window, Acc-folds the window into each replicated master's delta and writes
  // the result into all of that master's mirror slots, marking their partitions dirty.
  // Resets the windows and the job's since-sync count; returns the records sent.
  uint64_t Broadcast(Job& job) CGRAPH_REQUIRES_DRIVER;

  // Charges one private-partition access per dirty partition, in ascending order.
  void ChargeDirtyPartitions(Job& job) CGRAPH_REQUIRES_DRIVER;

  const PartitionedGraph& layout_;
  MemoryHierarchy* hierarchy_;
  JobManager* manager_;
  EngineOptions options_;
  // Replicated masters across all partitions — the scale against which the adaptive
  // deferral policy judges a boundary hot or cold.
  uint64_t total_replicated_ = 0;
};

}  // namespace cgraph

#endif  // SRC_CORE_PUSH_STAGE_H_
