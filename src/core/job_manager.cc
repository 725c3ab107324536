#include "src/core/job_manager.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <string>
#include <utility>

#include "src/cache/cache_sim.h"
#include "src/common/check.h"

namespace cgraph {

namespace {

// Footprint-history shape under the predict policy (src/core/footprint_history.h): each
// completed job's partition trace folds onto 8 lifetime buckets, and prior history is
// halved before each new completion folds in.
constexpr uint32_t kHistoryBuckets = 8;
constexpr double kHistoryDecay = 0.5;

// The initially-active predicate over a vertex's *freshly initialized* state — exactly
// the state InitJob's fill sweep writes (InitialState with delta_next at the Acc
// identity) before its first activity sweep evaluates InitiallyActive. ComputeFootprint
// and InitJob must agree on this evaluation or admission overlap scores drift from the
// partitions a job actually activates; keep all three sites in lockstep.
bool InitiallyActiveFresh(const VertexProgram& program, const LocalVertexInfo& info,
                          double identity) {
  VertexState state = program.InitialState(info);
  state.delta_next = identity;
  return program.InitiallyActive(info, state);
}

}  // namespace

JobManager::JobManager(const PartitionedGraph& layout, GlobalTable* table,
                       Scheduler* scheduler, ThreadPool* pool, const EngineOptions& options)
    : layout_(layout), table_(table), scheduler_(scheduler), pool_(pool), options_(options),
      slot_jobs_(options.max_jobs, nullptr),
      // The history subsystem exists only for the policy that consumes it: fifo/overlap
      // skip the allocation entirely.
      history_(options.admission_policy == AdmissionPolicyKind::kPredict
                   ? std::make_unique<FootprintHistory>(layout.num_partitions(),
                                                        kHistoryBuckets, kHistoryDecay)
                   : nullptr),
      policy_(MakeAdmissionPolicy(options, history_.get())) {
  CGRAPH_CHECK(table != nullptr);
  CGRAPH_CHECK(scheduler != nullptr);
  CGRAPH_CHECK(pool != nullptr);
  // Zero slots would livelock the drive loop: a due waiter could never be admitted.
  CGRAPH_CHECK(options.max_jobs > 0);
  // Aging is the overlap/predict policies' starvation bound (a bounded overlap advantage
  // cannot outrank an unboundedly aged waiter); zero would reopen unbounded waits.
  if (options.admission_policy != AdmissionPolicyKind::kFifo) {
    CGRAPH_CHECK(options.admission_aging > 0.0);
  }
  // The checkpoint subsystem exists only when asked for; runs without it pay nothing.
  if (options.checkpoint_every > 0) {
    checkpoints_ = std::make_unique<CheckpointStore>();
  }
}

JobId JobManager::Submit(std::unique_ptr<VertexProgram> program, Timestamp submit_time,
                         uint64_t arrival_step) {
  const JobId id = static_cast<JobId>(jobs_.size());
  // Job ids double as per-job cache-item owners, which PackItemKey bounds to 16 bits with
  // kSharedOwner reserved for the shared structure copy. Fail fast instead of silently
  // aliasing accounting; lifting the cap means widening ItemKey's owner field.
  CGRAPH_CHECK(id < kSharedOwner);
  jobs_.push_back(std::make_unique<Job>(id, std::move(program), submit_time));
  Job& job = *jobs_.back();
  job.stats_.job_name = std::string(job.program().name());
  // An arrival step in the past means "due now": clamp to the current step so the sorted
  // insert cannot queue-jump earlier waiters that are already due (FIFO fairness).
  arrival_step = std::max(arrival_step, current_step_);
  // Stable insert keeps equal arrival steps in submission order.
  auto it = std::upper_bound(waiting_.begin(), waiting_.end(), arrival_step,
                             [](uint64_t step, const Waiter& w) { return step < w.arrival_step; });
  waiting_.insert(it, Waiter{id, arrival_step});
  return id;
}

void JobManager::ComputeFootprint(Job& job) {
  const PartitionedGraph& g = layout_;
  const VertexProgram& program = job.program();
  const double identity = AccIdentity(program.acc_kind());
  job.footprint_.assign(g.num_partitions(), 0);
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    // Same per-vertex evaluation InitJob performs, without a private table: chunk counts
    // are an order-independent integer sum, so the parallel sweep is deterministic.
    const GraphPartition& part = g.partition(p);
    std::atomic<uint32_t> total{0};
    pool_->ForEachChunk(part.num_local_vertices(), kSweepGrain, [&](size_t begin, size_t end) {
      uint32_t count = 0;
      for (size_t i = begin; i < end; ++i) {
        const LocalVertexId v = static_cast<LocalVertexId>(i);
        if (InitiallyActiveFresh(program, part.vertex(v), identity)) {
          ++count;
        }
      }
      total.fetch_add(count, std::memory_order_relaxed);
    });
    job.footprint_[p] = total.load(std::memory_order_relaxed);
  }
}

void JobManager::AdmitDue(uint64_t step) {
  current_step_ = std::max(current_step_, step);
  // A job that finishes during InitJob (nothing initially active) frees its slot before
  // the next loop round, so an arbitrarily long run of instantly-done waiters drains
  // iteratively here rather than recursing.
  while (!waiting_.empty() && waiting_.front().arrival_step <= step) {
    if (running_ >= slot_jobs_.size()) {
      return;  // Saturated: don't score candidates for a decision that cannot admit.
    }
    // The due candidates are a prefix of the (arrival-sorted) queue; the policy chooses
    // which of them the next free slot admits. FIFO always picks the front — the exact
    // pre-policy behavior, including "a blocked due job blocks everyone behind it".
    candidates_.clear();
    for (const Waiter& w : waiting_) {
      if (w.arrival_step > step) {
        break;
      }
      candidates_.push_back(AdmissionPolicy::Candidate{
          w.job, w.arrival_step, &jobs_[w.job]->footprint(),
          jobs_[w.job]->stats_.job_name});
    }
    const bool contended = candidates_.size() > 1;
    // Footprints are computed lazily, only when a decision actually has competing
    // candidates: a lone due job is admitted regardless of its score, so the sweep
    // would be pure overhead in the uncontended case. Memoized per job (a computed
    // footprint is never empty — it has one entry per partition); deterministic
    // whenever computed, since it depends only on the program and the layout.
    if (policy_->needs_footprints() && contended) {
      for (const AdmissionPolicy::Candidate& c : candidates_) {
        if (jobs_[c.job]->footprint_.empty()) {
          ComputeFootprint(*jobs_[c.job]);
        }
      }
    }
    // The predict policy projects the running set forward: hand it the running jobs in
    // ascending slot order (deterministic, and identical to legacy id order whenever
    // total jobs <= max_jobs).
    runners_.clear();
    if (policy_->needs_history() && contended) {
      for (const Job* running : slot_jobs_) {
        if (running != nullptr) {
          runners_.push_back(PredictedRunner{running->stats_.job_name, running->iteration_,
                                             &running->active_count_});
        }
      }
    }
    const AdmissionPolicy::Decision pick =
        contended ? policy_->Pick(candidates_, *table_, step, runners_)
                  : AdmissionPolicy::Decision{0, 0.0, false};
    CGRAPH_CHECK(pick.index < candidates_.size());
    Job& job = *jobs_[candidates_[pick.index].job];
    const uint32_t slot = AllocateSlot(job);
    if (slot == Job::kInvalidSlot) {
      return;  // At capacity: every due job keeps waiting.
    }
    job.stats_.wait_steps = step - candidates_[pick.index].arrival_step;
    job.stats_.admit_overlap = pick.overlap;
    // Scored iff the policy actually computed a score: a decision with competitors under
    // a footprint-aware policy. Keeps "scored zero overlap" distinguishable from "never
    // scored" in Report() aggregation.
    job.stats_.admit_scored = contended && policy_->needs_footprints();
    job.stats_.admit_predicted = pick.predicted;
    job.stats_.predicted_overlap = pick.predicted ? pick.overlap : 0.0;
    waiting_.erase(waiting_.begin() + static_cast<ptrdiff_t>(pick.index));
    InitJob(job, slot);
  }
}

bool JobManager::CancelWaiting(JobId id) {
  CGRAPH_CHECK(id < jobs_.size());
  Job& job = *jobs_[id];
  if (job.started_ || job.finished_) {
    return false;  // Admitted or done: sheds only ever retire queued work.
  }
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->job == id) {
      waiting_.erase(it);
      job.finished_ = true;
      job.stats_.shed = true;
      job.stats_.finish_step = current_step_;
      // Never admitted: no slot, no registrations, no private table — nothing to tear
      // down, and wall_seconds stays 0 like any job that never computed.
      return true;
    }
  }
  // Every unstarted, unfinished job is in the waiting queue by construction.
  CGRAPH_CHECK(false);
  return false;
}

uint64_t JobManager::NextArrivalStep() const {
  CGRAPH_CHECK(!waiting_.empty());
  return waiting_.front().arrival_step;
}

uint32_t JobManager::AllocateSlot(const Job& job) const {
  const uint32_t num_slots = static_cast<uint32_t>(slot_jobs_.size());
  // Prefer slot == id: in every legacy scenario (total jobs <= max_jobs) each job then
  // lands on its own id even when an earlier job already finished, keeping registration
  // bits — and hence RegisteredJobs order, rotation, and miss attribution — identical to
  // the pre-layered engine. The fallback scan recycles freed slots for ids beyond the
  // pool.
  if (job.id_ < num_slots && slot_jobs_[job.id_] == nullptr) {
    return job.id_;
  }
  for (uint32_t s = 0; s < num_slots; ++s) {
    if (slot_jobs_[s] == nullptr) {
      return s;
    }
  }
  return Job::kInvalidSlot;
}

void JobManager::InitJob(Job& job, uint32_t slot) {
  const PartitionedGraph& g = layout_;
  job.started_ = true;
  job.slot_ = slot;
  slot_jobs_[slot] = &job;
  ++running_;
  // The step-budget clock and failure state restart on every (re-)admission.
  job.admit_step_ = current_step_;
  job.fail_status_ = Status();
  if (job.restore_pending_) {
    RestoreJob(job);
    return;
  }
  job.table_ = PrivateTable(g);
  ResetRunState(job);
  job.change_fraction_.assign(g.num_partitions(), 1.0);

  const VertexProgram& program = job.program();
  const double identity = AccIdentity(program.acc_kind());
  job.stats_.async_execution = job.async_;
  job.since_sync_ = 0;
  if (job.async_) {
    job.deferred_.resize(g.num_partitions());
    job.deferred_pending_.assign(g.num_partitions(), 0);
    for (PartitionId p = 0; p < g.num_partitions(); ++p) {
      job.deferred_[p].assign(g.partition(p).replicated_masters().size(), identity);
    }
  }

  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    const GraphPartition& part = g.partition(p);
    auto states = job.table_.partition(p);
    // This fill (and the initial activity sweep over it) is what InitiallyActiveFresh
    // mirrors for admission footprints — change them together.
    pool_->ForEachChunk(part.num_local_vertices(), kSweepGrain, [&](size_t begin, size_t end) {
      for (size_t v = begin; v < end; ++v) {
        states[v] = program.InitialState(part.vertex(static_cast<LocalVertexId>(v)));
        states[v].delta_next = identity;  // Acc must start at its identity.
      }
    });
  }
  const uint64_t active = RefreshActivity(job, /*all_partitions=*/true, /*swap_buffers=*/false,
                                          /*initial=*/true);
  if (active == 0) {
    FinalizeJob(job);  // The caller's admit loop picks up the freed slot.
    // A job that never computed reports zero wall time (legacy engine behavior), not the
    // engine uptime at its admission.
    job.stats_.wall_seconds = 0.0;
  }
}

void JobManager::RestoreJob(Job& job) {
  const PartitionedGraph& g = layout_;
  const JobCheckpoint* cp = FindCheckpoint(job.id_);
  // Reenqueue verified a checkpoint exists; losing it before admission is a bug.
  CGRAPH_CHECK(cp != nullptr);
  job.restore_pending_ = false;
  // Counters resume from the boundary snapshot so the recovered run reports the same
  // compute totals as an undisturbed one. The recovery count accumulates across
  // restarts, and the service-layer annotations belong to the current submission.
  const uint32_t recoveries = job.stats_.recoveries + 1;
  const uint32_t coalesced = job.stats_.coalesced_callers;
  const uint64_t deadline = job.stats_.deadline_step;
  job.stats_ = cp->stats;
  job.stats_.recoveries = recoveries;
  job.stats_.coalesced_callers = coalesced;
  job.stats_.deadline_step = deadline;

  job.table_ = cp->table;
  job.iteration_ = cp->iteration;
  job.since_sync_ = cp->since_sync;
  job.deferred_ = cp->deferred;
  job.deferred_pending_ = cp->deferred_pending;
  job.activity_trace_ = cp->activity_trace;
  // The snapshot's async state matches the re-derived mode because the options and
  // program are the job's own.
  ResetRunState(job);
  job.change_fraction_.assign(g.num_partitions(), 0.0);
  // Masks, counts, fractions, and registrations are pure functions of the restored
  // states at an iteration boundary: the all-partition re-sweep reproduces them exactly
  // (inactive partitions land on fraction 0, which is also their pre-failure value —
  // a partition's fraction was zeroed by the sweep that deactivated it).
  const uint64_t active = RefreshActivity(job, /*all_partitions=*/true, /*swap_buffers=*/false,
                                          /*initial=*/false);
  if (active == 0) {
    // Snapshots are only taken while registered, so this means the checkpointed state
    // already converged — finalize as a normal completion.
    FinalizeJob(job);
  }
}

void JobManager::ResetRunState(Job& job) {
  const PartitionedGraph& g = layout_;
  job.active_.resize(g.num_partitions());
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    job.active_[p].Resize(g.partition(p).num_local_vertices());
  }
  job.active_count_.assign(g.num_partitions(), 0);
  job.processed_.assign(g.num_partitions(), false);
  job.dirty_.assign(g.num_partitions(), false);
  // Merge buckets, pre-reserved to their tight per-iteration bound so the push path never
  // reallocates mid-run: partition p can receive at most one record per mirror of its
  // masters.
  job.sync_in_.resize(g.num_partitions());
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    job.sync_in_[p].clear();
    job.sync_in_[p].reserve(g.partition(p).num_mirror_refs());
  }
  // Effective execution mode, fixed for the job's lifetime: async only when the options
  // ask for it, the staleness window is non-degenerate, and the program declared the
  // monotonicity contract. Everything else runs the exact BSP path.
  job.async_ = options_.execution_mode == ExecutionMode::kAsync && options_.staleness > 0 &&
               job.program().monotonic();
}

void JobManager::FailJob(Job& job, Status status) {
  CGRAPH_CHECK(!status.ok());
  CGRAPH_CHECK(job.started_ && !job.finished_);
  job.stats_.failed = true;
  job.stats_.fail_message = status.ToString();
  job.fail_status_ = std::move(status);
  FinalizeJob(job);
  // The freed slot admits the next due waiter, exactly like a clean completion.
  AdmitDue(current_step_);
}

void JobManager::CancelRunning(Job& job) {
  CGRAPH_CHECK(job.started_ && !job.finished_);
  job.stats_.cancelled = true;
  FinalizeJob(job);
  AdmitDue(current_step_);
}

uint32_t JobManager::CancelOverBudget(uint64_t step) {
  if (options_.job_step_budget == 0) {
    return 0;
  }
  uint32_t cancelled = 0;
  // Ascending slot order for a deterministic cancellation sequence; FinalizeJob nulls
  // the scanned entry, so indexed iteration stays valid.
  for (size_t s = 0; s < slot_jobs_.size(); ++s) {
    Job* job = slot_jobs_[s];
    if (job != nullptr && step >= job->admit_step_ + options_.job_step_budget) {
      job->stats_.cancelled = true;
      FinalizeJob(*job);
      ++cancelled;
    }
  }
  if (cancelled > 0) {
    AdmitDue(step);
  }
  return cancelled;
}

Status JobManager::Reenqueue(JobId id, uint64_t arrival_step) {
  if (id >= jobs_.size()) {
    return Status::NotFound("Reenqueue: no job " + std::to_string(id));
  }
  Job& job = *jobs_[id];
  // Shed is accepted too: a restored job re-shed while waiting for its slot still has a
  // checkpoint to resume from.
  if (!job.finished_ || !(job.stats_.failed || job.stats_.cancelled || job.stats_.shed)) {
    return Status::FailedPrecondition("Reenqueue: job " + std::to_string(id) +
                                      " is not terminally failed, cancelled, or shed");
  }
  if (FindCheckpoint(id) == nullptr) {
    return Status::NotFound("Reenqueue: job " + std::to_string(id) + " has no checkpoint");
  }
  job.finished_ = false;
  job.started_ = false;
  job.restore_pending_ = true;
  // The terminal flags belong to the failed attempt; stats are fully rebuilt from the
  // snapshot at restore, this just keeps the waiting-state readback coherent.
  job.stats_.failed = false;
  job.stats_.cancelled = false;
  job.stats_.shed = false;
  job.fail_status_ = Status();
  arrival_step = std::max(arrival_step, current_step_);
  auto it = std::upper_bound(waiting_.begin(), waiting_.end(), arrival_step,
                             [](uint64_t step, const Waiter& w) { return step < w.arrival_step; });
  waiting_.insert(it, Waiter{id, arrival_step});
  return Status::Ok();
}

const JobCheckpoint* JobManager::FindCheckpoint(JobId id) const {
  return checkpoints_ == nullptr ? nullptr : checkpoints_->Find(id);
}

void JobManager::MaybeCheckpoint(Job& job) {
  if (checkpoints_ == nullptr || job.iteration_ == 0 ||
      job.iteration_ % options_.checkpoint_every != 0) {
    return;
  }
  uint64_t bytes = job.table_.total_bytes();
  for (const std::vector<double>& window : job.deferred_) {
    bytes += window.size() * sizeof(double);
  }
  // Counters first, snapshot second: a restored job then reproduces the undisturbed
  // run's later checkpoint counts exactly.
  job.stats_.checkpoints_taken += 1;
  job.stats_.checkpoint_bytes += bytes;
  JobCheckpoint cp;
  cp.iteration = job.iteration_;
  cp.since_sync = job.since_sync_;
  cp.table = job.table_;
  cp.deferred = job.deferred_;
  cp.deferred_pending = job.deferred_pending_;
  cp.activity_trace = job.activity_trace_;
  cp.stats = job.stats_;
  cp.bytes = bytes;
  checkpoints_->Save(job.id_, std::move(cp));
}

uint64_t JobManager::RefreshActivity(Job& job, bool all_partitions, bool swap_buffers,
                                     bool initial) {
  const PartitionedGraph& g = layout_;
  uint64_t total = 0;
  job.remaining_ = 0;
  // History-consuming policies record the registered set per iteration. The row is the
  // 0-based index of the iteration this registration feeds: 0 from InitJob, the next
  // iteration from the post-Push swap refresh (iteration_ not yet incremented), and the
  // current upcoming iteration from a phase re-initialization (iteration_ already
  // incremented — overwrites the row the swap refresh just wrote, which is correct:
  // the re-init replaced that iteration's activation set).
  std::vector<PartitionId>* trace_row = nullptr;
  if (policy_->needs_history()) {
    const size_t row = initial ? 0 : (swap_buffers ? job.iteration_ + 1 : job.iteration_);
    if (job.activity_trace_.size() <= row) {
      job.activity_trace_.resize(row + 1);
    }
    trace_row = &job.activity_trace_[row];
    trace_row->clear();
  }
  for (PartitionId p = 0; p < g.num_partitions(); ++p) {
    if (!all_partitions && !job.dirty_[p]) {
      // Untouched partition: previous activity stands. It is necessarily zero — every
      // registered partition was processed (hence dirty) before Push ran.
      CGRAPH_DCHECK(job.active_count_[p] == 0);
      table_->Unregister(p, job.slot_);
      continue;
    }
    const GraphPartition& part = g.partition(p);
    const uint32_t count = SweepPartitionActivity(job, part, p, swap_buffers, initial);
    job.active_count_[p] = count;
    job.change_fraction_[p] =
        part.num_local_vertices() == 0
            ? 0.0
            : static_cast<double>(count) / part.num_local_vertices();
    scheduler_->SetStateChange(p, MeanStateChange(p));
    job.dirty_[p] = false;
    total += count;
    if (count > 0) {
      table_->Register(p, job.slot_);
      ++job.remaining_;
      if (trace_row != nullptr) {
        trace_row->push_back(p);  // Ascending p: the loop index.
      }
    } else {
      // Keep registration exact even across repeated phase re-initializations.
      table_->Unregister(p, job.slot_);
    }
  }
  return total;
}

uint32_t JobManager::SweepPartitionActivity(Job& job, const GraphPartition& part,
                                            PartitionId p, bool swap_buffers, bool initial) {
  const VertexProgram& program = job.program();
  const double identity = AccIdentity(program.acc_kind());
  auto states = job.table_.partition(p);
  DynamicBitset& active = job.active_[p];
  active.ClearAll();
  // Chunk results are order-independent — the count is an integer sum and kSweepGrain's
  // word-aligned chunks keep concurrent Set() calls in disjoint bitmask words — so the
  // parallel sweep is bit-identical to the serial one.
  std::atomic<uint32_t> total{0};
  pool_->ForEachChunk(part.num_local_vertices(), kSweepGrain, [&](size_t begin, size_t end) {
    uint32_t count = 0;
    for (size_t i = begin; i < end; ++i) {
      const LocalVertexId v = static_cast<LocalVertexId>(i);
      if (swap_buffers) {
        states[v].delta = states[v].delta_next;
        states[v].delta_next = identity;
      }
      const bool is_active = initial
                                 ? program.InitiallyActive(part.vertex(v), states[v])
                                 : program.IsActive(states[v]);
      if (is_active) {
        active.Set(v);
        ++count;
      }
    }
    total.fetch_add(count, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

bool JobManager::MarkProcessed(Job& job, PartitionId p) {
  job.processed_[p] = true;
  job.dirty_[p] = true;
  table_->Unregister(p, job.slot_);
  if (job.remaining_ == 0) {
    // Registration accounting broke for this job alone — a per-job invariant failure.
    // Record it for the engine's FailJob routing instead of aborting every co-runner.
    job.fail_status_ = Status::Internal(
        "MarkProcessed: partition " + std::to_string(p) +
        " retired with no remaining registrations for job " + std::to_string(job.id_));
    return false;
  }
  --job.remaining_;
  return job.remaining_ == 0;
}

void JobManager::FinalizeJob(Job& job) {
  CGRAPH_CHECK(job.slot_ != Job::kInvalidSlot);
  job.finished_ = true;
  const bool clean = !job.stats_.failed && !job.stats_.cancelled;
  if (policy_->needs_history() && clean) {
    // Feed the completed lifetime back into the per-type profile before the freed slot
    // admits anyone — the very next decision already sees this job's trace. Failed and
    // cancelled jobs are excluded: their truncated traces would poison the profiles.
    history_->RecordCompletion(job.stats_.job_name, job.activity_trace_, job.stats_.iterations);
    job.activity_trace_.clear();
    job.activity_trace_.shrink_to_fit();
  }
  if (checkpoints_ != nullptr && clean) {
    // A cleanly completed job needs no restart point; failed/cancelled jobs keep theirs
    // for RestartFromCheckpoint.
    checkpoints_->Drop(job.id_);
  }
  table_->UnregisterEverywhere(job.slot_);
  // Release the push buckets' reserved capacity: a finished job never pushes again, and
  // ResetRunState re-reserves them if the job is re-admitted.
  std::vector<std::vector<BucketRecord>>().swap(job.sync_in_);
  job.remaining_ = 0;
  job.stats_.wall_seconds = elapsed_seconds_;
  job.stats_.finish_step = current_step_;
  slot_jobs_[job.slot_] = nullptr;
  job.slot_ = Job::kInvalidSlot;
  CGRAPH_CHECK(running_ > 0);
  --running_;
}

void JobManager::FinishJob(Job& job) {
  FinalizeJob(job);
  // The freed slot admits the next due waiter immediately.
  AdmitDue(current_step_);
}

double JobManager::MeanStateChange(PartitionId p) const {
  // Slot scan, not job scan: the slot pool is bounded by max_jobs while jobs_ grows with
  // every submission the service ever took. Occupied slots are exactly the started,
  // unfinished jobs; ascending slot order keeps the float summation deterministic (and
  // identical to the legacy id order whenever total jobs <= max_jobs).
  double sum = 0.0;
  uint32_t count = 0;
  for (const Job* job : slot_jobs_) {
    if (job != nullptr) {
      sum += job->change_fraction_[p];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace cgraph
