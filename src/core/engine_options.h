// Configuration shared by the LTP engine and the baseline executors.

#ifndef SRC_CORE_ENGINE_OPTIONS_H_
#define SRC_CORE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/fault_injection.h"
#include "src/metrics/cost_model.h"

namespace cgraph {

// Which job-level admission policy JobManager uses when a concurrency slot frees up
// (the upper level of two-level scheduling; see src/core/admission_policy.h).
enum class AdmissionPolicyKind : uint8_t {
  kFifo,     // Strict arrival order (default; bit-identical to the pre-policy engine).
  kOverlap,  // Maximize footprint overlap with running jobs, aging-bounded wait.
  kPredict,  // Maximize lifetime-forecast overlap from completed-job history
             // (src/core/footprint_history.h); falls back to kOverlap scoring for
             // program types with no completed history yet.
};

// Iteration model (docs/execution_modes.md). kBsp is the deterministic bulk-synchronous
// default: every iteration triggers to a barrier, then the Push stage synchronizes
// replicas, so a vertex never sees same-iteration updates. kAsync relaxes both halves of
// that barrier for *monotonic* programs (VertexProgram::monotonic()):
//
//   * intra-iteration visibility — the trigger stage re-drains interior vertices (masters
//     with no replicas anywhere) of a partition within the iteration, so improvement
//     cascades that stay inside the partition settle in one pass instead of one level per
//     iteration;
//   * bounded-staleness propagation — the push stage may withhold master->mirror
//     broadcasts for up to `staleness` iterations, accumulating the deferred updates and
//     delivering their Acc-combination at the next sync boundary, so replica traffic is
//     batched instead of per-wave.
//
// Non-monotonic jobs silently run BSP under kAsync (stats().async_execution stays false);
// final converged values are identical to BSP either way — BSP stays the correctness
// oracle.
enum class ExecutionMode : uint8_t {
  kBsp,
  kAsync,
};

inline const char* ExecutionModeName(ExecutionMode mode) {
  return mode == ExecutionMode::kAsync ? "async" : "bsp";
}

// Parses a CLI spelling of ExecutionMode. Returns false (leaving *out untouched) on an
// unknown name so callers can emit a usage error listing the valid values.
inline bool ParseExecutionModeName(const char* name, ExecutionMode* out) {
  const std::string_view s(name);
  if (s == "bsp") {
    *out = ExecutionMode::kBsp;
    return true;
  }
  if (s == "async") {
    *out = ExecutionMode::kAsync;
    return true;
  }
  return false;
}

struct EngineOptions {
  // Workers ("cores"); one trigger task per worker (paper section 3.2.3). The thread
  // pool runs them as the driver thread plus num_workers - 1 threads.
  uint32_t num_workers = 4;

  // Simulated LLC / memory / disk parameters (identical across compared systems).
  HierarchyOptions hierarchy;

  // Modeled-time coefficients used by reports.
  CostModel cost_model;

  // Priority-based partition loading (Eq. 1). Disabled = fixed index order, i.e. the
  // "CGraph-without" configuration of Fig. 8.
  bool use_scheduler = true;

  // Ablation: scales Eq. 1's theta (0 drops the D(P)*C(P) term entirely, leaving pure
  // N(P) ordering; 1 is the paper's setting). Must be in [0, 1].
  double theta_scale = 1.0;

  // Straggler splitting: dynamic chunk stealing within a partition trigger (Fig. 6).
  // Disabled = one task per (job, partition).
  bool straggler_split = true;

  // Capacity of the global table's per-partition job set.
  uint32_t max_jobs = 64;

  // Job-level admission: which due waiter a freed slot admits (CLI: --admission).
  AdmissionPolicyKind admission_policy = AdmissionPolicyKind::kFifo;

  // Overlap/predict-admission aging: score bonus per scheduling step a due job has
  // waited (CLI: --aging). Both overlap scores are bounded by 1, so a waiter can only be
  // overtaken by jobs arriving within 1/admission_aging steps of it — bounded
  // overtaking, hence no starvation (total wait still depends on how long slot-holders
  // run). Must be > 0 under kOverlap/kPredict; ignored under kFifo.
  double admission_aging = 1.0 / 256.0;

  // Iteration model (CLI: --execution). kAsync only changes behavior for jobs whose
  // program declares monotonic() — everything else (and kBsp itself) is byte-identical
  // to the pre-async engine. See the ExecutionMode comment above and
  // docs/execution_modes.md.
  ExecutionMode execution_mode = ExecutionMode::kBsp;

  // Bounded-staleness window for kAsync (CLI: --staleness): master->mirror broadcasts
  // may be withheld for at most this many iterations before a forced sync, and only
  // while the boundary is hot (see PushStage::Push). 0 makes every push a sync
  // boundary — i.e. async degenerates to BSP and is treated as BSP (re-drain included).
  // Ignored under kBsp.
  uint32_t staleness = 1;

  // Safety valve against non-converging programs.
  uint64_t max_iterations_per_job = 10000;

  // Fault-tolerance layer (docs/robustness.md). All four knobs default off; the engine
  // pays nothing for the subsystem when they stay there.

  // Planned injected failures (CLI: --inject-fault=KIND@STEP[:JOB], repeatable). Empty =
  // harness unarmed; each poll site then costs one boolean load.
  std::vector<FaultSpec> fault_specs;

  // Seed for deterministic corruption-target selection under --inject-fault=corrupt@...
  uint64_t fault_seed = 42;

  // Iteration-boundary checkpointing (CLI: --checkpoint-every): every K-th iteration of a
  // running job snapshots its vertex values, deferred async windows, and stats into the
  // engine's CheckpointStore, enabling RestartFromCheckpoint after a failure or
  // cancellation. 0 = off. Checkpoints are bookkeeping, not modeled work: they add no
  // hierarchy charge, so modeled CSVs are byte-identical with checkpointing on or off
  // (their modeled cost is reported separately via stats().checkpoint_bytes).
  uint64_t checkpoint_every = 0;

  // Per-job execution budget in scheduling steps (CLI: --job-step-budget): a job still
  // running this many steps after its admission is cancelled mid-run (terminal
  // stats().cancelled; restartable from its last checkpoint). The budget restarts on
  // every (re-)admission. 0 = off. This is the daemon's lever for bounding *execution*,
  // complementing deadline_steps which bounds queue wait only.
  uint64_t job_step_budget = 0;
};

}  // namespace cgraph

#endif  // SRC_CORE_ENGINE_OPTIONS_H_
