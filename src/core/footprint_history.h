// Lifetime-footprint forecasting from completed-job history.
//
// The overlap admission policy (src/core/admission_policy.h) scores a waiting job by its
// *initial* active-partition footprint — a snapshot that goes stale against long-running
// traversals whose frontier has long since moved on. CGraph's correlations exist across a
// job's whole lifetime, so this subsystem learns, per program type, *where in the graph a
// job of that type spends its life*:
//
//   * Every completed job contributes its per-iteration registered-partition trace (the
//     activation-tracing sets JobManager maintains anyway). The trace is normalized onto
//     `buckets` equal slices of the job's lifetime, producing an occupancy matrix
//     occ[b][p] in [0, 1]: the fraction of bucket-b time partition p was active.
//   * Profiles are decayed means over completed jobs of the same program type:
//     contribution sums are multiplied by `decay` before each new job folds in, so recent
//     jobs dominate when the workload drifts (decay = 1 is the plain mean, 0 keeps only
//     the latest job).
//   * Prediction answers: over a fresh job's expected lifetime, what fraction of its
//     partition-time will be spent on partitions the currently running set also needs?
//     Running jobs with a profile are projected forward through their own occupancy
//     matrices (a job at iteration i of an expected L is at normalized position i/L);
//     running jobs without one are assumed to persist on their currently active
//     partitions.
//
// Everything is a pure function of modeled engine state — traces, iteration counts, and
// profile arithmetic — so predictions are deterministic across runs and worker counts.

#ifndef SRC_CORE_FOOTPRINT_HISTORY_H_
#define SRC_CORE_FOOTPRINT_HISTORY_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace cgraph {

// One running job as the predictor sees it: enough to project its future footprint.
struct PredictedRunner {
  // Profile key (the program's name); looked up in the history, may be unknown.
  std::string_view program;
  // Completed iterations so far (0 while in its first iteration).
  uint64_t iteration = 0;
  // Per-partition active-vertex counts of the job's current iteration; the persistence
  // fallback predicts the job stays exactly on these partitions. Never null.
  const std::vector<uint32_t>* active_counts = nullptr;
};

class FootprintHistory {
 public:
  // Pre: buckets > 0, decay in [0, 1].
  FootprintHistory(uint32_t num_partitions, uint32_t buckets, double decay);

  uint32_t num_partitions() const { return num_partitions_; }
  uint32_t buckets() const { return buckets_; }
  double decay() const { return decay_; }

  // Folds a completed job into its program type's profile. `trace[i]` lists the
  // partitions active at iteration i (ascending); rows at or beyond `iterations` are
  // ignored (the final activation refresh registers an iteration that never runs).
  // Zero-iteration jobs (nothing initially active) carry no occupancy signal and are
  // skipped entirely.
  //
  // Post: HasProfile(program) is true iff it was before or iterations > 0.
  void RecordCompletion(std::string_view program,
                        const std::vector<std::vector<PartitionId>>& trace,
                        uint64_t iterations);

  // Whether at least one completed job of this type has been folded in.
  bool HasProfile(std::string_view program) const;
  size_t num_profiles() const { return profiles_.size(); }

  // Decayed mean lifetime of the type, in iterations. Pre: HasProfile(program).
  double ExpectedLifetime(std::string_view program) const;

  // Predicted probability that a job of this type is active on partition p during
  // lifetime bucket b. Pre: HasProfile(program), b < buckets(), p < num_partitions().
  double Occupancy(std::string_view program, uint32_t bucket, PartitionId p) const;

  // Fraction of the type's lifetime spent active on p (occupancy integrated over
  // buckets). Pre: HasProfile(program).
  double LifetimeWeight(std::string_view program, PartitionId p) const;

  // The predict policy's score: the integral, over a fresh job's expected lifetime, of
  // its predicted footprint overlap with the running set's predicted footprint,
  // normalized to [0, 1] by the job's own predicted partition-time. For each lifetime
  // bucket the running set is projected to the bucket's midpoint (iteration offset
  // against each runner's expected lifetime); an empty running set scores 0.
  //
  // Pre: HasProfile(program); every runner's active_counts is non-null and sized
  // num_partitions().
  double PredictOverlap(std::string_view program,
                        std::span<const PredictedRunner> running) const;

 private:
  struct Profile {
    // Decayed sums; divide by weight for the mean. occupancy is buckets x partitions,
    // row-major.
    std::vector<double> occupancy;
    double lifetime_sum = 0.0;
    double weight = 0.0;
  };

  const Profile* Find(std::string_view program) const;

  // A runner's predicted activity on p, `offset` iterations into the future.
  double ProjectRunner(const PredictedRunner& runner, double offset, PartitionId p) const;

  uint32_t num_partitions_;
  uint32_t buckets_;
  double decay_;
  // Ordered map: deterministic iteration, heterogeneous string_view lookup.
  std::map<std::string, Profile, std::less<>> profiles_;
};

}  // namespace cgraph

#endif  // SRC_CORE_FOOTPRINT_HISTORY_H_
