#include "src/core/footprint_history.h"

#include <algorithm>

#include "src/common/check.h"

namespace cgraph {

FootprintHistory::FootprintHistory(uint32_t num_partitions, uint32_t buckets, double decay)
    : num_partitions_(num_partitions), buckets_(buckets), decay_(decay) {
  CGRAPH_CHECK(buckets > 0);
  CGRAPH_CHECK(decay >= 0.0 && decay <= 1.0);
}

void FootprintHistory::RecordCompletion(std::string_view program,
                                        const std::vector<std::vector<PartitionId>>& trace,
                                        uint64_t iterations) {
  if (iterations == 0) {
    return;  // Nothing initially active: no occupancy signal to learn from.
  }
  // Normalize the trace onto the bucket grid: iteration i covers the normalized lifetime
  // interval [i/I, (i+1)/I), bucket b the interval [b/B, (b+1)/B). Each active partition
  // of iteration i contributes the overlap of the two intervals, scaled by B so that a
  // partition active for the whole lifetime accumulates exactly 1.0 per bucket. This
  // handles both short jobs (I < B: one iteration spans several buckets) and long ones
  // (I > B: several iterations share a bucket) without empty or overflowing cells.
  std::vector<double> occ(static_cast<size_t>(buckets_) * num_partitions_, 0.0);
  const double inv_iters = 1.0 / static_cast<double>(iterations);
  const size_t rows = std::min<size_t>(trace.size(), iterations);
  for (size_t i = 0; i < rows; ++i) {
    const double lo = static_cast<double>(i) * inv_iters;
    const double hi = static_cast<double>(i + 1) * inv_iters;
    const uint32_t first = static_cast<uint32_t>(lo * buckets_);
    for (uint32_t b = first; b < buckets_; ++b) {
      const double b_lo = static_cast<double>(b) / buckets_;
      if (b_lo >= hi) {
        break;
      }
      const double b_hi = static_cast<double>(b + 1) / buckets_;
      const double share = (std::min(hi, b_hi) - std::max(lo, b_lo)) * buckets_;
      for (const PartitionId p : trace[i]) {
        CGRAPH_DCHECK(p < num_partitions_);
        occ[static_cast<size_t>(b) * num_partitions_ + p] += share;
      }
    }
  }

  auto [it, inserted] = profiles_.try_emplace(std::string(program));
  Profile& profile = it->second;
  if (inserted) {
    profile.occupancy.assign(occ.size(), 0.0);
  }
  for (size_t i = 0; i < occ.size(); ++i) {
    profile.occupancy[i] = profile.occupancy[i] * decay_ + occ[i];
  }
  profile.lifetime_sum = profile.lifetime_sum * decay_ + static_cast<double>(iterations);
  profile.weight = profile.weight * decay_ + 1.0;
}

const FootprintHistory::Profile* FootprintHistory::Find(std::string_view program) const {
  const auto it = profiles_.find(program);
  return it == profiles_.end() ? nullptr : &it->second;
}

bool FootprintHistory::HasProfile(std::string_view program) const {
  return Find(program) != nullptr;
}

double FootprintHistory::ExpectedLifetime(std::string_view program) const {
  const Profile* profile = Find(program);
  CGRAPH_CHECK(profile != nullptr);
  return profile->lifetime_sum / profile->weight;
}

double FootprintHistory::Occupancy(std::string_view program, uint32_t bucket,
                                   PartitionId p) const {
  const Profile* profile = Find(program);
  CGRAPH_CHECK(profile != nullptr);
  CGRAPH_CHECK(bucket < buckets_);
  CGRAPH_CHECK(p < num_partitions_);
  return profile->occupancy[static_cast<size_t>(bucket) * num_partitions_ + p] /
         profile->weight;
}

double FootprintHistory::LifetimeWeight(std::string_view program, PartitionId p) const {
  const Profile* profile = Find(program);
  CGRAPH_CHECK(profile != nullptr);
  CGRAPH_CHECK(p < num_partitions_);
  double sum = 0.0;
  for (uint32_t b = 0; b < buckets_; ++b) {
    sum += profile->occupancy[static_cast<size_t>(b) * num_partitions_ + p];
  }
  return sum / (profile->weight * buckets_);
}

double FootprintHistory::ProjectRunner(const PredictedRunner& runner, double offset,
                                       PartitionId p) const {
  const Profile* profile = Find(runner.program);
  if (profile == nullptr) {
    // Persistence fallback: no history for this type, assume it keeps needing exactly
    // the partitions of its current iteration.
    return (*runner.active_counts)[p] > 0 ? 1.0 : 0.0;
  }
  const double lifetime =
      std::max(profile->lifetime_sum / profile->weight,
               static_cast<double>(runner.iteration) + 1.0);  // Already past the mean: due.
  const double pos = (static_cast<double>(runner.iteration) + offset) / lifetime;
  if (pos >= 1.0) {
    return 0.0;  // Predicted finished by then.
  }
  const uint32_t b = std::min(static_cast<uint32_t>(pos * buckets_), buckets_ - 1);
  return profile->occupancy[static_cast<size_t>(b) * num_partitions_ + p] / profile->weight;
}

double FootprintHistory::PredictOverlap(std::string_view program,
                                        std::span<const PredictedRunner> running) const {
  const Profile* profile = Find(program);
  CGRAPH_CHECK(profile != nullptr);
  const double lifetime = profile->lifetime_sum / profile->weight;
  double needed = 0.0;
  double shared = 0.0;
  for (uint32_t b = 0; b < buckets_; ++b) {
    // Project the running set to this bucket's midpoint, measured in iteration offsets
    // of the waiter's expected lifetime (iterations of concurrent jobs are assumed to
    // advance at comparable rates — the modeled scheduler interleaves them per step).
    const double offset = (static_cast<double>(b) + 0.5) / buckets_ * lifetime;
    for (PartitionId p = 0; p < num_partitions_; ++p) {
      const double occ =
          profile->occupancy[static_cast<size_t>(b) * num_partitions_ + p] / profile->weight;
      if (occ <= 0.0) {
        continue;
      }
      needed += occ;
      double reg = 0.0;
      for (const PredictedRunner& runner : running) {
        reg = std::max(reg, ProjectRunner(runner, offset, p));
        if (reg >= 1.0) {
          break;
        }
      }
      shared += occ * reg;
    }
  }
  return needed <= 0.0 ? 0.0 : shared / needed;
}

}  // namespace cgraph
