// Evolving graph: jobs submitted at different times bind to different snapshots of the
// same graph (paper section 3.2.1, Fig. 5). Unchanged partitions are shared between
// snapshots, so concurrent jobs on different snapshots still amortize most loads.

#include <cstdio>
#include <memory>
#include <set>

#include "src/algorithms/factory.h"
#include "src/algorithms/wcc.h"
#include "src/common/strings.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/snapshot_store.h"

int main() {
  using namespace cgraph;

  RmatOptions rmat;
  rmat.scale = 12;
  rmat.edge_factor = 8;
  const EdgeList edges = GenerateRmat(rmat);

  PartitionOptions popts;
  popts.num_partitions = 16;
  SnapshotStore store(PartitionedGraphBuilder::Build(edges, popts));

  // Two graph updates arrive at t=10 and t=20, each rewiring 1% of the edges. Only the
  // partitions actually touched get new versions; the rest are shared.
  const uint32_t changed1 = store.CreateSnapshot(10, 0.01, 1);
  const uint32_t changed2 = store.CreateSnapshot(20, 0.01, 2);
  std::printf("snapshot t=10: %u/%u partitions re-versioned\n", changed1, store.num_partitions());
  std::printf("snapshot t=20: %u/%u partitions re-versioned\n", changed2, store.num_partitions());
  std::printf("incremental storage overhead: %s\n\n", HumanBytes(store.delta_bytes()).c_str());

  // Three WCC jobs submitted at t=0, t=10, t=20: each sees exactly its snapshot, and the
  // engine still shares every partition version needed by more than one job.
  EngineOptions options;
  options.num_workers = 4;
  LtpEngine engine(&store, options);
  const JobId j0 = engine.Submit(std::make_unique<WccProgram>(), /*submit_time=*/0).id();
  const JobId j1 = engine.Submit(std::make_unique<WccProgram>(), /*submit_time=*/10).id();
  const JobId j2 = engine.Submit(std::make_unique<WccProgram>(), /*submit_time=*/20).id();
  engine.RunUntilIdle();
  const RunReport report = engine.Report();

  auto components = [&engine](JobId id) {
    const auto labels = engine.FinalValues(id);
    std::set<double> distinct(labels.begin(), labels.end());
    return distinct.size();
  };
  std::printf("components per snapshot: t=0 -> %zu, t=10 -> %zu, t=20 -> %zu\n",
              components(j0), components(j1), components(j2));
  std::printf("LLC miss rate with cross-snapshot sharing: %s%%\n",
              FormatDouble(report.cache.miss_rate() * 100, 1).c_str());
  return 0;
}
