// The job-service runtime: online submission while the engine runs, admission beyond
// max_jobs queuing instead of crashing, deterministic SubmitAt arrival interleavings
// matching a mid-drive Submit, and the Submit/Step/RunUntilIdle/Wait lifecycle.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {

class JobTestPeer {
 public:
  // Records of push-bucket capacity the job holds: the mirror->master sync_in_ buckets,
  // the only buffers of the push path.
  static size_t PushBucketCapacity(const Job& job) {
    size_t records = 0;
    for (const std::vector<BucketRecord>& bucket : job.sync_in_) {
      records += bucket.capacity();
    }
    return records;
  }
};

namespace {

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.partitioner = PartitionerKind::kEvenEdge;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

TEST(JobManagerTest, SubmitWhileRunningExecutesAndCompletes) {
  const EdgeList edges = GenerateErdosRenyi(250, 2000, 7);
  const Graph g = Graph::FromEdges(edges);
  const PartitionedGraph pg = Partition(edges, 6);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  // Let PageRank make real progress before the newcomer shows up.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Step());
  }
  const LtpEngine::JobHandle late = engine.Submit(std::make_unique<WccProgram>());
  EXPECT_FALSE(late.done());
  engine.RunUntilIdle();
  EXPECT_TRUE(late.done());
  test_support::ExpectNearValues(engine.FinalValues(late.id()), ReferenceWcc(g), 0.0,
                                 "midrun/wcc");
}

TEST(JobManagerTest, AdmissionBeyondMaxJobsQueuesInsteadOfCrashing) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 11);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 2;  // Two concurrency slots for four submissions.
  LtpEngine engine(&pg, options);
  std::vector<LtpEngine::JobHandle> handles;
  handles.push_back(engine.Submit(std::make_unique<WccProgram>()));
  handles.push_back(engine.Submit(std::make_unique<SsspProgram>(source)));
  handles.push_back(engine.Submit(std::make_unique<WccProgram>()));
  handles.push_back(engine.Submit(std::make_unique<BfsProgram>(source)));
  EXPECT_EQ(engine.num_jobs(), 4u);
  engine.RunUntilIdle();
  for (const auto& handle : handles) {
    EXPECT_TRUE(handle.done());
  }
  test_support::ExpectNearValues(engine.FinalValues(handles[0].id()), ReferenceWcc(g), 0.0,
                                 "queued/wcc0");
  test_support::ExpectNearValues(engine.FinalValues(handles[1].id()),
                                 ReferenceSssp(g, source), 1e-12, "queued/sssp");
  test_support::ExpectNearValues(engine.FinalValues(handles[2].id()), ReferenceWcc(g), 0.0,
                                 "queued/wcc2");
  test_support::ExpectNearValues(engine.FinalValues(handles[3].id()),
                                 ReferenceBfs(g, source), 0.0, "queued/bfs");
}

TEST(JobManagerTest, QueuedJobsAdmittedInSubmissionOrder) {
  const EdgeList edges = GenerateErdosRenyi(150, 1200, 13);
  const PartitionedGraph pg = Partition(edges, 4);

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 1;  // Strictly serial admission.
  LtpEngine engine(&pg, options);
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
  EXPECT_TRUE(engine.job(0).started());
  EXPECT_FALSE(engine.job(1).started());
  EXPECT_FALSE(engine.job(2).started());

  while (!engine.job(0).finished()) {
    ASSERT_TRUE(engine.Step());
  }
  // The freed slot admits the next waiter in FIFO order, not the newest submission.
  EXPECT_TRUE(engine.job(1).started());
  EXPECT_FALSE(engine.job(2).started());
  engine.RunUntilIdle();
  EXPECT_TRUE(engine.job(2).finished());
}

TEST(JobManagerTest, SubmitAtMatchesMidDriveSubmit) {
  const EdgeList edges = GenerateErdosRenyi(300, 2400, 17);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 6);
  constexpr uint64_t kArrival = 12;

  // SubmitAt path: the arrival is registered up front and injected by the step loop.
  LtpEngine scheduled(&pg, test_support::TestEngineOptions());
  scheduled.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  const JobId scheduled_late =
      scheduled.SubmitAt(std::make_unique<BfsProgram>(source), kArrival).id();
  scheduled.RunUntilIdle();
  const RunReport scheduled_report = scheduled.Report();

  // Submit path: the same arrival submitted online, mid-drive, at the same step.
  LtpEngine online(&pg, test_support::TestEngineOptions());
  online.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  while (online.current_step() < kArrival) {
    ASSERT_TRUE(online.Step());
  }
  const LtpEngine::JobHandle online_late = online.Submit(std::make_unique<BfsProgram>(source));
  online.RunUntilIdle();
  const RunReport online_report = online.Report();

  // The interleavings must be identical: same iteration counts, same work, same charge
  // attribution, same cache behavior.
  ASSERT_EQ(scheduled_report.jobs.size(), online_report.jobs.size());
  for (size_t j = 0; j < scheduled_report.jobs.size(); ++j) {
    EXPECT_EQ(scheduled_report.jobs[j].iterations, online_report.jobs[j].iterations) << j;
    EXPECT_EQ(scheduled_report.jobs[j].compute_units, online_report.jobs[j].compute_units) << j;
    EXPECT_EQ(scheduled_report.jobs[j].push_updates, online_report.jobs[j].push_updates) << j;
    EXPECT_EQ(scheduled_report.jobs[j].charge.total_bytes(),
              online_report.jobs[j].charge.total_bytes())
        << j;
  }
  EXPECT_EQ(scheduled_report.cache.touches, online_report.cache.touches);
  EXPECT_EQ(scheduled_report.cache.misses, online_report.cache.misses);
  EXPECT_EQ(scheduled_report.memory.disk_bytes, online_report.memory.disk_bytes);
  EXPECT_EQ(scheduled.FinalValues(scheduled_late), online.FinalValues(online_late.id()));
}

TEST(JobManagerTest, SubmitAfterIdleMatchesUpFrontRegistration) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 19);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  // First batch runs to idle; a job submitted afterwards must start executing on the next
  // drive and complete with results identical to up-front registration.
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.Submit(std::make_unique<BfsProgram>(source));
  engine.RunUntilIdle();
  const LtpEngine::JobHandle late = engine.Submit(std::make_unique<WccProgram>());
  EXPECT_FALSE(late.done());
  engine.RunUntilIdle();
  EXPECT_TRUE(late.done());

  LtpEngine upfront(&pg, test_support::TestEngineOptions());
  const JobId reference = upfront.Submit(std::make_unique<WccProgram>()).id();
  upfront.RunUntilIdle();
  EXPECT_EQ(engine.FinalValues(late.id()), upfront.FinalValues(reference));
  test_support::ExpectNearValues(engine.FinalValues(late.id()), ReferenceWcc(g), 0.0,
                                 "postidle/wcc");
}

TEST(JobManagerTest, WaitDrivesOneJobToCompletion) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 23);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const LtpEngine::JobHandle bfs = engine.Submit(std::make_unique<BfsProgram>(source));
  const LtpEngine::JobHandle pr = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  bfs.Wait();
  EXPECT_TRUE(bfs.done());
  test_support::ExpectNearValues(engine.FinalValues(bfs.id()), ReferenceBfs(g, source), 0.0,
                                 "wait/bfs");
  engine.RunUntilIdle();
  EXPECT_TRUE(pr.done());
  EXPECT_GT(pr.stats().iterations, 0u);
}

TEST(JobManagerTest, WaitOnCompletedJobReturnsImmediately) {
  const EdgeList edges = GenerateErdosRenyi(150, 1200, 31);
  const PartitionedGraph pg = Partition(edges, 4);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const LtpEngine::JobHandle wcc = engine.Submit(std::make_unique<WccProgram>());
  engine.RunUntilIdle();
  ASSERT_TRUE(wcc.done());
  // Wait on an already-finished job must return without driving the engine — a Wait
  // that stepped here would CHECK-fail (the engine is idle, Step() returns false).
  const uint64_t step_before = engine.current_step();
  engine.Wait(wcc.id());
  EXPECT_EQ(engine.current_step(), step_before);
}

TEST(JobManagerTest, WaitOnCompletedJobSurvivesSlotRecycling) {
  const EdgeList edges = GenerateErdosRenyi(150, 1200, 37);
  const PartitionedGraph pg = Partition(edges, 4);

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 1;  // Every job recycles the single slot.
  LtpEngine engine(&pg, options);
  const LtpEngine::JobHandle first = engine.Submit(std::make_unique<WccProgram>());
  const LtpEngine::JobHandle second =
      engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-8));
  const LtpEngine::JobHandle third = engine.Submit(std::make_unique<WccProgram>());

  engine.Wait(first.id());
  ASSERT_TRUE(first.done());
  // The slot first held now belongs to second (still running). Waiting on first's id
  // again must key off the *job*, not the recycled slot: it returns immediately instead
  // of driving until the slot's current occupant finishes.
  const uint64_t step_before = engine.current_step();
  engine.Wait(first.id());
  EXPECT_EQ(engine.current_step(), step_before);
  EXPECT_FALSE(second.done());

  engine.RunUntilIdle();
  EXPECT_TRUE(second.done());
  EXPECT_TRUE(third.done());
  // Re-waiting on any completed id after further recycling is still a no-op.
  const uint64_t final_step = engine.current_step();
  engine.Wait(second.id());
  engine.Wait(first.id());
  EXPECT_EQ(engine.current_step(), final_step);
}

// Push buckets are reserved at admission and released at completion, so a long-lived
// engine does not keep every finished job's bucket capacity.
TEST(JobManagerTest, FinishedJobHoldsNoPushBucketCapacity) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 41);
  const PartitionedGraph pg = Partition(edges, 6);
  ASSERT_GT(pg.quality().mirror_count, 0u);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const LtpEngine::JobHandle wcc = engine.Submit(std::make_unique<WccProgram>());
  const LtpEngine::JobHandle pr =
      engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  ASSERT_TRUE(engine.Step());
  EXPECT_GT(JobTestPeer::PushBucketCapacity(engine.job(wcc.id())), 0u);
  wcc.Wait();
  EXPECT_EQ(JobTestPeer::PushBucketCapacity(engine.job(wcc.id())), 0u);
  EXPECT_FALSE(pr.done());
  EXPECT_GT(JobTestPeer::PushBucketCapacity(engine.job(pr.id())), 0u);
  engine.RunUntilIdle();
  EXPECT_EQ(JobTestPeer::PushBucketCapacity(engine.job(pr.id())), 0u);
}

TEST(JobManagerTest, ScheduledArrivalBeyondConvergenceStillRuns) {
  const EdgeList edges = GenerateRing(64);
  const Graph g = Graph::FromEdges(edges);
  const PartitionedGraph pg = Partition(edges, 2);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.Submit(std::make_unique<BfsProgram>(0));
  // Runnable long after BFS converges; the drive loop must fast-forward and admit it.
  const LtpEngine::JobHandle late =
      engine.SubmitAt(std::make_unique<WccProgram>(), /*arrival_step=*/100000);
  engine.RunUntilIdle();
  EXPECT_TRUE(late.done());
  EXPECT_GE(engine.current_step(), 100000u);
  test_support::ExpectNearValues(engine.FinalValues(late.id()), ReferenceWcc(g), 0.0,
                                 "deferred/wcc");
}

TEST(JobManagerTest, ReportIsReadableMidRunAndFinalizesPerJob) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 29);
  const PartitionedGraph pg = Partition(edges, 4);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const LtpEngine::JobHandle pr = engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(engine.Step());
  }
  const RunReport midrun = engine.Report();
  ASSERT_EQ(midrun.jobs.size(), 1u);
  EXPECT_GT(midrun.jobs[0].vertex_computes, 0u);
  EXPECT_FALSE(pr.done());
  engine.RunUntilIdle();
  const RunReport final_report = engine.Report();
  EXPECT_GT(final_report.jobs[0].compute_units, midrun.jobs[0].compute_units);
  EXPECT_GT(final_report.jobs[0].iterations, 0u);
}

}  // namespace
}  // namespace cgraph
