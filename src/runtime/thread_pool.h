// Fixed-size worker pool with one allocation-free dispatch path.
//
// One pool is created per executor run with `num_workers` lanes (the paper's "workers",
// one per core). The thread that calls RunBatch is one of those lanes, so a pool starts
// num_workers - 1 threads and a 1-worker pool starts none. RunBatch(n, fn) hands the n
// task indices out through a single atomic cursor; every lane claims indices lock-free
// and invokes the borrowed FunctionRef. Nothing is allocated and the mutex is taken only
// to open and close the batch. ForEachChunk layers the paper's straggler mitigation
// (section 3.2.3) on top: a range is cut into grains that whichever lane comes free
// claims next, so a lane stuck on a heavy grain never blocks the others.

#ifndef SRC_RUNTIME_THREAD_POOL_H_
#define SRC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cgraph {

class ThreadPool {
 public:
  // Invoked once per claimed task index in [0, n_tasks).
  using BatchFn = FunctionRef<void(size_t)>;
  // Invoked once per chunk [begin, end) of a ForEachChunk range.
  using ChunkFn = FunctionRef<void(size_t, size_t)>;

  // Runs `num_workers` lanes: the RunBatch caller plus num_workers - 1 spawned threads.
  // num_workers == 0 is clamped to 1. The lane count is capped at the hardware
  // concurrency when the platform reports one: lanes beyond the core count cannot run
  // concurrently — they only add wake-ups, context switches, and cursor contention to
  // every batch. The cap changes wall clock only; modeled metrics never depend on how
  // many threads actually execute a batch.
  explicit ThreadPool(size_t num_workers);

  // Joins all workers. Must not be called while a batch runs.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Lanes a batch can occupy: the spawned threads plus the RunBatch caller.
  size_t lanes() const { return threads_.size() + 1; }

  // True when a batch can run on more than one lane. When false (a 1-worker pool or
  // single-core hardware), RunBatch executes the whole index range inline on the calling
  // thread. Coverage and results are identical either way.
  bool CanRunConcurrently() const { return lanes() > 1; }

  // Invokes fn(i) exactly once for every i in [0, n_tasks), distributing indices to the
  // calling thread and the pool's workers through an atomic cursor. Blocks until every
  // index has been processed; `fn` is borrowed for exactly that long. No per-task
  // allocation. n_tasks <= 1 runs inline without waking anyone. Not reentrant: fn must
  // not call RunBatch on the same pool, and only one thread may drive batches at a
  // time — in the engine that is the single LTP driver thread.
  void RunBatch(size_t n_tasks, BatchFn fn);

  // Invokes body(begin, end) over disjoint subranges covering [0, n). Runs inline as
  // body(0, n) unless n covers at least two grains and the pool can run concurrently;
  // otherwise each of the ceil(n / grain) grain-sized chunks is one RunBatch task. Does
  // nothing for n == 0. grain must be positive.
  void ForEachChunk(size_t n, size_t grain, ChunkFn body);

 private:
  void WorkerLoop();

  // Claims batch indices until the cursor passes the end; the claimer of the last
  // completed index closes the batch and wakes the RunBatch caller. Called without the
  // mutex held (it briefly takes it to close the batch).
  void DrainBatch(BatchFn fn, size_t n_tasks) CGRAPH_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar batch_done_;
  bool shutting_down_ CGRAPH_GUARDED_BY(mutex_) = false;

  // Batch state. fn/size/epoch are written under mutex_ before the batch opens and read
  // by workers after they observe batch_open_ under the same mutex; the cursor and the
  // completion count are the only contended words while a batch runs.
  bool batch_open_ CGRAPH_GUARDED_BY(mutex_) = false;
  // Bumped per batch so a worker that drained an empty cursor sleeps instead of
  // respinning.
  uint64_t batch_epoch_ CGRAPH_GUARDED_BY(mutex_) = 0;
  // Workers currently inside DrainBatch. RunBatch returns only once this is 0, so the
  // next batch cannot reset the cursor under a straggling claimer of the previous one.
  size_t batch_drainers_ CGRAPH_GUARDED_BY(mutex_) = 0;
  // Valid while the batch that published it is open.
  BatchFn batch_fn_ CGRAPH_GUARDED_BY(mutex_);
  size_t batch_size_ CGRAPH_GUARDED_BY(mutex_) = 0;
  std::atomic<size_t> batch_cursor_{0};
  std::atomic<size_t> batch_completed_{0};

  std::vector<std::thread> threads_;
};

}  // namespace cgraph

#endif  // SRC_RUNTIME_THREAD_POOL_H_
