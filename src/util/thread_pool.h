#ifndef GDP_UTIL_THREAD_POOL_H_
#define GDP_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gdp::util {

/// A small fork-join pool for the engines' per-superstep parallel sections.
///
/// `num_threads` counts execution lanes including the calling thread, so a
/// pool of N spawns N-1 workers and ParallelFor(…) runs chunks on all N;
/// 0 means DefaultThreadCount(), as it does in every ExecContext.
/// Lanes are the index space for per-thread accounting scratch
/// (sim::PhaseAccumulator): the lane an individual chunk lands on is
/// scheduling-dependent, so anything keyed by lane must be merged
/// order-independently (integer counters) before touching shared state.
///
/// A pool of 1 never spawns threads and runs every chunk inline — the
/// num_threads=1 configuration is byte-for-byte the serial engine.
///
/// Locking: `mu_` guards the job hand-off state (generation counter, job
/// pointer/extent, worker count, stop flag); chunk claiming is lock-free on
/// `job_next_`. The annotations below are verified by Clang Thread Safety
/// Analysis under tools/check.sh's `-Wthread-safety` leg.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size()) + 1;
  }

  /// Runs fn(chunk, lane) for every chunk in [0, num_chunks). Chunks are
  /// claimed dynamically (fetch-add); lane < num_threads() identifies the
  /// executing lane. Blocks until every chunk has finished. Not reentrant.
  void ParallelFor(uint64_t num_chunks,
                   const std::function<void(uint64_t, uint32_t)>& fn)
      GDP_EXCLUDES(mu_);

  /// Default lane count for a thread count of 0: the hardware
  /// concurrency, clamped to [1, 16] so small simulated clusters on huge
  /// hosts do not drown in idle lanes.
  static uint32_t DefaultThreadCount();

 private:
  void WorkerLoop(uint32_t lane) GDP_EXCLUDES(mu_);
  /// Claims and runs chunks until the job is exhausted. Called with `mu_`
  /// released: the chunk counter is the only shared state it touches.
  void RunChunks(const std::function<void(uint64_t, uint32_t)>& fn,
                 uint64_t end, uint32_t lane) GDP_EXCLUDES(mu_);

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar cv_start_;
  CondVar cv_done_;
  uint64_t generation_ GDP_GUARDED_BY(mu_) = 0;  // bumped per ParallelFor
  uint32_t workers_active_ GDP_GUARDED_BY(mu_) = 0;  // inside current job
  bool stop_ GDP_GUARDED_BY(mu_) = false;

  // Current job (valid while generation_ is live).
  const std::function<void(uint64_t, uint32_t)>* job_fn_
      GDP_GUARDED_BY(mu_) = nullptr;
  uint64_t job_end_ GDP_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> job_next_{0};
};

}  // namespace gdp::util

#endif  // GDP_UTIL_THREAD_POOL_H_
