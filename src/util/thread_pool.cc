#include "util/thread_pool.h"

#include <algorithm>

namespace gdp::util {

ThreadPool::ThreadPool(uint32_t num_threads) {
  const uint32_t lanes =
      num_threads != 0 ? num_threads : DefaultThreadCount();
  workers_.reserve(lanes - 1);
  for (uint32_t lane = 1; lane < lanes; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_start_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

uint32_t ThreadPool::DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<uint32_t>(std::min(hw, 16u));
}

void ThreadPool::RunChunks(const std::function<void(uint64_t, uint32_t)>& fn,
                           uint64_t end, uint32_t lane) {
  for (;;) {
    uint64_t chunk = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= end) return;
    fn(chunk, lane);
  }
}

void ThreadPool::ParallelFor(
    uint64_t num_chunks, const std::function<void(uint64_t, uint32_t)>& fn) {
  if (num_chunks == 0) return;
  if (workers_.empty() || num_chunks == 1) {
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) fn(chunk, 0);
    return;
  }
  {
    MutexLock lock(mu_);
    job_fn_ = &fn;
    job_end_ = num_chunks;
    job_next_.store(0, std::memory_order_relaxed);
    workers_active_ = static_cast<uint32_t>(workers_.size());
    ++generation_;
  }
  cv_start_.NotifyAll();
  RunChunks(fn, num_chunks, /*lane=*/0);
  MutexLock lock(mu_);
  while (workers_active_ != 0) cv_done_.Wait(mu_);
  job_fn_ = nullptr;
}

void ThreadPool::WorkerLoop(uint32_t lane) {
  uint64_t seen_generation = 0;
  mu_.Lock();
  for (;;) {
    while (!stop_ && generation_ == seen_generation) cv_start_.Wait(mu_);
    if (stop_) {
      mu_.Unlock();
      return;
    }
    seen_generation = generation_;
    const std::function<void(uint64_t, uint32_t)>* fn = job_fn_;
    uint64_t end = job_end_;
    mu_.Unlock();
    RunChunks(*fn, end, lane);
    mu_.Lock();
    if (--workers_active_ == 0) cv_done_.NotifyAll();
  }
}

}  // namespace gdp::util
