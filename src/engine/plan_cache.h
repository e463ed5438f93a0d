#ifndef GDP_ENGINE_PLAN_CACHE_H_
#define GDP_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "engine/plan.h"
#include "obs/metrics.h"
#include "partition/distributed_graph.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gdp::engine {

/// Memoizes ExecutionPlan::Build for one shared DistributedGraph.
///
/// plan.cc rebuilds both per-direction CSRs for every run of every
/// application on the same partition; across a grid of N applications that
/// is N rebuilds of identical structures. A PlanCache builds each distinct
/// (gather_dir, scatter_dir, graphx_counts) plan once and hands out
/// shared pointers; plans are immutable after Build (plan.h), so one
/// cached plan can back any number of concurrent engine runs.
///
/// Byte budget: by default the budget is 0 = unbounded and entries are
/// never evicted (the pre-serving contract). set_byte_budget(n) caps the
/// resident plan bytes (ExecutionPlan::AdjacencyBytes ledger): whenever
/// admitting a newly built plan pushes the ledger over the budget, the
/// oldest admitted plans are evicted (deterministic FIFO by admission
/// order) until the ledger fits or only the newcomer remains — a single
/// plan larger than the budget is still served, it just evicts everything
/// else. Evicted plans stay alive for as long as callers hold the returned
/// shared_ptr; re-requesting an evicted key rebuilds (a fresh miss).
/// Eviction order is deterministic when admissions are serial (the serving
/// scheduler admits serially); concurrent same-window admissions may
/// interleave admission order by scheduling.
///
/// Thread-safety: Get() may be called concurrently; the first caller for a
/// key builds the plan, others block until it is ready. The graph must
/// outlive the cache (plans borrow it).
class PlanCache {
 public:
  explicit PlanCache(const partition::DistributedGraph& dg) : dg_(&dg) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for the given directions, building it on first use on
  /// `num_threads` host lanes (0 = the hardware default). The shared_ptr
  /// keeps the plan alive across eviction.
  std::shared_ptr<const ExecutionPlan> Get(EdgeDirection gather_dir,
                                           EdgeDirection scatter_dir,
                                           bool graphx_counts,
                                           uint32_t num_threads)
      GDP_EXCLUDES(mu_);

  const partition::DistributedGraph& dg() const { return *dg_; }

  /// Resident-byte cap for cached plans; 0 (default) = unbounded.
  /// Takes effect on the next admission — it does not evict retroactively.
  void set_byte_budget(uint64_t bytes) GDP_EXCLUDES(mu_);
  uint64_t byte_budget() const GDP_EXCLUDES(mu_);

  /// Bytes currently held by resident (non-evicted) plans.
  uint64_t resident_bytes() const GDP_EXCLUDES(mu_);

  /// Plans resident right now (for tests and cache-hit accounting).
  size_t num_plans() const GDP_EXCLUDES(mu_);

  /// Lookup accounting: hits (plan already built) vs misses (this call
  /// created the slot and built the plan). Backed by the cache's own
  /// metrics registry.
  obs::CacheStats stats() const;

  /// The cache's own metrics registry (plan_cache.hits/misses/evictions/
  /// evicted_bytes counters + plan_cache.resident_bytes gauge), for
  /// MergeFrom into an exported registry.
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  using Key = std::tuple<EdgeDirection, EdgeDirection, bool>;

  struct Slot {
    std::once_flag once;
    /// Set exactly once inside `once`; readable without mu_ afterwards
    /// (call_once is the synchronization point). Eviction drops the map's
    /// reference, never this field.
    std::shared_ptr<const ExecutionPlan> plan;
    uint64_t bytes = 0;  ///< set by the builder before admission
    /// True once the slot's creator accounted it in the byte ledger.
    /// Written and read under mu_ only; eviction skips unadmitted slots,
    /// so it never touches fields the builder is still writing.
    bool admitted = false;
  };

  /// Evicts oldest admitted plans until the ledger fits the budget; never
  /// evicts `protect` (the just-admitted key), so admission always makes
  /// progress even when one plan exceeds the whole budget.
  void EvictToBudgetLocked(const Key& protect) GDP_REQUIRES(mu_);

  const partition::DistributedGraph* dg_;
  /// Guards the slot map and the admission ledger only; plan construction
  /// runs outside the lock, serialized per key by the slot's
  /// std::once_flag.
  mutable util::Mutex mu_;
  std::map<Key, std::shared_ptr<Slot>> slots_ GDP_GUARDED_BY(mu_);
  /// Resident keys, oldest admission first (the eviction order).
  std::vector<Key> admission_order_ GDP_GUARDED_BY(mu_);
  uint64_t budget_bytes_ GDP_GUARDED_BY(mu_) = 0;
  uint64_t resident_bytes_ GDP_GUARDED_BY(mu_) = 0;
  // Registry-backed lookup/eviction counters (see stats()/registry()).
  obs::MetricsRegistry registry_;
  obs::Counter* hits_ = registry_.GetCounter("plan_cache.hits");
  obs::Counter* misses_ = registry_.GetCounter("plan_cache.misses");
  obs::Counter* evictions_ = registry_.GetCounter("plan_cache.evictions");
  obs::Counter* evicted_bytes_ =
      registry_.GetCounter("plan_cache.evicted_bytes");
  obs::Gauge* resident_gauge_ =
      registry_.GetGauge("plan_cache.resident_bytes");
};

}  // namespace gdp::engine

#endif  // GDP_ENGINE_PLAN_CACHE_H_
