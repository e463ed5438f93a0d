#ifndef GDP_HARNESS_PARTITION_CACHE_H_
#define GDP_HARNESS_PARTITION_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include "engine/plan_cache.h"
#include "graph/edge_list.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace gdp::harness {

/// Everything the ingress phase of one experiment cell depends on. Two
/// specs with equal keys produce bit-identical IngestResults and
/// post-ingress cluster states (the ingest determinism contract), so their
/// cells can share one cached ingress artifact. Note what is *not* in the
/// key: the application, iteration caps, exec.num_threads (results are
/// thread-count-invariant), and the engine kind itself — only its
/// master-policy projection, so PowerGraph and a hypothetical engine with
/// the same policy would share entries.
struct IngressKey {
  uint64_t edge_fingerprint = 0;
  partition::StrategyKind strategy = partition::StrategyKind::kRandom;
  uint32_t num_partitions = 0;
  uint32_t num_machines = 0;
  uint32_t num_loaders = 0;  ///< resolved (0 -> num_machines)
  uint64_t seed = 0;
  partition::MasterPolicy master_policy =
      partition::MasterPolicy::kRandomReplica;
  bool use_partitioner_master_preference = false;
  /// The spec's ingress memory budget, but only when the strategy's
  /// registry traits say it reads the budget (SNE, HEP) — everyone else
  /// ignores it, so keying on it would just shred hit rates.
  uint64_t memory_budget_bytes = 0;

  friend auto operator<=>(const IngressKey&, const IngressKey&) = default;
};

/// A content-keyed cache of ingress artifacts: the IngestResult (partitioned
/// graph + ingress report), the exact post-ingress sim::Cluster state
/// (sim::ClusterSnapshot), and a PlanCache of ExecutionPlans over the shared
/// graph. N application cells over one (graph, strategy, cluster)
/// configuration pay for ingress once and for each distinct plan shape
/// once — the PowerGraph trick of amortizing one ingress across many jobs,
/// applied to the experiment grid and the serving layer.
///
/// Byte budget: by default the budget is 0 = unbounded and entries are
/// never evicted (the pre-serving contract; all grid benches run this
/// way). set_byte_budget(n) caps resident entry bytes (replica-table +
/// cluster-snapshot ledger, ApproxEntryBytes): when admitting a newly
/// built entry overflows the budget, the oldest admitted entries are
/// evicted (deterministic FIFO by admission order) until the ledger fits
/// or only the newcomer remains. Evicted entries stay alive while callers
/// hold the returned shared_ptr; re-requesting an evicted key re-runs the
/// ingress (a fresh miss). Eviction order is deterministic when admissions
/// are serial (the serving scheduler admits serially); concurrent
/// admissions may interleave admission order by scheduling.
///
/// Thread-safety: Get() may be called concurrently from grid workers; the
/// first caller for a key runs the ingress, racers block until it is
/// ready. PartitionContext knobs that ExperimentSpec cannot express
/// (hybrid_threshold, hdrf_lambda, ...) are always at their defaults in
/// keyed runs, so they need no key fields.
class PartitionCache {
 public:
  struct Entry {
    partition::IngestResult ingest;
    sim::ClusterSnapshot post_ingress;
    /// Plans over ingest.graph; unique_ptr so Entry stays movable while
    /// the (mutex-holding) PlanCache stays put.
    std::unique_ptr<engine::PlanCache> plans;

    /// The entry's byte-ledger charge: the replica table (the dominant
    /// partitioned-graph structure) plus the cluster snapshot. Plan bytes
    /// are accounted by the entry's own PlanCache ledger.
    uint64_t ApproxBytes() const;
  };

  PartitionCache() = default;
  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  /// The ingress key of (edges, spec): the edge-list fingerprint plus the
  /// spec's ingress-affecting projection.
  static IngressKey KeyFor(const graph::EdgeList& edges,
                           const ExperimentSpec& spec);

  /// The cached ingress artifact for (edges, spec), running the ingress on
  /// first use. The shared_ptr keeps the entry alive across eviction.
  std::shared_ptr<const Entry> Get(const graph::EdgeList& edges,
                                   const ExperimentSpec& spec)
      GDP_EXCLUDES(mu_);

  /// Resident-byte cap for cached ingress entries; 0 (default) =
  /// unbounded. Takes effect on the next admission.
  void set_byte_budget(uint64_t bytes) GDP_EXCLUDES(mu_);
  uint64_t byte_budget() const GDP_EXCLUDES(mu_);

  /// Byte budget handed to each newly built entry's PlanCache (0 =
  /// unbounded plans, the default). Existing entries keep their budget.
  void set_plan_byte_budget(uint64_t bytes) GDP_EXCLUDES(mu_);

  /// Bytes currently held by resident (non-evicted) entries.
  uint64_t resident_bytes() const GDP_EXCLUDES(mu_);

  /// Lookup accounting: hits (entry already built) vs misses (this call
  /// ran the ingress). Backed by the cache's own metrics registry.
  obs::CacheStats stats() const;

  size_t size() const GDP_EXCLUDES(mu_);

  /// The cache's own metrics registry (partition_cache.hits/misses/
  /// evictions/evicted_bytes counters + resident_bytes gauge),
  /// for MergeFrom into an exported registry.
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  struct Slot {
    std::once_flag once;
    Entry entry;
    uint64_t bytes = 0;  ///< set by the builder before admission
    /// True once the slot's creator accounted it in the byte ledger.
    /// Written and read under mu_ only; eviction skips unadmitted slots.
    bool admitted = false;
  };

  /// Evicts oldest admitted entries until the ledger fits the budget;
  /// never evicts `protect` (the just-admitted key).
  void EvictToBudgetLocked(const IngressKey& protect) GDP_REQUIRES(mu_);

  /// Guards the slot map and the admission ledger only. Building an entry
  /// happens outside the lock, serialized per slot by its std::once_flag,
  /// so distinct keys ingest concurrently.
  mutable util::Mutex mu_;
  std::map<IngressKey, std::shared_ptr<Slot>> slots_ GDP_GUARDED_BY(mu_);
  /// Resident keys, oldest admission first (the eviction order).
  std::vector<IngressKey> admission_order_ GDP_GUARDED_BY(mu_);
  uint64_t budget_bytes_ GDP_GUARDED_BY(mu_) = 0;
  uint64_t plan_budget_bytes_ GDP_GUARDED_BY(mu_) = 0;
  uint64_t resident_bytes_ GDP_GUARDED_BY(mu_) = 0;
  // Registry-backed lookup/eviction counters (see stats()/registry()).
  obs::MetricsRegistry registry_;
  obs::Counter* hits_ = registry_.GetCounter("partition_cache.hits");
  obs::Counter* misses_ = registry_.GetCounter("partition_cache.misses");
  obs::Counter* evictions_ = registry_.GetCounter("partition_cache.evictions");
  obs::Counter* evicted_bytes_ =
      registry_.GetCounter("partition_cache.evicted_bytes");
  obs::Gauge* resident_gauge_ =
      registry_.GetGauge("partition_cache.resident_bytes");
};

/// RunExperiment through `cache`: ingress (and plan construction) are
/// served from the cache when an equal-keyed cell already ran; the compute
/// phase starts from the restored post-ingress cluster state. Results are
/// field-identical to RunExperiment on a fresh cluster. Cached ingress runs
/// sink-free, so a cache hit emits no ingress spans: callers who need Fig
/// 6.3's ingress memory samples (the `memory_bytes` args on the ingress
/// spans) use RunExperiment, as bench_fig63_timeline does.
ExperimentResult RunExperimentCached(const graph::EdgeList& edges,
                                     const ExperimentSpec& spec,
                                     PartitionCache& cache);

/// RunIngressOnly through `cache`; same contract as RunExperimentCached.
ExperimentResult RunIngressOnlyCached(const graph::EdgeList& edges,
                                      const ExperimentSpec& spec,
                                      PartitionCache& cache);

}  // namespace gdp::harness

#endif  // GDP_HARNESS_PARTITION_CACHE_H_
