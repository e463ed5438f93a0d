#ifndef GDP_OBS_METRICS_H_
#define GDP_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gdp::obs {

/// Shards per metric: concurrent writers land on (mostly) distinct cache
/// lines and the read side sums all shards. 16 covers the thread counts the
/// determinism contracts exercise without bloating idle registries.
inline constexpr size_t kMetricShards = 16;

/// The metric families a registry can hold.
enum class MetricKind { kCounter, kGauge, kHistogram };

/// Display name of a metric kind ("counter", "gauge", "histogram").
const char* MetricKindName(MetricKind kind);

/// Monotonic sum, sharded per thread. Increments are integers, so the
/// merged value is independent of which thread wrote into which shard and
/// of the merge order — the basis of the cross-thread-count determinism
/// contract on every simulated-cost counter.
class Counter {
 public:
  /// Adds `delta` to the calling thread's shard.
  void Add(uint64_t delta) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Adds 1 to the calling thread's shard.
  void Increment() { Add(1); }

  /// The merged value: the sum over all shards.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  /// Stable per-thread shard slot (threads are striped over kMetricShards).
  static size_t ShardIndex();
  std::array<Shard, kMetricShards> shards_;
};

/// A point-in-time signed value. Set() is last-write-wins (use it only from
/// serial sections); SetMax() is commutative and therefore safe — and
/// deterministic — under concurrent writers.
class Gauge {
 public:
  /// Overwrites the gauge. Only deterministic from serial code.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }

  /// Raises the gauge to `value` if larger. Max commutes, so concurrent
  /// SetMax() calls converge to the same result in any interleaving.
  void SetMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }

  /// The current value.
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

/// Power-of-two-bucketed distribution of non-negative integer samples
/// (bucket b holds values with bit_width b, i.e. [2^(b-1), 2^b)). All
/// internals are integer counts, so merged contents are independent of
/// observation interleaving.
class Histogram {
 public:
  /// Buckets: one per possible bit_width of a uint64_t (0..64).
  static constexpr size_t kBuckets = 65;

  /// Records one sample.
  void Observe(uint64_t value) {
    buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Number of samples observed.
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }

  /// Sum of all observed samples.
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Largest observed sample (0 when empty).
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Samples in bucket `b` (values with bit_width b).
  uint64_t BucketCount(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Upper bound of the bucket holding the q-quantile sample (q in [0, 1]):
  /// the smallest power-of-two bucket boundary such that at least
  /// ceil(q * count) samples fall at or below it. Resolution is the bucket
  /// width (one bit of the value); 0 when the histogram is empty. Walks a
  /// relaxed snapshot of the buckets, so a concurrent Observe may or may
  /// not be included — fine for the reporting paths this serves.
  uint64_t ValueAtQuantile(double q) const {
    const uint64_t total = Count();
    if (total == 0) return 0;
    q = std::min(1.0, std::max(0.0, q));
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += BucketCount(b);
      if (seen >= rank) {
        // Bucket b holds values with bit_width b: [2^(b-1), 2^b).
        return b == 0 ? 0 : (b >= 64 ? ~0ULL : (1ULL << b) - 1);
      }
    }
    return Max();
  }

 private:
  friend class MetricsRegistry;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Typed snapshot of a cache's registry-backed counters (PartitionCache,
/// engine::PlanCache). Replaces the raw hit/miss fields those caches used
/// to expose.
struct CacheStats {
  /// Lookups served from an existing entry.
  uint64_t hits = 0;
  /// Lookups that had to build the entry.
  uint64_t misses = 0;
};

/// A named collection of counters, gauges, and histograms.
///
/// Handles (Counter*/Gauge*/Histogram*) are registered on first use, have
/// stable addresses for the registry's lifetime, and are safe to write from
/// any thread (each metric is sharded per thread; see Counter). Snapshot()
/// merges the shards deterministically and reports metrics in registration
/// order. Lookup takes a lock — call Get*() once per site and keep the
/// handle, never per increment.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter named `name`, registered on first use. Dies if the name
  /// is already registered as a different kind.
  Counter* GetCounter(std::string_view name) GDP_EXCLUDES(mu_);

  /// The gauge named `name`, registered on first use.
  Gauge* GetGauge(std::string_view name) GDP_EXCLUDES(mu_);

  /// The histogram named `name`, registered on first use.
  Histogram* GetHistogram(std::string_view name) GDP_EXCLUDES(mu_);

  /// One merged metric in a Snapshot().
  struct Sample {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    /// Counter value / gauge value / histogram sample count.
    int64_t value = 0;
    /// Histogram only: sum and max of observed samples.
    uint64_t sum = 0;
    uint64_t max = 0;
    /// Histogram only: bucket-resolution quantiles
    /// (Histogram::ValueAtQuantile at 0.5 / 0.99).
    uint64_t p50 = 0;
    uint64_t p99 = 0;

    friend bool operator==(const Sample&, const Sample&) = default;
  };

  /// Merged values of every metric, in registration order. Shard merge is
  /// integer summation, so the result is independent of which threads wrote
  /// and in what order.
  std::vector<Sample> Snapshot() const GDP_EXCLUDES(mu_);

  /// Adds `other`'s metrics into this registry by name, registering names
  /// this registry has not seen in `other`'s registration order. Counters
  /// and histogram contents add; gauges take the maximum (the only
  /// commutative choice, so merging N per-worker registries is
  /// order-independent).
  void MergeFrom(const MetricsRegistry& other) GDP_EXCLUDES(mu_);

  /// Metrics registered so far.
  size_t size() const GDP_EXCLUDES(mu_);

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    // Exactly one of these is non-null, matching `kind`.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Finds or registers the entry for `name`; takes the lock itself. The
  /// returned pointer is stable (entries are never removed) and the metric
  /// handles it exposes are internally thread-safe, so callers hold no lock.
  Entry* GetEntry(std::string_view name, MetricKind kind) GDP_EXCLUDES(mu_);

  /// Guards registration: the entry list and the name index. The metric
  /// *values* are not guarded — Counter shards, Gauge, and Histogram are
  /// lock-free atomics written through stable handles.
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_
      GDP_GUARDED_BY(mu_);  // registration order
  std::map<std::string, Entry*, std::less<>> index_ GDP_GUARDED_BY(mu_);
};

}  // namespace gdp::obs

#endif  // GDP_OBS_METRICS_H_
