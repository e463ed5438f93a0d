#ifndef GDP_SERVING_QUERY_SERVER_H_
#define GDP_SERVING_QUERY_SERVER_H_

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "harness/experiment.h"
#include "harness/partition_cache.h"
#include "obs/metrics.h"
#include "serving/request.h"

namespace gdp::serving {

/// One graph in the served fleet: the edge list plus the ingress-affecting
/// spec (strategy, machines, seed, engine kind) that keys it into the
/// server's PartitionCache. The edge list must outlive the server.
struct GraphConfig {
  const graph::EdgeList* edges = nullptr;
  harness::ExperimentSpec spec;
};

/// Scheduler and execution knobs. All times are simulated microseconds.
struct ServerOptions {
  /// Dispatch window width: arrivals inside one window are admitted,
  /// batched, and dispatched together at window close.
  uint64_t window_us = 100000;
  /// Bounded request queue: at most this many admissions per window;
  /// excess requests are rejected (the queue fully drains each window).
  uint32_t queue_capacity = 64;
  /// Per-tenant fairness: at most this many queued requests per tenant per
  /// window (0 = no per-tenant cap).
  uint32_t tenant_quota = 0;
  /// Coalesce same-(graph, kind) requests of a window into one engine run:
  /// distance queries share a multi-source SSSP (up to kMsSsspLanes lanes),
  /// reachability an MS-BFS (up to 64), PageRank/k-core one shared
  /// run/sweep. false = one engine run per request (the baseline path).
  bool batching = true;
  /// Cap on requests per batch (clamped to the kernel lane width).
  uint32_t max_batch = 16;
  /// Simulated executor slots draining dispatched batches (earliest-free
  /// assignment, ties to the lowest slot).
  uint32_t num_executors = 4;
  /// Host worker threads executing batches and building their plans
  /// (0 = hardware default). Purely a wall-clock knob: every simulated
  /// figure is identical at any value.
  uint32_t num_threads = 1;
  /// Byte budgets forwarded to the caches (0 = unbounded).
  uint64_t partition_cache_budget_bytes = 0;
  uint64_t plan_cache_budget_bytes = 0;
};

/// What one Serve() call did, in simulated time.
struct ServeResult {
  /// responses[i] answers trace[i] (trace ids must equal positions).
  std::vector<Response> responses;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  /// Failed validation, so never queued or batched. admitted + rejected +
  /// invalid == trace size.
  uint64_t invalid = 0;
  uint64_t batches = 0;      ///< engine dispatches (== engine runs)
  uint64_t makespan_us = 0;  ///< completion time of the last batch
  /// Requests served per simulated second (admitted / makespan).
  double RequestsPerSecond() const {
    return makespan_us == 0
               ? 0.0
               : static_cast<double>(admitted) * 1e6 /
                     static_cast<double>(makespan_us);
  }
};

/// Multi-tenant query server over a fleet of pre-partitioned graphs.
///
/// Serve() runs the trace through three deterministic phases:
///   A (serial)   — request validation (graph index, vertex ids), windowed
///                  admission control (bounded queue + per-tenant quota),
///                  batch formation in arrival order, and cache
///                  warm-up: every PartitionCache/PlanCache lookup happens
///                  here, serially in batch order, so eviction order under
///                  a byte budget is deterministic; each batch pins its
///                  entry/plan via shared_ptr.
///   B (parallel) — batches execute on a util::ThreadPool, each against
///                  its own sim::Cluster restored from the entry's
///                  post-ingress snapshot; a batch's simulated cost is a
///                  pure function of (entry, queries), so host thread
///                  count never changes it.
///   C (serial)   — batches are assigned to simulated executors
///                  (earliest-free, lowest index on ties) starting at
///                  their window close; per-request latency = completion -
///                  arrival, recorded into the "serving.latency_us"
///                  histogram (p50/p99 via obs::MetricsTable).
///
/// Answers are bit-identical between the batched and unbatched paths (the
/// multi-source kernels relax each lane to the same fixed point as a
/// standalone run) and across host thread counts.
class QueryServer {
 public:
  QueryServer(std::vector<GraphConfig> fleet, ServerOptions options);

  /// Serves `trace` (non-decreasing arrival_us, ids == positions).
  ServeResult Serve(const std::vector<Request>& trace);

  /// The server's ingress-artifact cache (budgeted per ServerOptions).
  harness::PartitionCache& partition_cache() { return cache_; }

  /// Serving metrics: admitted/rejected/invalid/batches/batched_queries
  /// counters and the serving.latency_us histogram. Merge with
  /// partition_cache().registry() for a full export.
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  std::vector<GraphConfig> fleet_;
  ServerOptions options_;
  harness::PartitionCache cache_;
  obs::MetricsRegistry registry_;
  obs::Counter* admitted_ = registry_.GetCounter("serving.admitted");
  obs::Counter* rejected_ = registry_.GetCounter("serving.rejected");
  obs::Counter* invalid_ = registry_.GetCounter("serving.invalid");
  obs::Counter* batches_ = registry_.GetCounter("serving.batches");
  obs::Counter* batched_queries_ =
      registry_.GetCounter("serving.batched_queries");
  obs::Histogram* latency_us_ =
      registry_.GetHistogram("serving.latency_us");
};

}  // namespace gdp::serving

#endif  // GDP_SERVING_QUERY_SERVER_H_
