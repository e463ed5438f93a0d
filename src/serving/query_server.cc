#include "serving/query_server.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <memory>
#include <utility>

#include "apps/kcore.h"
#include "apps/msbfs.h"
#include "apps/mssssp.h"
#include "apps/pagerank.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gdp::serving {

namespace {

/// One coalesced engine dispatch: same window, same graph, same kind.
struct Batch {
  uint32_t window = 0;
  uint32_t graph = 0;
  QueryKind kind = QueryKind::kSsspDistance;
  std::vector<uint32_t> request_ids;  ///< arrival order within the window
  /// Pinned in phase A (serial cache traffic => deterministic eviction);
  /// the shared_ptrs keep evicted artifacts alive through phase B.
  std::shared_ptr<const harness::PartitionCache::Entry> entry;
  std::shared_ptr<const engine::ExecutionPlan> plan;
  uint64_t cost_us = 0;  ///< simulated execution cost, filled in phase B
};

/// The plan shape a query kind runs on. Distance/reachability/k-core all
/// gather and scatter both directions; PageRank is the natural kIn/kOut.
void PlanShapeFor(QueryKind kind, engine::EdgeDirection* gather,
                  engine::EdgeDirection* scatter) {
  if (kind == QueryKind::kPageRankTopN) {
    *gather = apps::PageRankApp::kGatherDir;
    *scatter = apps::PageRankApp::kScatterDir;
  } else {
    *gather = engine::EdgeDirection::kBoth;
    *scatter = engine::EdgeDirection::kBoth;
  }
}

engine::RunOptions BatchRunOptions(const harness::ExperimentSpec& spec,
                                   QueryKind kind) {
  engine::RunOptions options;
  // Frontier apps run to quiescence; fixed-iteration PageRank runs exactly
  // the spec's count (it never "converges" at tolerance 0).
  options.max_iterations = kind == QueryKind::kPageRankTopN
                               ? spec.max_iterations
                               : std::max(spec.max_iterations, 2000u);
  // Batches parallelize across the pool, not within a run; a sink-free
  // serial context keeps per-batch costs pure functions of their inputs.
  options.exec.num_threads = 1;
  if (spec.engine == engine::EngineKind::kGraphXPregel) {
    options.work_multiplier = 4.0;  // matches harness::RunOptionsFor
  }
  return options;
}

/// True when `request` names a fleet graph and every vertex its kind reads
/// lies inside that graph; phase B indexes engine states by these ids.
bool IsValid(const Request& request, const std::vector<GraphConfig>& fleet) {
  if (request.graph >= fleet.size()) return false;
  const graph::VertexId n = fleet[request.graph].edges->num_vertices();
  switch (request.kind) {
    case QueryKind::kSsspDistance:
    case QueryKind::kBfsReachable:
      return request.source < n && request.target < n;
    case QueryKind::kKCoreMember:
      return request.source < n;
    case QueryKind::kPageRankTopN:
      return true;
  }
  return false;
}

/// The `top_n` highest-ranked vertices, rank descending with vertex id
/// ascending on exact rank ties — a total order, so the list is unique.
std::vector<graph::VertexId> TopNVertices(const std::vector<double>& ranks,
                                          uint32_t top_n) {
  std::vector<graph::VertexId> order(ranks.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<graph::VertexId>(i);
  }
  const size_t n = std::min<size_t>(top_n, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(n),
                    order.end(),
                    [&ranks](graph::VertexId a, graph::VertexId b) {
                      if (ranks[a] != ranks[b]) return ranks[a] > ranks[b];
                      return a < b;
                    });
  order.resize(n);
  return order;
}

}  // namespace

QueryServer::QueryServer(std::vector<GraphConfig> fleet,
                         ServerOptions options)
    : fleet_(std::move(fleet)), options_(options) {
  GDP_CHECK(!fleet_.empty());
  GDP_CHECK_GT(options_.window_us, 0u);
  GDP_CHECK_GT(options_.queue_capacity, 0u);
  GDP_CHECK_GT(options_.max_batch, 0u);
  GDP_CHECK_GT(options_.num_executors, 0u);
  for (const GraphConfig& config : fleet_) {
    GDP_CHECK(config.edges != nullptr);
  }
  cache_.set_byte_budget(options_.partition_cache_budget_bytes);
  cache_.set_plan_byte_budget(options_.plan_cache_budget_bytes);
}

ServeResult QueryServer::Serve(const std::vector<Request>& trace) {
  ServeResult result;
  result.responses.resize(trace.size());

  // --- Phase A (serial): admission, batching, cache warm-up. -------------
  std::vector<Batch> batches;
  {
    // Per-window admission state; windows arrive in order because the
    // trace's arrival times are non-decreasing.
    uint32_t current_window = 0;
    uint32_t window_admitted = 0;
    std::map<uint32_t, uint32_t> tenant_admitted;
    // Open batch per (graph, kind) in the current window.
    std::map<std::pair<uint32_t, QueryKind>, size_t> open;

    uint64_t last_arrival = 0;
    for (const Request& request : trace) {
      GDP_CHECK_EQ(request.id, static_cast<uint32_t>(&request - &trace[0]));
      GDP_CHECK_GE(request.arrival_us, last_arrival);
      last_arrival = request.arrival_us;
      // A malformed request is answered as invalid before admission: it
      // takes no queue slot and joins no batch.
      if (!IsValid(request, fleet_)) {
        result.responses[request.id].invalid = true;
        ++result.invalid;
        invalid_->Increment();
        continue;
      }

      const uint32_t window =
          static_cast<uint32_t>(request.arrival_us / options_.window_us);
      if (window != current_window) {
        current_window = window;
        window_admitted = 0;
        tenant_admitted.clear();
        open.clear();
      }

      // Bounded queue + per-tenant quota; the queue drains at window
      // close, so both caps are per window.
      uint32_t& tenant_count = tenant_admitted[request.tenant];
      if (window_admitted >= options_.queue_capacity ||
          (options_.tenant_quota != 0 &&
           tenant_count >= options_.tenant_quota)) {
        result.responses[request.id].rejected = true;
        ++result.rejected;
        rejected_->Increment();
        continue;
      }
      ++window_admitted;
      ++tenant_count;
      ++result.admitted;
      admitted_->Increment();

      // Batch caps: the kernel lane width bounds coalescing (16 SSSP
      // lanes, 64 BFS lanes); unbatched mode pins every batch at 1.
      uint32_t cap = 1;
      if (options_.batching) {
        switch (request.kind) {
          case QueryKind::kSsspDistance:
            cap = std::min<uint32_t>(options_.max_batch, apps::kMsSsspLanes);
            break;
          case QueryKind::kBfsReachable:
            cap = std::min<uint32_t>(options_.max_batch, 64);
            break;
          case QueryKind::kPageRankTopN:
          case QueryKind::kKCoreMember:
            cap = options_.max_batch;
            break;
        }
      }

      const std::pair<uint32_t, QueryKind> slot{request.graph, request.kind};
      auto it = open.find(slot);
      if (it == open.end() || batches[it->second].request_ids.size() >= cap) {
        Batch batch;
        batch.window = window;
        batch.graph = request.graph;
        batch.kind = request.kind;
        it = open.insert_or_assign(slot, batches.size()).first;
        batches.push_back(std::move(batch));
      }
      batches[it->second].request_ids.push_back(request.id);
    }
  }

  // Warm-up: all cache traffic happens here, serially in batch order, so
  // byte-budget eviction is deterministic; each batch pins what it needs.
  for (Batch& batch : batches) {
    const GraphConfig& config = fleet_[batch.graph];
    batch.entry = cache_.Get(*config.edges, config.spec);
    engine::EdgeDirection gather{};
    engine::EdgeDirection scatter{};
    PlanShapeFor(batch.kind, &gather, &scatter);
    batch.plan = batch.entry->plans->Get(
        gather, scatter,
        config.spec.engine == engine::EngineKind::kGraphXPregel,
        options_.num_threads);
    batches_->Increment();
    if (batch.request_ids.size() > 1) {
      batched_queries_->Add(batch.request_ids.size());
    }
  }
  result.batches = batches.size();

  // --- Phase B (parallel): execute batches, write answers + costs. -------
  util::ThreadPool pool(options_.num_threads);
  pool.ParallelFor(batches.size(), [&](uint64_t index, uint32_t /*lane*/) {
    Batch& batch = batches[index];
    const GraphConfig& config = fleet_[batch.graph];
    const harness::PartitionCache::Entry& entry = *batch.entry;
    const engine::ExecutionPlan& plan = *batch.plan;

    sim::Cluster cluster(config.spec.num_machines, sim::CostModel{});
    cluster.Restore(entry.post_ingress);
    const engine::RunOptions run_options =
        BatchRunOptions(config.spec, batch.kind);
    const engine::EngineKind kind = config.spec.engine;

    switch (batch.kind) {
      case QueryKind::kSsspDistance: {
        if (options_.batching) {
          apps::MsSsspApp app;
          for (uint32_t id : batch.request_ids) {
            app.sources.push_back(trace[id].source);
          }
          auto run = engine::RunGasEngine(kind, plan, cluster, app,
                                          run_options);
          for (size_t lane = 0; lane < batch.request_ids.size(); ++lane) {
            const Request& request = trace[batch.request_ids[lane]];
            result.responses[request.id].distance =
                run.states[request.target][lane];
          }
        } else {
          const Request& request = trace[batch.request_ids[0]];
          apps::SsspApp app;
          app.source = request.source;
          auto run = engine::RunGasEngine(kind, plan, cluster, app,
                                          run_options);
          result.responses[request.id].distance = run.states[request.target];
        }
        break;
      }
      case QueryKind::kBfsReachable: {
        apps::MsBfsApp app;
        for (uint32_t id : batch.request_ids) {
          app.sources.push_back(trace[id].source);
        }
        auto run =
            engine::RunGasEngine(kind, plan, cluster, app, run_options);
        for (size_t lane = 0; lane < batch.request_ids.size(); ++lane) {
          const Request& request = trace[batch.request_ids[lane]];
          result.responses[request.id].reachable =
              (run.states[request.target] >> lane) & 1;
        }
        break;
      }
      case QueryKind::kPageRankTopN: {
        auto run = engine::RunGasEngine(kind, plan, cluster,
                                        apps::PageRankFixed(), run_options);
        for (uint32_t id : batch.request_ids) {
          result.responses[id].top_vertices =
              TopNVertices(run.states, trace[id].top_n);
        }
        break;
      }
      case QueryKind::kKCoreMember: {
        // One decomposition sweep over the batch's k range answers every
        // membership query: the k-core is unique, so sweeping from a
        // smaller kmin yields the same k-core at each k.
        uint32_t kmin = trace[batch.request_ids[0]].k;
        uint32_t kmax = kmin;
        for (uint32_t id : batch.request_ids) {
          kmin = std::min(kmin, trace[id].k);
          kmax = std::max(kmax, trace[id].k);
        }
        apps::KCoreResult r = apps::KCoreDecompose(kind, plan, cluster,
                                                   kmin, kmax, run_options);
        for (uint32_t id : batch.request_ids) {
          result.responses[id].in_core =
              r.core_number[trace[id].source] >= trace[id].k;
        }
        break;
      }
    }

    const double cost_seconds =
        cluster.now_seconds() - entry.post_ingress.now_seconds;
    batch.cost_us = static_cast<uint64_t>(std::llround(cost_seconds * 1e6));
  });

  // --- Phase C (serial): simulated executors, latencies. -----------------
  std::vector<uint64_t> executor_free_us(options_.num_executors, 0);
  for (const Batch& batch : batches) {
    const uint64_t dispatch_us =
        static_cast<uint64_t>(batch.window + 1) * options_.window_us;
    size_t executor = 0;
    for (size_t i = 1; i < executor_free_us.size(); ++i) {
      if (executor_free_us[i] < executor_free_us[executor]) executor = i;
    }
    const uint64_t start_us = std::max(dispatch_us, executor_free_us[executor]);
    const uint64_t completion_us = start_us + batch.cost_us;
    executor_free_us[executor] = completion_us;
    result.makespan_us = std::max(result.makespan_us, completion_us);
    for (uint32_t id : batch.request_ids) {
      const uint64_t latency_us = completion_us - trace[id].arrival_us;
      result.responses[id].latency_us = latency_us;
      latency_us_->Observe(latency_us);
    }
  }
  return result;
}

}  // namespace gdp::serving
