// Tests for the multi-tenant query-serving layer (src/serving/) and the
// byte-budgeted caches it leans on: batched and unbatched paths must
// return bit-identical answers, every simulated figure must be invariant
// to the host thread count, admission control must enforce the bounded
// queue and per-tenant quotas, and the PartitionCache/PlanCache byte
// budgets must evict deterministically without ever changing results.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/mssssp.h"
#include "apps/sssp.h"
#include "engine/gas_engine.h"
#include "engine/plan_cache.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "harness/partition_cache.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "partition/ingest.h"
#include "partition/partitioner.h"
#include "serving/query_server.h"
#include "serving/request.h"
#include "sim/cluster.h"

namespace gdp {
namespace {

constexpr uint32_t kMachines = 8;

graph::EdgeList SmallGraph(uint64_t seed) {
  return graph::GenerateHeavyTailed(
      {.num_vertices = 800, .edges_per_vertex = 6, .seed = seed});
}

harness::ExperimentSpec FleetSpec() {
  harness::ExperimentSpec spec;
  spec.num_machines = kMachines;
  return spec;
}

/// Two-graph fleet over the given edge lists.
std::vector<serving::GraphConfig> Fleet(const graph::EdgeList& a,
                                        const graph::EdgeList& b) {
  return {{&a, FleetSpec()}, {&b, FleetSpec()}};
}

std::vector<serving::Request> TestTrace(const graph::EdgeList& a,
                                        const graph::EdgeList& b,
                                        uint32_t num_requests = 96) {
  serving::TraceOptions options;
  options.num_requests = num_requests;
  options.mean_interarrival_us = 4000;  // ~25 requests per 100ms window
  options.seed = 0xfeed;
  return serving::GenerateArrivalTrace(
      options, {static_cast<uint32_t>(a.num_vertices()),
                static_cast<uint32_t>(b.num_vertices())});
}

// ---------------------------------------------------------------------------
// Scheduler: answers, batching, determinism, admission.
// ---------------------------------------------------------------------------

TEST(ServingSchedulerTest, BatchedAndUnbatchedAnswersAgree) {
  const graph::EdgeList a = SmallGraph(0x11);
  const graph::EdgeList b = SmallGraph(0x22);
  const std::vector<serving::Request> trace = TestTrace(a, b);

  serving::ServerOptions batched;
  batched.batching = true;
  serving::ServerOptions unbatched;
  unbatched.batching = false;

  serving::QueryServer warm(Fleet(a, b), batched);
  serving::QueryServer cold(Fleet(a, b), unbatched);
  const serving::ServeResult warm_result = warm.Serve(trace);
  const serving::ServeResult cold_result = cold.Serve(trace);

  ASSERT_EQ(warm_result.responses.size(), trace.size());
  ASSERT_EQ(cold_result.responses.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_TRUE(
        SameAnswer(warm_result.responses[i], cold_result.responses[i]))
        << "request " << i << " kind "
        << serving::QueryKindName(trace[i].kind);
  }
  // Coalescing must actually happen: far fewer dispatches than requests.
  EXPECT_LT(warm_result.batches, cold_result.batches);
  EXPECT_EQ(cold_result.batches, cold_result.admitted);
  // Fewer engine runs for the same work => higher simulated throughput.
  EXPECT_GT(warm_result.RequestsPerSecond(),
            cold_result.RequestsPerSecond());
}

TEST(ServingSchedulerTest, ResultsInvariantAcrossThreadCounts) {
  const graph::EdgeList a = SmallGraph(0x33);
  const graph::EdgeList b = SmallGraph(0x44);
  const std::vector<serving::Request> trace = TestTrace(a, b, 64);

  std::vector<serving::ServeResult> results;
  std::vector<std::vector<obs::MetricsRegistry::Sample>> snapshots;
  for (uint32_t threads : {1u, 2u, 8u, 0u}) {
    serving::ServerOptions options;
    options.num_threads = threads;
    serving::QueryServer server(Fleet(a, b), options);
    results.push_back(server.Serve(trace));
    snapshots.push_back(server.registry().Snapshot());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].responses, results[0].responses);
    EXPECT_EQ(results[i].makespan_us, results[0].makespan_us);
    EXPECT_EQ(results[i].admitted, results[0].admitted);
    EXPECT_EQ(snapshots[i], snapshots[0]);
  }
}

TEST(ServingSchedulerTest, AdmissionControlBoundsTheQueue) {
  const graph::EdgeList a = SmallGraph(0x55);
  // Ten same-window arrivals against a queue of four.
  std::vector<serving::Request> trace;
  for (uint32_t i = 0; i < 10; ++i) {
    serving::Request request;
    request.id = i;
    request.tenant = i % 3;
    request.kind = serving::QueryKind::kSsspDistance;
    request.source = i;
    request.target = 9 - i;
    request.arrival_us = 1000 * i;  // all inside one 100ms window
    trace.push_back(request);
  }
  serving::ServerOptions options;
  options.queue_capacity = 4;
  serving::QueryServer server({{&a, FleetSpec()}}, options);
  const serving::ServeResult result = server.Serve(trace);
  EXPECT_EQ(result.admitted, 4u);
  EXPECT_EQ(result.rejected, 6u);
  // Admission is in arrival order: the first four get in.
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(result.responses[i].rejected, i >= 4) << i;
  }
}

TEST(ServingSchedulerTest, TenantQuotaCapsTheHotTenant) {
  const graph::EdgeList a = SmallGraph(0x66);
  std::vector<serving::Request> trace;
  // Tenant 0 floods the window; tenant 1 sends one late query.
  for (uint32_t i = 0; i < 6; ++i) {
    serving::Request request;
    request.id = i;
    request.tenant = i == 5 ? 1 : 0;
    request.kind = serving::QueryKind::kBfsReachable;
    request.source = i;
    request.target = 5 - i;
    request.arrival_us = 100 * i;
    trace.push_back(request);
  }
  serving::ServerOptions options;
  options.tenant_quota = 2;
  serving::QueryServer server({{&a, FleetSpec()}}, options);
  const serving::ServeResult result = server.Serve(trace);
  // Tenant 0: first two admitted, next three rejected; tenant 1 slips in
  // even though it arrived last — that is the fairness property.
  EXPECT_FALSE(result.responses[0].rejected);
  EXPECT_FALSE(result.responses[1].rejected);
  EXPECT_TRUE(result.responses[2].rejected);
  EXPECT_TRUE(result.responses[3].rejected);
  EXPECT_TRUE(result.responses[4].rejected);
  EXPECT_FALSE(result.responses[5].rejected);
}

TEST(ServingSchedulerTest, InvalidRequestsAreAnsweredNotServed) {
  const graph::EdgeList a = SmallGraph(0x5a);
  const graph::EdgeList b = SmallGraph(0x5b);
  const std::vector<serving::Request> clean = TestTrace(a, b, 48);

  // The same trace with three malformed requests spliced in: an unknown
  // graph, a k-core member outside its graph, and an SSSP target outside
  // its graph. Each copies its predecessor's arrival time, so the valid
  // requests keep their windows.
  std::vector<serving::Request> mixed;
  std::vector<size_t> clean_index;  // mixed position -> clean position
  for (size_t i = 0; i < clean.size(); ++i) {
    mixed.push_back(clean[i]);
    clean_index.push_back(i);
    if (i != 5 && i != 17 && i != 30) continue;
    serving::Request bad = clean[i];
    if (i == 5) {
      bad.graph = 2;
    } else if (i == 17) {
      bad.graph = 0;
      bad.kind = serving::QueryKind::kKCoreMember;
      bad.source = static_cast<graph::VertexId>(a.num_vertices());
    } else {
      bad.graph = 1;
      bad.kind = serving::QueryKind::kSsspDistance;
      bad.source = 0;
      bad.target = static_cast<graph::VertexId>(b.num_vertices());
    }
    mixed.push_back(bad);
    clean_index.push_back(SIZE_MAX);
  }
  for (size_t i = 0; i < mixed.size(); ++i) {
    mixed[i].id = static_cast<uint32_t>(i);
  }

  // A queue short enough to reject some valid requests: had the invalid
  // ones taken slots, the admitted set would shift.
  serving::ServerOptions options;
  options.queue_capacity = 20;
  serving::QueryServer clean_server(Fleet(a, b), options);
  serving::QueryServer mixed_server(Fleet(a, b), options);
  const serving::ServeResult want = clean_server.Serve(clean);
  const serving::ServeResult got = mixed_server.Serve(mixed);
  ASSERT_GT(want.rejected, 0u);

  EXPECT_EQ(got.invalid, 3u);
  EXPECT_EQ(got.admitted + got.rejected + got.invalid, mixed.size());
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.batches, want.batches);
  int64_t invalid_counter = -1;
  for (const obs::MetricsRegistry::Sample& sample :
       mixed_server.registry().Snapshot()) {
    if (sample.name == "serving.invalid") invalid_counter = sample.value;
  }
  EXPECT_EQ(invalid_counter, 3);

  for (size_t i = 0; i < mixed.size(); ++i) {
    const serving::Response& response = got.responses[i];
    if (clean_index[i] == SIZE_MAX) {
      EXPECT_TRUE(response.invalid) << i;
      EXPECT_FALSE(response.rejected) << i;
      continue;
    }
    const serving::Response& expected = want.responses[clean_index[i]];
    EXPECT_FALSE(response.invalid) << i;
    EXPECT_TRUE(SameAnswer(response, expected)) << i;
    // No queue slot or batch seat was taken, so latencies match too.
    EXPECT_EQ(response.latency_us, expected.latency_us) << i;
  }
}

TEST(ServingSchedulerTest, LatencyHistogramExportsPercentiles) {
  const graph::EdgeList a = SmallGraph(0x77);
  const graph::EdgeList b = SmallGraph(0x88);
  const std::vector<serving::Request> trace = TestTrace(a, b, 48);
  serving::QueryServer server(Fleet(a, b), serving::ServerOptions{});
  const serving::ServeResult result = server.Serve(trace);

  bool found = false;
  for (const obs::MetricsRegistry::Sample& sample :
       server.registry().Snapshot()) {
    if (sample.name != "serving.latency_us") continue;
    found = true;
    EXPECT_EQ(sample.kind, obs::MetricKind::kHistogram);
    EXPECT_EQ(static_cast<uint64_t>(sample.value), result.admitted);
    EXPECT_GT(sample.p50, 0u);
    EXPECT_LE(sample.p50, sample.p99);
  }
  EXPECT_TRUE(found);

  // And the MetricsTable row renders numeric p50/p99 columns.
  const util::Table table = obs::MetricsTable(server.registry());
  bool row_found = false;
  for (const std::vector<std::string>& row : table.rows()) {
    if (row[0] != "serving.latency_us") continue;
    row_found = true;
    EXPECT_NE(row[5], "-");
    EXPECT_NE(row[6], "-");
  }
  EXPECT_TRUE(row_found);
}

// ---------------------------------------------------------------------------
// The batching kernel: multi-source SSSP == per-source SSSP, lane by lane.
// ---------------------------------------------------------------------------

TEST(ServingKernelTest, MultiSourceSsspMatchesSingleSource) {
  const graph::EdgeList edges = SmallGraph(0x99);
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  auto partitioner =
      partition::MakePartitioner(partition::StrategyKind::kRandom, context);
  sim::Cluster cluster(kMachines, sim::CostModel{});
  partition::IngestResult ingest =
      Ingest(edges, *partitioner, cluster, partition::IngestOptions{});

  engine::RunOptions options;
  options.max_iterations = 2000;
  apps::MsSsspApp batched;
  batched.sources = {5, 99, 7, 5, 0};  // duplicates allowed: one lane each
  sim::Cluster batch_cluster(kMachines, sim::CostModel{});
  auto multi = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    ingest.graph, batch_cluster, batched,
                                    options);
  for (size_t lane = 0; lane < batched.sources.size(); ++lane) {
    apps::SsspApp single;
    single.source = batched.sources[lane];
    sim::Cluster single_cluster(kMachines, sim::CostModel{});
    auto one = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    ingest.graph, single_cluster, single,
                                    options);
    for (size_t v = 0; v < one.states.size(); ++v) {
      ASSERT_EQ(multi.states[v][lane], one.states[v])
          << "lane " << lane << " vertex " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// PartitionCache byte budget.
// ---------------------------------------------------------------------------

harness::ExperimentSpec SpecWithSeed(uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.num_machines = kMachines;
  spec.seed = seed;
  spec.max_iterations = 3;
  return spec;
}

TEST(PartitionCacheEvictionTest, BudgetZeroNeverEvicts) {
  const graph::EdgeList edges = SmallGraph(0xaa);
  harness::PartitionCache cache;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    (void)cache.Get(edges, SpecWithSeed(seed));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().misses, 4u);
  const auto snapshot = cache.registry().Snapshot();
  for (const obs::MetricsRegistry::Sample& sample : snapshot) {
    if (sample.name == "partition_cache.evictions" ||
        sample.name == "partition_cache.evicted_bytes") {
      EXPECT_EQ(sample.value, 0) << sample.name;
    }
  }
}

TEST(PartitionCacheEvictionTest, EvictsOldestBeyondBudgetDeterministically) {
  const graph::EdgeList edges = SmallGraph(0xbb);
  // Probe one entry's ledger charge to size a two-entry budget.
  uint64_t entry_bytes = 0;
  {
    harness::PartitionCache probe;
    (void)probe.Get(edges, SpecWithSeed(0));
    entry_bytes = probe.resident_bytes();
    ASSERT_GT(entry_bytes, 0u);
  }

  harness::PartitionCache cache;
  const uint64_t budget = 2 * entry_bytes + entry_bytes / 2;
  cache.set_byte_budget(budget);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    (void)cache.Get(edges, SpecWithSeed(seed));
    // The acceptance invariant: resident bytes never exceed the budget.
    EXPECT_LE(cache.resident_bytes(), budget);
  }
  // Seeds 0 and 1 were evicted (FIFO), 2 and 3 remain.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 4u);

  // Re-requesting an evicted key rebuilds (miss); a resident key hits.
  (void)cache.Get(edges, SpecWithSeed(3));
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.Get(edges, SpecWithSeed(0));
  EXPECT_EQ(cache.stats().misses, 5u);

  uint64_t evictions = 0;
  uint64_t evicted_bytes = 0;
  int64_t resident_gauge = -1;
  for (const obs::MetricsRegistry::Sample& sample :
       cache.registry().Snapshot()) {
    if (sample.name == "partition_cache.evictions") {
      evictions = static_cast<uint64_t>(sample.value);
    } else if (sample.name == "partition_cache.evicted_bytes") {
      evicted_bytes = static_cast<uint64_t>(sample.value);
    } else if (sample.name == "partition_cache.resident_bytes") {
      resident_gauge = sample.value;
    }
  }
  EXPECT_EQ(evictions, 3u);  // seeds 0, 1, then 2 (when 0 re-entered)
  EXPECT_GT(evicted_bytes, 0u);
  EXPECT_EQ(resident_gauge, static_cast<int64_t>(cache.resident_bytes()));
}

TEST(PartitionCacheEvictionTest, SharedPtrPinsEvictedEntry) {
  const graph::EdgeList edges = SmallGraph(0xcc);
  harness::PartitionCache probe;
  (void)probe.Get(edges, SpecWithSeed(0));

  harness::PartitionCache cache;
  cache.set_byte_budget(probe.resident_bytes() + 1);  // one entry fits
  std::shared_ptr<const harness::PartitionCache::Entry> pinned =
      cache.Get(edges, SpecWithSeed(0));
  (void)cache.Get(edges, SpecWithSeed(1));  // evicts seed 0
  EXPECT_EQ(cache.size(), 1u);
  // The pinned artifact is still fully usable after eviction.
  EXPECT_EQ(pinned->ingest.graph.num_machines, kMachines);
  EXPECT_FALSE(pinned->post_ingress.machines.empty());
  auto plan = pinned->plans->Get(engine::EdgeDirection::kBoth,
                                 engine::EdgeDirection::kBoth, false,
                                 /*num_threads=*/0);
  EXPECT_NE(plan, nullptr);
}

TEST(PartitionCacheEvictionTest, BudgetedCacheResultsMatchUnbounded) {
  const graph::EdgeList edges = SmallGraph(0xdd);
  harness::PartitionCache probe;
  (void)probe.Get(edges, SpecWithSeed(0));
  const uint64_t one_entry = probe.resident_bytes();

  harness::PartitionCache bounded;
  bounded.set_byte_budget(one_entry + 1);
  harness::PartitionCache unbounded;
  // Alternating seeds force the bounded cache to evict and rebuild; every
  // result must still match the unbounded cache's byte for byte.
  for (uint64_t seed : {0u, 1u, 0u, 1u}) {
    harness::ExperimentSpec spec = SpecWithSeed(seed);
    harness::ExperimentResult got =
        harness::RunExperimentCached(edges, spec, bounded);
    harness::ExperimentResult want =
        harness::RunExperimentCached(edges, spec, unbounded);
    EXPECT_EQ(got.total_seconds, want.total_seconds);
    EXPECT_EQ(got.replication_factor, want.replication_factor);
    EXPECT_EQ(got.compute.compute_seconds, want.compute.compute_seconds);
    EXPECT_EQ(got.compute.network_bytes, want.compute.network_bytes);
  }
  EXPECT_GT(bounded.stats().misses, unbounded.stats().misses);
}

// ---------------------------------------------------------------------------
// PlanCache byte budget.
// ---------------------------------------------------------------------------

TEST(PlanCacheEvictionTest, EvictsOldestPlanBeyondBudget) {
  const graph::EdgeList edges = SmallGraph(0xee);
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  auto partitioner =
      partition::MakePartitioner(partition::StrategyKind::kRandom, context);
  sim::Cluster cluster(kMachines, sim::CostModel{});
  partition::IngestResult ingest =
      Ingest(edges, *partitioner, cluster, partition::IngestOptions{});

  engine::PlanCache plans(ingest.graph);
  std::shared_ptr<const engine::ExecutionPlan> first =
      plans.Get(engine::EdgeDirection::kBoth, engine::EdgeDirection::kBoth,
                false, /*num_threads=*/0);
  const uint64_t one_plan = plans.resident_bytes();
  ASSERT_GT(one_plan, 0u);

  // Budget for roughly one plan: each new shape evicts the previous one.
  plans.set_byte_budget(one_plan + one_plan / 2);
  (void)plans.Get(engine::EdgeDirection::kIn, engine::EdgeDirection::kOut,
                  false, /*num_threads=*/0);
  EXPECT_LE(plans.resident_bytes(), one_plan + one_plan / 2);
  (void)plans.Get(engine::EdgeDirection::kOut, engine::EdgeDirection::kIn,
                  false, /*num_threads=*/0);
  EXPECT_LE(plans.resident_bytes(), one_plan + one_plan / 2);
  EXPECT_LT(plans.num_plans(), 3u);
  EXPECT_EQ(plans.stats().misses, 3u);

  // The pinned first plan survives its eviction; re-requesting its shape
  // is a fresh miss.
  EXPECT_EQ(first->dg, &ingest.graph);
  (void)plans.Get(engine::EdgeDirection::kBoth, engine::EdgeDirection::kBoth,
                  false, /*num_threads=*/0);
  EXPECT_EQ(plans.stats().misses, 4u);

  bool saw_evictions = false;
  for (const obs::MetricsRegistry::Sample& sample :
       plans.registry().Snapshot()) {
    if (sample.name == "plan_cache.evictions") {
      saw_evictions = sample.value > 0;
    }
  }
  EXPECT_TRUE(saw_evictions);
}

}  // namespace
}  // namespace gdp
