// Tests for the parallel experiment-grid runner (harness/grid.h) and the
// keyed partition/plan artifact caches (harness/partition_cache.h,
// engine/plan_cache.h): cached results must be field-identical to fresh
// runs, RunGrid must be invariant to its thread count, and
// Cluster::Snapshot/Restore must round-trip the exact machine state the
// cache's determinism argument leans on.

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "apps/pagerank.h"
#include "engine/gas_engine.h"
#include "engine/plan_cache.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "harness/grid.h"
#include "harness/partition_cache.h"
#include "partition/ingest.h"
#include "partition/partitioner.h"
#include "sim/cluster.h"

namespace gdp {
namespace {

graph::EdgeList TestGraph() {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 3000, .edges_per_vertex = 8, .seed = 0x51});
  edges.set_name("grid-test");
  return edges;
}

// Exact comparison of everything RunExperiment/RunIngressOnly report. The
// simulator is deterministic; approximate equality would mask divergence.
void ExpectResultsIdentical(const harness::ExperimentResult& a,
                            const harness::ExperimentResult& b) {
  EXPECT_EQ(a.ingress.ingress_seconds, b.ingress.ingress_seconds);
  EXPECT_EQ(a.ingress.pass_seconds, b.ingress.pass_seconds);
  EXPECT_EQ(a.ingress.edges_moved, b.ingress.edges_moved);
  EXPECT_EQ(a.ingress.replication_factor, b.ingress.replication_factor);
  EXPECT_EQ(a.ingress.edge_balance_ratio, b.ingress.edge_balance_ratio);
  EXPECT_EQ(a.ingress.peak_state_bytes, b.ingress.peak_state_bytes);
  EXPECT_EQ(a.compute.iterations, b.compute.iterations);
  EXPECT_EQ(a.compute.converged, b.compute.converged);
  EXPECT_EQ(a.compute.compute_seconds, b.compute.compute_seconds);
  EXPECT_EQ(a.compute.network_bytes, b.compute.network_bytes);
  EXPECT_EQ(a.compute.mean_inbound_bytes_per_machine,
            b.compute.mean_inbound_bytes_per_machine);
  EXPECT_EQ(a.compute.cumulative_seconds, b.compute.cumulative_seconds);
  EXPECT_EQ(a.compute.active_counts, b.compute.active_counts);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.replication_factor, b.replication_factor);
  EXPECT_EQ(a.mean_peak_memory_bytes, b.mean_peak_memory_bytes);
  EXPECT_EQ(a.max_peak_memory_bytes, b.max_peak_memory_bytes);
  EXPECT_EQ(a.cpu_utilizations, b.cpu_utilizations);
  EXPECT_EQ(a.edge_balance_ratio, b.edge_balance_ratio);
}

TEST(ClusterSnapshotTest, RestoreRoundTripsExactMachineState) {
  graph::EdgeList edges = TestGraph();
  sim::Cluster cluster(4, sim::CostModel{});
  partition::PartitionContext context;
  context.num_partitions = 4;
  context.num_vertices = edges.num_vertices();
  context.seed = 7;
  auto partitioner =
      partition::MakePartitioner(partition::StrategyKind::kHdrf, context);
  partition::IngestResult ingest =
      Ingest(edges, *partitioner, cluster, partition::IngestOptions{});

  sim::ClusterSnapshot snapshot = cluster.Snapshot();
  std::vector<uint64_t> peak, mem, sent, received;
  std::vector<double> busy;
  for (uint32_t m = 0; m < cluster.num_machines(); ++m) {
    peak.push_back(cluster.machine(m).peak_memory_bytes());
    mem.push_back(cluster.machine(m).memory_bytes());
    sent.push_back(cluster.machine(m).bytes_sent());
    received.push_back(cluster.machine(m).bytes_received());
    busy.push_back(cluster.machine(m).busy_seconds());
  }
  const double now = cluster.now_seconds();

  // Mutate the cluster heavily: run an app on top of the ingested graph.
  engine::RunOptions run_options;
  run_options.max_iterations = 5;
  engine::RunGasEngine(engine::EngineKind::kPowerGraphSync, ingest.graph,
                       cluster, apps::PageRankFixed(), run_options);
  ASSERT_NE(cluster.now_seconds(), now);

  cluster.Restore(snapshot);
  EXPECT_EQ(cluster.now_seconds(), now);
  for (uint32_t m = 0; m < cluster.num_machines(); ++m) {
    EXPECT_EQ(cluster.machine(m).peak_memory_bytes(), peak[m]);
    EXPECT_EQ(cluster.machine(m).memory_bytes(), mem[m]);
    EXPECT_EQ(cluster.machine(m).bytes_sent(), sent[m]);
    EXPECT_EQ(cluster.machine(m).bytes_received(), received[m]);
    EXPECT_EQ(cluster.machine(m).busy_seconds(), busy[m]);
  }
}

TEST(PartitionCacheTest, CachedResultsMatchFreshForEveryEngine) {
  graph::EdgeList edges = TestGraph();
  const engine::EngineKind engines[] = {engine::EngineKind::kPowerGraphSync,
                                        engine::EngineKind::kPowerLyraHybrid,
                                        engine::EngineKind::kGraphXPregel};
  harness::PartitionCache cache;
  for (engine::EngineKind engine : engines) {
    harness::ExperimentSpec spec;
    spec.engine = engine;
    spec.strategy = partition::StrategyKind::kHdrf;
    spec.num_machines = 4;
    spec.app = harness::AppKind::kPageRankFixed;
    spec.max_iterations = 8;
    if (engine == engine::EngineKind::kGraphXPregel) {
      spec.partitions_per_machine = 2;
    }
    SCOPED_TRACE(static_cast<int>(engine));
    harness::ExperimentResult fresh = harness::RunExperiment(edges, spec);
    // Run the cached path twice: once populating, once hitting.
    harness::ExperimentResult miss =
        harness::RunExperimentCached(edges, spec, cache);
    harness::ExperimentResult hit =
        harness::RunExperimentCached(edges, spec, cache);
    ExpectResultsIdentical(fresh, miss);
    ExpectResultsIdentical(fresh, hit);
  }
}

TEST(PartitionCacheTest, CachedResultsMatchFreshForHybridStrategy) {
  // Hybrid exercises the multi-pass ingress + partitioner-chosen masters
  // path; the snapshot must capture the cluster state after all passes.
  graph::EdgeList edges = TestGraph();
  harness::ExperimentSpec spec;
  spec.engine = engine::EngineKind::kPowerLyraHybrid;
  spec.strategy = partition::StrategyKind::kHybridGinger;
  spec.num_machines = 4;
  spec.app = harness::AppKind::kWcc;
  spec.max_iterations = 20;
  harness::PartitionCache cache;
  harness::ExperimentResult fresh = harness::RunExperiment(edges, spec);
  harness::ExperimentResult miss =
      harness::RunExperimentCached(edges, spec, cache);
  harness::ExperimentResult hit =
      harness::RunExperimentCached(edges, spec, cache);
  ExpectResultsIdentical(fresh, miss);
  ExpectResultsIdentical(fresh, hit);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PartitionCacheTest, IngressOnlyAndComputeCellsShareOneIngest) {
  graph::EdgeList edges = TestGraph();
  harness::ExperimentSpec spec;
  spec.strategy = partition::StrategyKind::kOblivious;
  spec.num_machines = 4;
  spec.app = harness::AppKind::kSssp;
  harness::PartitionCache cache;

  harness::ExperimentResult fresh_ingress =
      harness::RunIngressOnly(edges, spec);
  harness::ExperimentResult cached_ingress =
      harness::RunIngressOnlyCached(edges, spec, cache);
  ExpectResultsIdentical(fresh_ingress, cached_ingress);

  // The compute cell reuses the ingress-only cell's artifact: same key.
  harness::ExperimentResult fresh = harness::RunExperiment(edges, spec);
  harness::ExperimentResult cached =
      harness::RunExperimentCached(edges, spec, cache);
  ExpectResultsIdentical(fresh, cached);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(PartitionCacheTest, KeySeparatesIngressInputsOnly) {
  graph::EdgeList edges = TestGraph();
  harness::ExperimentSpec spec;
  spec.strategy = partition::StrategyKind::kGrid;
  spec.num_machines = 9;
  const harness::IngressKey base = harness::PartitionCache::KeyFor(edges, spec);

  // App, iteration cap, and engine threads don't affect ingress: same key.
  harness::ExperimentSpec app_variant = spec;
  app_variant.app = harness::AppKind::kKCore;
  app_variant.max_iterations = 77;
  app_variant.exec.num_threads = 8;
  EXPECT_EQ(base, harness::PartitionCache::KeyFor(edges, app_variant));

  // Strategy, cluster size, seed, and the graph itself do: distinct keys.
  harness::ExperimentSpec other = spec;
  other.strategy = partition::StrategyKind::kHdrf;
  EXPECT_NE(base, harness::PartitionCache::KeyFor(edges, other));
  other = spec;
  other.num_machines = 16;
  EXPECT_NE(base, harness::PartitionCache::KeyFor(edges, other));
  other = spec;
  other.seed = 43;
  EXPECT_NE(base, harness::PartitionCache::KeyFor(edges, other));
  graph::EdgeList different = graph::GenerateHeavyTailed(
      {.num_vertices = 3000, .edges_per_vertex = 8, .seed = 0x52});
  EXPECT_NE(base, harness::PartitionCache::KeyFor(different, spec));
}

TEST(EdgeListFingerprintTest, SensitiveToContentNotName) {
  graph::EdgeList a = TestGraph();
  graph::EdgeList b = TestGraph();
  b.set_name("renamed");
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  graph::EdgeList c = graph::GenerateHeavyTailed(
      {.num_vertices = 3000, .edges_per_vertex = 8, .seed = 0x52});
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

std::vector<harness::GridCell> TestCells(const graph::EdgeList& edges) {
  std::vector<harness::GridCell> cells;
  for (partition::StrategyKind strategy :
       {partition::StrategyKind::kRandom, partition::StrategyKind::kHdrf,
        partition::StrategyKind::kHybrid}) {
    for (harness::AppKind app :
         {harness::AppKind::kPageRankFixed, harness::AppKind::kWcc}) {
      harness::ExperimentSpec spec;
      spec.strategy = strategy;
      spec.num_machines = 4;
      spec.app = app;
      spec.max_iterations = 6;
      cells.push_back({&edges, spec, /*ingress_only=*/false});
    }
    harness::ExperimentSpec spec;
    spec.strategy = strategy;
    spec.num_machines = 4;
    cells.push_back({&edges, spec, /*ingress_only=*/true});
  }
  return cells;
}

TEST(GridRunnerTest, ThreadCountAndCacheInvariant) {
  graph::EdgeList edges = TestGraph();
  std::vector<harness::GridCell> cells = TestCells(edges);

  std::vector<harness::ExperimentResult> serial;
  for (const harness::GridCell& cell : cells) {
    serial.push_back(cell.ingress_only
                         ? harness::RunIngressOnly(*cell.edges, cell.spec)
                         : harness::RunExperiment(*cell.edges, cell.spec));
  }

  for (bool cached : {false, true}) {
    for (uint32_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " cached=" << cached);
      harness::PartitionCache cache;
      harness::GridOptions options;
      options.exec.num_threads = threads;
      if (cached) options.cache = &cache;
      std::vector<harness::ExperimentResult> got =
          harness::RunGrid(cells, options);
      ASSERT_EQ(got.size(), serial.size());
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "cell=" << i);
        ExpectResultsIdentical(serial[i], got[i]);
      }
      if (cached) {
        // 3 strategies -> 3 ingests; the other 6 cells hit.
        EXPECT_EQ(cache.stats().misses, 3u);
        EXPECT_EQ(cache.stats().hits, cells.size() - 3);
      }
    }
  }
}

TEST(GridRunnerTest, SpecsConvenienceOverloadMatchesCellForm) {
  graph::EdgeList edges = TestGraph();
  std::vector<harness::ExperimentSpec> specs;
  for (uint32_t machines : {4u, 9u}) {
    harness::ExperimentSpec spec;
    spec.num_machines = machines;
    spec.max_iterations = 5;
    specs.push_back(spec);
  }
  std::vector<harness::ExperimentResult> from_specs =
      harness::RunGrid(edges, specs);
  ASSERT_EQ(from_specs.size(), 2u);
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectResultsIdentical(harness::RunExperiment(edges, specs[i]),
                           from_specs[i]);
  }
}

TEST(PlanCacheTest, ReturnsOnePlanPerShape) {
  graph::EdgeList edges = TestGraph();
  sim::Cluster cluster(4, sim::CostModel{});
  partition::PartitionContext context;
  context.num_partitions = 4;
  context.num_vertices = edges.num_vertices();
  auto partitioner =
      partition::MakePartitioner(partition::StrategyKind::kRandom, context);
  partition::IngestResult ingest =
      Ingest(edges, *partitioner, cluster, partition::IngestOptions{});

  engine::PlanCache plans(ingest.graph);
  std::shared_ptr<const engine::ExecutionPlan> a =
      plans.Get(engine::EdgeDirection::kIn, engine::EdgeDirection::kOut,
                /*graphx_counts=*/false, /*num_threads=*/0);
  std::shared_ptr<const engine::ExecutionPlan> b =
      plans.Get(engine::EdgeDirection::kIn, engine::EdgeDirection::kOut,
                /*graphx_counts=*/false, /*num_threads=*/0);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(plans.num_plans(), 1u);
  std::shared_ptr<const engine::ExecutionPlan> c =
      plans.Get(engine::EdgeDirection::kBoth, engine::EdgeDirection::kBoth,
                /*graphx_counts=*/false, /*num_threads=*/0);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(plans.num_plans(), 2u);

  // A cached plan must drive the engine to the same result as a fresh one.
  sim::ClusterSnapshot snapshot = cluster.Snapshot();
  engine::RunOptions run_options;
  run_options.max_iterations = 5;
  auto fresh = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    ingest.graph, cluster,
                                    apps::PageRankFixed(), run_options);
  double fresh_now = cluster.now_seconds();
  cluster.Restore(snapshot);
  std::shared_ptr<const engine::ExecutionPlan> pr_plan =
      plans.Get(apps::PageRankApp::kGatherDir, apps::PageRankApp::kScatterDir,
                /*graphx_counts=*/false, /*num_threads=*/0);
  auto run = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                  *pr_plan, cluster, apps::PageRankFixed(),
                                  run_options);
  EXPECT_EQ(run.stats.compute_seconds, fresh.stats.compute_seconds);
  EXPECT_EQ(run.states, fresh.states);
  EXPECT_EQ(cluster.now_seconds(), fresh_now);
}

}  // namespace
}  // namespace gdp
