// The parallel engine's core contract: final states AND every simulated
// cost (RunStats, per-machine byte/time accounting) are bit-identical to
// the preserved serial engine (reference_engine.h) at every thread count.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "graph/generators.h"
#include "partition/distributed_graph.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace gdp::engine {
namespace {

using partition::IngestOptions;
using partition::IngestResult;
using partition::IngestWithStrategy;
using partition::PartitionContext;
using partition::StrategyKind;

constexpr uint32_t kMachines = 9;
constexpr uint32_t kThreadCounts[] = {1, 2, 8};

IngestResult Partition(const graph::EdgeList& edges, sim::Cluster& cluster) {
  PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = kMachines;
  context.seed = 3;
  return IngestWithStrategy(edges, StrategyKind::kHdrf, context, cluster,
                            IngestOptions{});
}

graph::EdgeList PowerLawGraph() {
  return graph::GeneratePowerLawWeb({.num_vertices = 700, .seed = 11});
}

graph::EdgeList GridGraph() {
  return graph::GenerateRoadNetwork(
      {.width = 24, .height = 24, .drop_fraction = 0.2, .seed = 12});
}

void ExpectStatsIdentical(const RunStats& got, const RunStats& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  // Doubles compared with == on purpose: the contract is bit-identity, not
  // tolerance.
  EXPECT_EQ(got.compute_seconds, want.compute_seconds);
  EXPECT_EQ(got.network_bytes, want.network_bytes);
  EXPECT_EQ(got.mean_inbound_bytes_per_machine,
            want.mean_inbound_bytes_per_machine);
  ASSERT_EQ(got.cumulative_seconds.size(), want.cumulative_seconds.size());
  for (size_t i = 0; i < want.cumulative_seconds.size(); ++i) {
    EXPECT_EQ(got.cumulative_seconds[i], want.cumulative_seconds[i])
        << "superstep " << i;
  }
  ASSERT_EQ(got.active_counts.size(), want.active_counts.size());
  for (size_t i = 0; i < want.active_counts.size(); ++i) {
    EXPECT_EQ(got.active_counts[i], want.active_counts[i])
        << "superstep " << i;
  }
}

void ExpectClustersIdentical(const sim::Cluster& got,
                             const sim::Cluster& want) {
  ASSERT_EQ(got.num_machines(), want.num_machines());
  for (uint32_t m = 0; m < want.num_machines(); ++m) {
    EXPECT_EQ(got.machine(m).busy_seconds(), want.machine(m).busy_seconds())
        << "machine " << m;
    EXPECT_EQ(got.machine(m).bytes_sent(), want.machine(m).bytes_sent())
        << "machine " << m;
    EXPECT_EQ(got.machine(m).bytes_received(),
              want.machine(m).bytes_received())
        << "machine " << m;
  }
  EXPECT_EQ(got.now_seconds(), want.now_seconds());
}

/// Runs `app` through the serial reference engine once, then through the
/// parallel engine at 1/2/8 threads, demanding bit-identical states, stats,
/// and per-machine cluster accounting each time.
template <typename App>
void ExpectBitIdenticalAcrossThreads(EngineKind kind,
                                     const graph::EdgeList& edges, App app,
                                     RunOptions options) {
  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  IngestResult ref_ingest = Partition(edges, ref_cluster);
  auto ref = RunGasEngineReference(kind, ref_ingest.graph, ref_cluster, app,
                                   options);

  for (uint32_t threads : kThreadCounts) {
    SCOPED_TRACE(std::string(EngineKindName(kind)) + " threads=" +
                 std::to_string(threads));
    sim::Cluster cluster(kMachines, sim::CostModel{});
    IngestResult ingest = Partition(edges, cluster);
    RunOptions run_options = options;
    run_options.exec.num_threads = threads;
    auto got = RunGasEngine(kind, ingest.graph, cluster, app, run_options);

    ASSERT_EQ(got.states.size(), ref.states.size());
    for (graph::VertexId v = 0; v < edges.num_vertices(); ++v) {
      ASSERT_EQ(got.states[v], ref.states[v]) << "vertex " << v;
    }
    ExpectStatsIdentical(got.stats, ref.stats);
    ExpectClustersIdentical(cluster, ref_cluster);
  }
}

class EngineDeterminismTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineDeterminismTest, PageRankPowerLaw) {
  RunOptions options;
  options.max_iterations = 12;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankGrid) {
  RunOptions options;
  options.max_iterations = 8;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankConvergentPowerLaw) {
  RunOptions options;
  options.max_iterations = 200;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankConvergent(1e-3), options);
}

TEST_P(EngineDeterminismTest, SsspPowerLaw) {
  apps::SsspApp app;
  app.source = 5;
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(), app, options);
}

TEST_P(EngineDeterminismTest, SsspGrid) {
  // Grid SSSP has a long sparse-frontier phase — the case the frontier
  // switch accelerates, and the easiest one to get subtly wrong.
  apps::SsspApp app;
  app.source = 1;
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(), app, options);
}

TEST_P(EngineDeterminismTest, WccPowerLaw) {
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::WccApp{}, options);
}

TEST_P(EngineDeterminismTest, WccGrid) {
  RunOptions options;
  options.max_iterations = 5000;
  ExpectBitIdenticalAcrossThreads(GetParam(), GridGraph(), apps::WccApp{},
                                  options);
}

TEST_P(EngineDeterminismTest, PageRankDyadicWorkMultiplier) {
  // 4.0, the multiplier GraphX runs at in the harness.
  RunOptions options;
  options.max_iterations = 10;
  options.work_multiplier = 4.0;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

TEST_P(EngineDeterminismTest, PageRankNonDyadicWorkMultiplier) {
  // 0.3 has a wide mantissa, so tick totals convert inexactly; both engines
  // apply it once per machine per phase and must still agree bit for bit.
  RunOptions options;
  options.max_iterations = 10;
  options.work_multiplier = 0.3;
  ExpectBitIdenticalAcrossThreads(GetParam(), PowerLawGraph(),
                                  apps::PageRankFixed(), options);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineDeterminismTest,
                         ::testing::Values(EngineKind::kPowerGraphSync,
                                           EngineKind::kPowerLyraHybrid,
                                           EngineKind::kGraphXPregel),
                         [](const ::testing::TestParamInfo<EngineKind>& i) {
                           return EngineKindName(i.param);
                         });

// ---------------------------------------------------------------------------
// Pinned costs. The identity tests above compare the engine with its
// reference, so a change that moves both together passes them. These
// literals predate the integer tick clock: PowerGraph and PowerLyra charge
// multiples of 5 ticks (a quarter work unit), which convert to seconds
// exactly, so at the dyadic multipliers in use their costs must keep every
// bit. Fresh clusters start at clock 0, so compute_seconds carries no
// ingress-dependent rounding.
// ---------------------------------------------------------------------------

TEST(EngineAccountingPinTest, SyncCostsMatchRecordedBits) {
  const graph::EdgeList edges = PowerLawGraph();
  sim::Cluster ingest_cluster(kMachines, sim::CostModel{});
  const IngestResult ingest = Partition(edges, ingest_cluster);
  EXPECT_EQ(ingest.report.pass_seconds[0], 0x1.34dcab9214951p-11);

  struct Pin {
    EngineKind kind;
    bool pagerank;  // PageRank(10), else SSSP from vertex 5
    double multiplier;
    double compute_seconds;
  };
  const Pin pins[] = {
      {EngineKind::kPowerGraphSync, true, 1.0, 0x1.bbf4ad91732f8p-8},
      {EngineKind::kPowerGraphSync, true, 4.0, 0x1.d10fa792d6871p-8},
      {EngineKind::kPowerGraphSync, false, 1.0, 0x1.beff10b92d2a3p-9},
      {EngineKind::kPowerGraphSync, false, 4.0, 0x1.d3e30df934565p-9},
      {EngineKind::kPowerLyraHybrid, true, 1.0, 0x1.ac8eafc1e045fp-8},
      {EngineKind::kPowerLyraHybrid, true, 4.0, 0x1.c141ba70bae47p-8},
      {EngineKind::kPowerLyraHybrid, false, 1.0, 0x1.beff10b92d2a3p-9},
      {EngineKind::kPowerLyraHybrid, false, 4.0, 0x1.d3e30df934565p-9},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(EngineKindName(pin.kind)) +
                 (pin.pagerank ? " pagerank x" : " sssp x") +
                 std::to_string(pin.multiplier));
    sim::Cluster cluster(kMachines, sim::CostModel{});
    RunOptions options;
    options.work_multiplier = pin.multiplier;
    double got = 0;
    if (pin.pagerank) {
      options.max_iterations = 10;
      got = RunGasEngine(pin.kind, ingest.graph, cluster,
                         apps::PageRankFixed(), options)
                .stats.compute_seconds;
    } else {
      apps::SsspApp app;
      app.source = 5;
      options.max_iterations = 5000;
      got = RunGasEngine(pin.kind, ingest.graph, cluster, app, options)
                .stats.compute_seconds;
    }
    EXPECT_EQ(got, pin.compute_seconds);
  }
}

// ---------------------------------------------------------------------------
// K-Core decomposition (a multi-run driver that threads RunOptions through
// every stage) is thread-count invariant end to end.
// ---------------------------------------------------------------------------

TEST(KCoreDeterminismTest, DecomposeIdenticalAcrossThreadCounts) {
  for (bool power_law : {true, false}) {
    SCOPED_TRACE(power_law ? "power-law" : "grid");
    graph::EdgeList edges = power_law ? PowerLawGraph() : GridGraph();

    apps::KCoreResult baseline;
    sim::Cluster baseline_cluster(kMachines, sim::CostModel{});
    {
      IngestResult ingest = Partition(edges, baseline_cluster);
      RunOptions options;
      options.exec.num_threads = 1;
      baseline = apps::KCoreDecompose(EngineKind::kPowerGraphSync,
                                      ingest.graph, baseline_cluster, 2, 6,
                                      options);
    }

    for (uint32_t threads : {2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      sim::Cluster cluster(kMachines, sim::CostModel{});
      IngestResult ingest = Partition(edges, cluster);
      RunOptions options;
      options.exec.num_threads = threads;
      apps::KCoreResult got = apps::KCoreDecompose(
          EngineKind::kPowerGraphSync, ingest.graph, cluster, 2, 6, options);

      ASSERT_EQ(got.core_number, baseline.core_number);
      ASSERT_EQ(got.core_sizes, baseline.core_sizes);
      ExpectStatsIdentical(got.stats, baseline.stats);
      ExpectClustersIdentical(cluster, baseline_cluster);
    }
  }
}

// ---------------------------------------------------------------------------
// The prebuilt-plan overload is equivalent to the build-internally one, and
// one plan can back many runs.
// ---------------------------------------------------------------------------

TEST(ExecutionPlanTest, PrebuiltPlanMatchesInternalBuild) {
  graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster_a(kMachines, sim::CostModel{});
  IngestResult ingest_a = Partition(edges, cluster_a);
  sim::Cluster cluster_b(kMachines, sim::CostModel{});
  IngestResult ingest_b = Partition(edges, cluster_b);

  RunOptions options;
  options.max_iterations = 8;
  options.exec.num_threads = 2;
  apps::PageRankApp app = apps::PageRankFixed();

  auto internal_build = RunGasEngine(EngineKind::kPowerGraphSync,
                                     ingest_a.graph, cluster_a, app, options);

  const ExecutionPlan plan = ExecutionPlan::Build(
      ingest_b.graph, apps::PageRankApp::kGatherDir,
      apps::PageRankApp::kScatterDir, /*graphx_counts=*/false);
  auto prebuilt = RunGasEngine(EngineKind::kPowerGraphSync, plan, cluster_b,
                               app, options);
  auto prebuilt_again = RunGasEngine(EngineKind::kPowerGraphSync, plan,
                                     cluster_b, app, options);

  ASSERT_EQ(prebuilt.states, internal_build.states);
  ExpectStatsIdentical(prebuilt.stats, internal_build.stats);
  // Same plan, second run: same answer again (plans are immutable).
  ASSERT_EQ(prebuilt_again.states, internal_build.states);
}

TEST(ExecutionPlanTest, DegreeAccessorsMatchEdgeList) {
  graph::EdgeList edges = GridGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);
  ASSERT_TRUE(ingest.graph.HasDegreeCache());

  const ExecutionPlan plan =
      ExecutionPlan::Build(ingest.graph, EdgeDirection::kIn,
                           EdgeDirection::kOut, /*graphx_counts=*/false);
  // With a cache present the plan must borrow it, not copy.
  EXPECT_EQ(plan.out_degrees().data(), ingest.graph.out_degree.data());
  EXPECT_EQ(plan.in_degrees().data(), ingest.graph.in_degree.data());

  // Without a cache the plan computes its own, with identical contents.
  partition::DistributedGraph stripped = ingest.graph;
  stripped.out_degree.clear();
  stripped.in_degree.clear();
  const ExecutionPlan fallback =
      ExecutionPlan::Build(stripped, EdgeDirection::kIn, EdgeDirection::kOut,
                           /*graphx_counts=*/false);
  EXPECT_EQ(fallback.out_degrees(), ingest.graph.out_degree);
  EXPECT_EQ(fallback.in_degrees(), ingest.graph.in_degree);
}

TEST(ExecutionPlanTest, AccountingRunsMatchPerEntryMachineCounts) {
  graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestResult ingest = Partition(edges, cluster);
  const partition::DistributedGraph& dg = ingest.graph;
  const ExecutionPlan plan =
      ExecutionPlan::Build(dg, EdgeDirection::kBoth, EdgeDirection::kOut,
                           /*graphx_counts=*/false);

  // The oracle never reads the plan: every edge charges its hosting machine
  // once per adjacency entry it contributes — to both endpoints on the
  // kBoth gather side, to its source on the kOut scatter side.
  using Counts = std::vector<std::array<uint64_t, kMachines>>;
  Counts gather(dg.num_vertices);
  Counts scatter(dg.num_vertices);
  for (size_t i = 0; i < dg.edges.size(); ++i) {
    const graph::Edge& e = dg.edges[i];
    const uint32_t m = dg.edge_partition[i] % dg.num_machines;
    ++gather[e.dst][m];
    ++gather[e.src][m];
    ++scatter[e.src][m];
  }

  auto check_side = [&](const Counts& want,
                        const std::vector<uint64_t>& offsets,
                        const std::vector<uint64_t>& run_offsets,
                        const std::vector<uint32_t>& runs) {
    for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
      uint64_t total = 0;
      uint32_t prev_machine = 0;
      bool first = true;
      for (uint64_t r = run_offsets[v]; r < run_offsets[v + 1]; ++r) {
        const uint8_t m = ExecutionPlan::RunMachine(runs[r]);
        const uint32_t c = ExecutionPlan::RunCount(runs[r]);
        // Runs are distinct machines in ascending order, never empty.
        ASSERT_TRUE(first || m > prev_machine) << "v=" << v;
        first = false;
        prev_machine = m;
        ASSERT_GT(c, 0u) << "v=" << v;
        ASSERT_LT(m, kMachines) << "v=" << v;
        ASSERT_EQ(c, want[v][m]) << "v=" << v << " machine=" << int{m};
        total += c;
      }
      // Together with the per-run equality, this leaves no oracle machine
      // without its run.
      uint64_t want_total = 0;
      for (uint64_t c : want[v]) want_total += c;
      ASSERT_EQ(total, want_total) << "v=" << v;
      ASSERT_EQ(total, offsets[v + 1] - offsets[v]) << "v=" << v;
    }
  };
  check_side(gather, plan.gather_offsets, plan.gather_run_offsets,
             plan.gather_runs);
  check_side(scatter, plan.scatter_offsets, plan.scatter_run_offsets,
             plan.scatter_runs);
}

}  // namespace
}  // namespace gdp::engine
