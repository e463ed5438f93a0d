// The parallel engine's core contract: final states AND every simulated
// cost (RunStats, per-machine byte/time accounting) are bit-identical to
// the preserved serial engine (reference_engine.h) at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/kcore.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/wcc.h"
#include "engine/async_coloring.h"
#include "engine/async_engine.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "graph/generators.h"
#include "obs/trace.h"
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
constexpr std::initializer_list<uint32_t> kThreadCounts = {1, 2, 8};

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

/// A span's name, depth, simulated clocks and integer args — everything
/// but its wall clock.
using SimSpan = std::tuple<std::string, uint32_t, double, double,
                           std::vector<std::pair<std::string, int64_t>>>;

std::vector<SimSpan> SimSpans(const obs::TraceRecorder& trace) {
  std::vector<SimSpan> out;
  for (const obs::TraceSpan& span : trace.SpansByTrack()) {
    out.emplace_back(span.name, span.depth, span.sim_begin_seconds,
                     span.sim_end_seconds, span.args);
  }
  return out;
}

/// Runs `app` through the serial reference engine once, then through the
/// parallel engine at each thread count, demanding bit-identical states,
/// stats, per-machine cluster accounting and superstep spans (frontier,
/// signaled, and the gather/apply/scatter ticks and bytes) each time.
/// Stores the reference's stats in `ref_stats` when given.
template <typename App>
void ExpectBitIdenticalAcrossThreads(
    EngineKind kind, const graph::EdgeList& edges, App app,
    RunOptions options,
    std::initializer_list<uint32_t> thread_counts = kThreadCounts,
    RunStats* ref_stats = nullptr) {
  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  IngestResult ref_ingest = Partition(edges, ref_cluster);
  obs::TraceRecorder ref_trace;
  RunOptions ref_options = options;
  ref_options.exec.trace = &ref_trace;
  auto ref = RunGasEngineReference(kind, ref_ingest.graph, ref_cluster, app,
                                   ref_options);
  const std::vector<SimSpan> ref_spans = SimSpans(ref_trace);
  if (ref_stats != nullptr) *ref_stats = ref.stats;

  for (uint32_t threads : thread_counts) {
    SCOPED_TRACE(std::string(EngineKindName(kind)) + " threads=" +
                 std::to_string(threads));
    sim::Cluster cluster(kMachines, sim::CostModel{});
    IngestResult ingest = Partition(edges, cluster);
    obs::TraceRecorder trace;
    RunOptions run_options = options;
    run_options.exec.num_threads = threads;
    run_options.exec.trace = &trace;
    auto got = RunGasEngine(kind, ingest.graph, cluster, app, run_options);

    ASSERT_EQ(got.states.size(), ref.states.size());
    for (graph::VertexId v = 0; v < edges.num_vertices(); ++v) {
      ASSERT_EQ(got.states[v], ref.states[v]) << "vertex " << v;
    }
    ExpectStatsIdentical(got.stats, ref.stats);
    ExpectClustersIdentical(cluster, ref_cluster);
    EXPECT_EQ(SimSpans(trace), ref_spans);
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

TEST_P(EngineDeterminismTest, SsspMultiChunkSparseLattice) {
  // The graphs above are too small for a sparse frontier (under n/32) to
  // fill a second 1,024-vertex chunk, so their sparse supersteps never
  // split across lanes. On this 57,600-vertex lattice they do: the lanes
  // share the apply+scatter pass, wake through SetAtomic and sum the bits
  // they turned on. The run must also cross into dense supersteps, where
  // the lanes' wake bitsets are merged and counted instead.
  const graph::EdgeList lattice = graph::GenerateRoadNetwork(
      {.width = 240, .height = 240, .drop_fraction = 0.2, .seed = 12});
  apps::SsspApp app;
  app.source = 1;
  RunOptions options;
  options.max_iterations = 5000;
  RunStats ref;
  ExpectBitIdenticalAcrossThreads(GetParam(), lattice, app, options,
                                  {1, 2, 3, 8}, &ref);

  const uint64_t n = lattice.num_vertices();
  uint64_t multi_chunk_sparse = 0;
  uint64_t dense = 0;
  for (uint64_t frontier : ref.active_counts) {
    if (frontier * 32 >= n) {
      ++dense;
    } else if (frontier > 1024) {
      ++multi_chunk_sparse;
    }
  }
  EXPECT_GT(multi_chunk_sparse, 0u);
  EXPECT_GT(dense, 0u);
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

// The async engines have no reference to compare with, so their costs are
// pinned too: compute seconds (async rounds charge multiples of 5 ticks and
// advance the clock by the mean machine time), rounds and bytes.
TEST(EngineAccountingPinTest, AsyncCostsMatchRecordedBits) {
  const graph::EdgeList edges = PowerLawGraph();
  sim::Cluster ingest_cluster(kMachines, sim::CostModel{});
  const IngestResult ingest = Partition(edges, ingest_cluster);

  struct Pin {
    const char* run;
    double compute_seconds;
    uint32_t iterations;
    uint64_t network_bytes;
  };
  const Pin pins[] = {
      {"sssp", 0x1.4cedfcb8f7bb2p-14, 5, 33744},
      {"wcc", 0x1.a4f20ab3e9ca4p-14, 5, 48312},
      {"pagerank", 0x1.da7eb663a40e8p-12, 36, 271296},
      {"coloring", 0x1.62ea182da30e8p-13, 7, 80880},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.run);
    sim::Cluster cluster(kMachines, sim::CostModel{});
    RunOptions options;
    options.max_iterations = 5000;
    const std::string run = pin.run;
    RunStats stats;
    if (run == "sssp") {
      apps::SsspApp app;
      app.source = 5;
      stats = RunAsyncGasEngine(ingest.graph, cluster, app, options).stats;
    } else if (run == "wcc") {
      stats = RunAsyncGasEngine(ingest.graph, cluster, apps::WccApp{},
                                options)
                  .stats;
    } else if (run == "pagerank") {
      stats = RunAsyncGasEngine(ingest.graph, cluster,
                                apps::PageRankConvergent(1e-3), options)
                  .stats;
    } else {
      stats = RunAsyncColoring(ingest.graph, cluster, options).stats;
    }
    EXPECT_TRUE(stats.converged);
    EXPECT_EQ(stats.compute_seconds, pin.compute_seconds);
    EXPECT_EQ(stats.iterations, pin.iterations);
    EXPECT_EQ(stats.network_bytes, pin.network_bytes);
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
  check_side(scatter, plan.scatter_offsets(), plan.scatter_run_offsets(),
             plan.scatter_runs());
}

// ---------------------------------------------------------------------------
// The parallel plan build: every field is the same at any thread count, and
// each center's adjacency follows the edge order.
// ---------------------------------------------------------------------------

/// A star whose hub sits at the middle id, with edges in both directions
/// and leaves / 4 self-loops on the hub: the hub holds 60% of every plan's
/// entries, so at 8 lanes several stripe cuts fall on it and the stripes
/// after it are empty.
graph::EdgeList HubStar(graph::VertexId leaves) {
  graph::EdgeList edges;
  const graph::VertexId hub = leaves / 2;
  for (graph::VertexId v = 0; v <= leaves; ++v) {
    if (v == hub) continue;
    if (v % 2 == 0) {
      edges.AddEdge(hub, v);
    } else {
      edges.AddEdge(v, hub);
    }
  }
  for (graph::VertexId i = 0; i < leaves / 4; ++i) edges.AddEdge(hub, hub);
  return edges;
}

constexpr std::pair<EdgeDirection, EdgeDirection> kDirectionPairs[] = {
    {EdgeDirection::kIn, EdgeDirection::kOut},
    {EdgeDirection::kOut, EdgeDirection::kIn},
    {EdgeDirection::kBoth, EdgeDirection::kBoth},
    {EdgeDirection::kBoth, EdgeDirection::kNone},
    {EdgeDirection::kBoth, EdgeDirection::kOut},
};

template <typename T>
void ExpectSameField(const std::vector<T>& got, const std::vector<T>& want,
                     const char* field) {
  ASSERT_EQ(got.size(), want.size()) << field;
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
  EXPECT_TRUE(diff.first == got.end())
      << field << " differs at " << (diff.first - got.begin());
}

void ExpectPlansIdentical(const ExecutionPlan& got,
                          const ExecutionPlan& want) {
  EXPECT_EQ(got.dg, want.dg);
  EXPECT_EQ(got.gather_dir, want.gather_dir);
  EXPECT_EQ(got.scatter_dir, want.scatter_dir);
  ExpectSameField(got.masks.replicas, want.masks.replicas, "replicas");
  ExpectSameField(got.masks.in_edges, want.masks.in_edges, "in_edges");
  ExpectSameField(got.masks.out_edges, want.masks.out_edges, "out_edges");
  ExpectSameField(got.masks.master_machine, want.masks.master_machine,
                  "master_machine");
  ExpectSameField(got.gather_offsets, want.gather_offsets, "gather_offsets");
  ExpectSameField(got.gather_nbr, want.gather_nbr, "gather_nbr");
  ExpectSameField(got.scatter_offsets(), want.scatter_offsets(),
                  "scatter_offsets");
  ExpectSameField(got.scatter_target(), want.scatter_target(),
                  "scatter_target");
  ExpectSameField(got.gather_run_offsets, want.gather_run_offsets,
                  "gather_run_offsets");
  ExpectSameField(got.gather_runs, want.gather_runs, "gather_runs");
  ExpectSameField(got.scatter_run_offsets(), want.scatter_run_offsets(),
                  "scatter_run_offsets");
  ExpectSameField(got.scatter_runs(), want.scatter_runs(), "scatter_runs");
  ExpectSameField(got.gather_partition_count, want.gather_partition_count,
                  "gather_partition_count");
  ExpectSameField(got.scatter_partition_count(),
                  want.scatter_partition_count(), "scatter_partition_count");
}

ExecutionPlan BuildAt(const partition::DistributedGraph& dg,
                      std::pair<EdgeDirection, EdgeDirection> dirs,
                      bool graphx_counts, uint32_t threads) {
  return ExecutionPlan::Build(dg, dirs.first, dirs.second, graphx_counts,
                              threads);
}

TEST(ExecutionPlanTest, BuildIsThreadCountInvariant) {
  const std::pair<std::string, graph::EdgeList> graphs[] = {
      {"heavy-tailed",
       graph::GenerateHeavyTailed(
           {.num_vertices = 3000, .edges_per_vertex = 8, .seed = 13})},
      {"hub star", HubStar(20000)},
      {"edgeless", graph::EdgeList("edgeless", 50, {})},
  };
  for (const auto& [name, edges] : graphs) {
    SCOPED_TRACE(name);
    sim::Cluster cluster(kMachines, sim::CostModel{});
    const IngestResult ingest = Partition(edges, cluster);
    const partition::DistributedGraph& dg = ingest.graph;
    for (const auto& dirs : kDirectionPairs) {
      for (const bool graphx_counts : {false, true}) {
        SCOPED_TRACE("directions " + std::to_string(int(dirs.first)) + "/" +
                     std::to_string(int(dirs.second)) +
                     (graphx_counts ? " graphx" : ""));
        const ExecutionPlan serial = BuildAt(dg, dirs, graphx_counts, 1);
        for (uint32_t threads : {2u, 3u, 8u}) {
          SCOPED_TRACE("threads=" + std::to_string(threads));
          ExpectPlansIdentical(BuildAt(dg, dirs, graphx_counts, threads),
                               serial);
        }
      }
    }
  }
}

TEST(ExecutionPlanTest, SymmetricPlanSharesOneCsr) {
  const graph::EdgeList edges = PowerLawGraph();
  sim::Cluster cluster(kMachines, sim::CostModel{});
  const IngestResult ingest = Partition(edges, cluster);
  const partition::DistributedGraph& dg = ingest.graph;
  const uint64_t entry_bytes = sizeof(graph::VertexId);
  for (const bool graphx_counts : {false, true}) {
    SCOPED_TRACE(graphx_counts ? "graphx" : "no graphx counts");
    // kBoth/kBoth: the scatter side IS the gather side, charged once.
    const ExecutionPlan shared =
        BuildAt(dg, {EdgeDirection::kBoth, EdgeDirection::kBoth},
                graphx_counts, 2);
    EXPECT_TRUE(shared.SharesCsr());
    EXPECT_EQ(&shared.scatter_offsets(), &shared.gather_offsets);
    EXPECT_EQ(&shared.scatter_target(), &shared.gather_nbr);
    EXPECT_EQ(&shared.scatter_run_offsets(), &shared.gather_run_offsets);
    EXPECT_EQ(&shared.scatter_runs(), &shared.gather_runs);
    EXPECT_EQ(&shared.scatter_partition_count(),
              &shared.gather_partition_count);
    EXPECT_EQ(shared.gather_nbr.size(), 2 * dg.edges.size());
    EXPECT_EQ(shared.gather_partition_count.size(),
              graphx_counts ? dg.num_vertices : 0u);
    EXPECT_EQ(shared.AdjacencyBytes(), shared.gather_nbr.size() * entry_bytes);

    // (kIn, kOut) still owns two CSRs, run tables and fan-out tables.
    const ExecutionPlan split =
        BuildAt(dg, {EdgeDirection::kIn, EdgeDirection::kOut}, graphx_counts,
                2);
    EXPECT_FALSE(split.SharesCsr());
    EXPECT_NE(&split.scatter_offsets(), &split.gather_offsets);
    EXPECT_NE(&split.scatter_target(), &split.gather_nbr);
    EXPECT_NE(&split.scatter_run_offsets(), &split.gather_run_offsets);
    EXPECT_NE(&split.scatter_runs(), &split.gather_runs);
    EXPECT_NE(&split.scatter_partition_count(), &split.gather_partition_count);
    EXPECT_EQ(split.scatter_offsets().size(), dg.num_vertices + 1u);
    EXPECT_EQ(split.gather_nbr.size(), dg.edges.size());
    EXPECT_EQ(split.scatter_target().size(), dg.edges.size());
    EXPECT_EQ(split.scatter_partition_count().size(),
              graphx_counts ? dg.num_vertices : 0u);
    EXPECT_EQ(split.AdjacencyBytes(), 2 * dg.edges.size() * entry_bytes);
  }
}

TEST(ExecutionPlanTest, AdjacencyFollowsEdgeOrder) {
  // A self-loop and a duplicate edge, both kept by AddEdge.
  graph::EdgeList hand;
  for (const auto& [src, dst] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 2}, {2, 0}, {0, 1}, {3, 1}, {1, 3}, {4, 0},
           {3, 4}, {2, 4}}) {
    hand.AddEdge(src, dst);
  }
  const std::pair<std::string, graph::EdgeList> graphs[] = {
      {"hand", hand},
      {"power-law", PowerLawGraph()},
      {"heavy-tailed",
       graph::GenerateHeavyTailed(
           {.num_vertices = 3000, .edges_per_vertex = 8, .seed = 13})},
  };
  for (const auto& [name, edges] : graphs) {
    SCOPED_TRACE(name);
    sim::Cluster cluster(kMachines, sim::CostModel{});
    const IngestResult ingest = Partition(edges, cluster);
    const partition::DistributedGraph& dg = ingest.graph;
    const ExecutionPlan plan =
        BuildAt(dg, {EdgeDirection::kBoth, EdgeDirection::kBoth},
                /*graphx_counts=*/false, 8);

    // The oracle never reads the plan: one scan of the edges in order,
    // appending gather in, gather out, scatter out, scatter in.
    std::vector<std::vector<graph::VertexId>> gather(dg.num_vertices);
    std::vector<std::vector<graph::VertexId>> scatter(dg.num_vertices);
    for (const graph::Edge& e : dg.edges) {
      gather[e.dst].push_back(e.src);
      gather[e.src].push_back(e.dst);
      scatter[e.src].push_back(e.dst);
      scatter[e.dst].push_back(e.src);
    }
    for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
      const std::vector<graph::VertexId> plan_gather(
          plan.gather_nbr.begin() + plan.gather_offsets[v],
          plan.gather_nbr.begin() + plan.gather_offsets[v + 1]);
      const std::vector<graph::VertexId> plan_scatter(
          plan.scatter_target().begin() + plan.scatter_offsets()[v],
          plan.scatter_target().begin() + plan.scatter_offsets()[v + 1]);
      ASSERT_EQ(plan_gather, gather[v]) << "v=" << v;
      ASSERT_EQ(plan_scatter, scatter[v]) << "v=" << v;
    }
  }
}

}  // namespace
}  // namespace gdp::engine
