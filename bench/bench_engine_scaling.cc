// Execution-core benchmark (no paper figure): the parallel, frontier-aware
// engine against the preserved serial reference (reference_engine.h).
//
// Two claims gate this bench:
//  1. Simulated RunStats and final states are bit-identical to the serial
//     reference engine at every thread count: PageRank on a power-law web
//     and SSSP on a road lattice, each at 1/2/4/8 threads. The lattice's
//     sparse frontiers (under 1/32 of the vertices) fill more than one
//     1,024-vertex chunk, so its sparse supersteps split across lanes
//     (always checked).
//  2. Frontier awareness: on sparse-frontier SSSP (the same lattice) the
//     plan engine at ONE thread beats the reference's full-edge-scan
//     supersteps by >= 5x wall clock (always checked; algorithmic, needs no
//     cores).
//
// No wall-clock scaling claim: on a shared 4-vCPU host a 300k-vertex
// heavy-tailed PageRank read 1.70-3.38x at 4 threads over 1 thread across
// ten runs (median of 3 timings each), so a >= 2x gate failed about one
// run in ten — one fork-join lane descheduled by a neighbour stalls every
// superstep. perfbench's scaling_x reports the 1 -> 4 thread ratio with
// its spread. The wall times below are printed for reference only.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "bench_common.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/reference_engine.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace {

using namespace gdp;

constexpr uint32_t kMachines = 9;
/// Sparse frontiers are listed and sharded in chunks of this many vertices
/// (gas_engine.h); a frontier above it splits across lanes.
constexpr uint64_t kFrontierChunk = 1024;

partition::IngestResult Partition(const graph::EdgeList& edges,
                                  sim::Cluster& cluster) {
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = kMachines;
  context.seed = 3;
  return partition::IngestWithStrategy(edges, partition::StrategyKind::kHdrf,
                                       context, cluster,
                                       partition::IngestOptions{});
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool StatsIdentical(const engine::RunStats& a, const engine::RunStats& b) {
  return a.iterations == b.iterations && a.converged == b.converged &&
         a.compute_seconds == b.compute_seconds &&
         a.network_bytes == b.network_bytes &&
         a.mean_inbound_bytes_per_machine ==
             b.mean_inbound_bytes_per_machine &&
         a.cumulative_seconds == b.cumulative_seconds &&
         a.active_counts == b.active_counts;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Engine scaling — parallel frontier-aware core vs serial reference",
      "HDRF, 9 machines; PageRank on power-law web, SSSP on road lattice");

  const uint32_t hw_threads = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u\n", hw_threads);

  // ---- PageRank on a power-law web: dense frontier ----
  graph::EdgeList web = graph::GeneratePowerLawWeb(
      {.num_vertices = 40000, .out_alpha = 1.3, .seed = 0x0B});
  web.set_name("power-law web");

  engine::RunOptions pr_options;
  pr_options.max_iterations = 10;
  apps::PageRankApp pr_app = apps::PageRankFixed();

  sim::Cluster ref_cluster(kMachines, sim::CostModel{});
  partition::IngestResult ref_ingest = Partition(web, ref_cluster);
  auto ref_start = std::chrono::steady_clock::now();
  auto pr_ref = engine::RunGasEngineReference(
      engine::EngineKind::kPowerGraphSync, ref_ingest.graph, ref_cluster,
      pr_app, pr_options);
  const double pr_ref_seconds = SecondsSince(ref_start);
  const double ref_throughput = pr_ref.stats.iterations / pr_ref_seconds;

  util::Table pr_table({"engine", "threads", "wall(ms)", "supersteps/s",
                        "speedup", "stats==ref"});
  pr_table.AddRow({"reference", "1", util::Table::Num(pr_ref_seconds * 1e3),
                   util::Table::Num(ref_throughput), "1.00", "—"});

  bool pr_stats_identical = true;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    sim::Cluster cluster(kMachines, sim::CostModel{});
    partition::IngestResult ingest = Partition(web, cluster);
    const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
        ingest.graph, apps::PageRankApp::kGatherDir,
        apps::PageRankApp::kScatterDir, /*graphx_counts=*/false);
    engine::RunOptions options = pr_options;
    options.exec.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    auto got = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    plan, cluster, pr_app, options);
    const double seconds = SecondsSince(start);
    const double throughput = got.stats.iterations / seconds;
    const bool identical = StatsIdentical(got.stats, pr_ref.stats) &&
                           got.states == pr_ref.states;
    pr_stats_identical = pr_stats_identical && identical;
    pr_table.AddRow({"plan", std::to_string(threads),
                     util::Table::Num(seconds * 1e3),
                     util::Table::Num(throughput),
                     util::Table::Num(pr_ref_seconds / seconds),
                     identical ? "yes" : "NO"});
  }
  bench::PrintTable(pr_table);

  // ---- SSSP on a road lattice: sparse frontier ------------------------
  graph::EdgeList road = graph::GenerateRoadNetwork(
      {.width = 240, .height = 240, .drop_fraction = 0.2, .seed = 0xCA});
  road.set_name("road lattice");
  const uint64_t n = road.num_vertices();

  engine::RunOptions sssp_options;
  sssp_options.max_iterations = 5000;
  apps::SsspApp sssp_app;
  sssp_app.source = 0;

  sim::Cluster sssp_cluster(kMachines, sim::CostModel{});
  partition::IngestResult sssp_ingest = Partition(road, sssp_cluster);
  const sim::ClusterSnapshot sssp_post_ingress = sssp_cluster.Snapshot();
  ref_start = std::chrono::steady_clock::now();
  auto sssp_ref = engine::RunGasEngineReference(
      engine::EngineKind::kPowerGraphSync, sssp_ingest.graph, sssp_cluster,
      sssp_app, sssp_options);
  const double sssp_ref_seconds = SecondsSince(ref_start);

  // Frontier sparsity: the mean active fraction across supersteps is what
  // the frontier switch exploits (the reference pays O(|E|) regardless),
  // and the multi-chunk sparse supersteps are the ones lanes share.
  uint64_t active_sum = 0;
  uint64_t peak_active = 0;
  uint64_t multi_chunk_sparse = 0;
  for (uint64_t c : sssp_ref.stats.active_counts) {
    active_sum += c;
    peak_active = std::max(peak_active, c);
    if (c > kFrontierChunk && c * 32 < n) ++multi_chunk_sparse;
  }
  const double mean_active_fraction =
      sssp_ref.stats.active_counts.empty()
          ? 0.0
          : static_cast<double>(active_sum) /
                (static_cast<double>(sssp_ref.stats.active_counts.size()) *
                 static_cast<double>(n));

  util::Table sssp_table({"engine", "threads", "wall(ms)", "supersteps",
                          "speedup", "stats==ref"});
  sssp_table.AddRow({"reference", "1",
                     util::Table::Num(sssp_ref_seconds * 1e3),
                     std::to_string(sssp_ref.stats.iterations), "1.00", "—"});
  bool sssp_identical = true;
  double sssp_speedup = 0;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    sssp_cluster.Restore(sssp_post_ingress);
    engine::RunOptions options = sssp_options;
    options.exec.num_threads = threads;
    auto start = std::chrono::steady_clock::now();
    auto got = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                    sssp_ingest.graph, sssp_cluster,
                                    sssp_app, options);
    const double seconds = SecondsSince(start);
    if (threads == 1) sssp_speedup = sssp_ref_seconds / seconds;
    const bool same = StatsIdentical(got.stats, sssp_ref.stats) &&
                      got.states == sssp_ref.states;
    sssp_identical = sssp_identical && same;
    sssp_table.AddRow({"plan", std::to_string(threads),
                       util::Table::Num(seconds * 1e3),
                       std::to_string(got.stats.iterations),
                       util::Table::Num(sssp_ref_seconds / seconds),
                       same ? "yes" : "NO"});
  }
  bench::PrintTable(sssp_table);
  std::printf(
      "lattice: %llu vertices, mean active fraction %.4f, peak frontier "
      "%llu, %llu sparse supersteps above %llu frontier vertices\n",
      static_cast<unsigned long long>(n), mean_active_fraction,
      static_cast<unsigned long long>(peak_active),
      static_cast<unsigned long long>(multi_chunk_sparse),
      static_cast<unsigned long long>(kFrontierChunk));

  bench::Metric("sssp_frontier_speedup_x", sssp_speedup);

  // ---- Claims ----
  bool ok = true;
  ok &= bench::Claim(
      "simulated costs bit-identical to the serial engine at every thread "
      "count (PageRank, and lattice SSSP at 1/2/4/8 threads with " +
          std::to_string(multi_chunk_sparse) +
          " multi-chunk sparse supersteps)",
      pr_stats_identical && sssp_identical && multi_chunk_sparse > 0);
  ok &= bench::Claim(
      "frontier-aware engine >= 5x serial speedup on sparse-frontier SSSP "
      "(measured " + util::Table::Num(sssp_speedup, 1) + "x, mean active "
      "fraction " + util::Table::Num(mean_active_fraction * 100, 2) + "%)",
      sssp_speedup >= 5.0 && mean_active_fraction < 0.05);
  return ok ? 0 : 1;
}
