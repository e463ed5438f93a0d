// Ingress-pipeline benchmark (no paper figure): the parallel deterministic
// ingress pipeline and the allocation-free greedy kernels against their
// preserved serial/allocating counterparts.
//
// Claims gating this bench:
//  1. Ingest() is bit-identical to IngestReference() at 1/2/8 threads for
//     Oblivious and HDRF — graph, report, and per-machine cluster counters
//     (always checked).
//  2. Allocation-free Oblivious kernel: same placements as the seed-style
//     set_intersection/set_union kernel, >= 1.5x faster single-threaded
//     (always checked; algorithmic, needs no cores).
//  3. HDRF's incrementally-maintained min/max load matches the per-edge
//     O(P) scan's placements exactly (always checked; speedup reported).
//  4. Parallel ingress scales on power-law graphs: evaluated at
//     T = min(8, hardware threads) lanes whenever T >= 4 — >= 3x wall-clock
//     speedup over 1 thread at 8 threads, >= 2x below 8. Each thread count
//     is timed as the median of 3 runs. Printed as an explicit skip on
//     hosts with fewer than 4 hardware threads.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "partition/greedy.h"
#include "partition/ingest.h"
#include "sim/cluster.h"
#include "util/hash.h"

namespace {

using namespace gdp;
using partition::MachineId;

constexpr uint32_t kMachines = 9;
constexpr uint32_t kLoaders = 16;
/// Timed runs per thread count; the scaling table reports their median.
constexpr int kTimedRuns = 3;

partition::PartitionContext MakeContext(graph::VertexId vertices) {
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = vertices;
  context.num_loaders = kLoaders;
  context.seed = 3;
  return context;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunSnapshot {
  partition::IngestResult result;
  std::vector<double> busy_seconds;
  std::vector<uint64_t> bytes_sent;
  std::vector<uint64_t> bytes_received;
  std::vector<uint64_t> memory_bytes;
  std::vector<uint64_t> peak_memory_bytes;
  double wall_seconds = 0;
};

RunSnapshot RunOnce(const graph::EdgeList& edges, partition::StrategyKind kind,
                    uint32_t num_threads, bool reference) {
  auto partitioner =
      partition::MakePartitioner(kind, MakeContext(edges.num_vertices()));
  sim::Cluster cluster(kMachines, sim::CostModel{});
  partition::IngestOptions options;
  options.num_loaders = kLoaders;
  options.exec.num_threads = num_threads;
  RunSnapshot snap;
  auto start = std::chrono::steady_clock::now();
  snap.result = reference
                    ? IngestReference(edges, *partitioner, cluster, options)
                    : Ingest(edges, *partitioner, cluster, options);
  snap.wall_seconds = SecondsSince(start);
  for (uint32_t m = 0; m < kMachines; ++m) {
    const sim::Machine& machine = cluster.machine(m);
    snap.busy_seconds.push_back(machine.busy_seconds());
    snap.bytes_sent.push_back(machine.bytes_sent());
    snap.bytes_received.push_back(machine.bytes_received());
    snap.memory_bytes.push_back(machine.memory_bytes());
    snap.peak_memory_bytes.push_back(machine.peak_memory_bytes());
  }
  return snap;
}

bool SnapshotsIdentical(const RunSnapshot& a, const RunSnapshot& b) {
  const partition::IngressReport& ra = a.result.report;
  const partition::IngressReport& rb = b.result.report;
  return a.result.graph.edge_partition == b.result.graph.edge_partition &&
         a.result.graph.master == b.result.graph.master &&
         a.result.graph.partition_edge_count ==
             b.result.graph.partition_edge_count &&
         ra.ingress_seconds == rb.ingress_seconds &&
         ra.pass_seconds == rb.pass_seconds &&
         ra.edges_moved == rb.edges_moved &&
         ra.replication_factor == rb.replication_factor &&
         ra.peak_state_bytes == rb.peak_state_bytes &&
         a.busy_seconds == b.busy_seconds && a.bytes_sent == b.bytes_sent &&
         a.bytes_received == b.bytes_received &&
         a.memory_bytes == b.memory_bytes &&
         a.peak_memory_bytes == b.peak_memory_bytes;
}

// ---------------------------------------------------------------------------
// Seed-style greedy kernels, preserved here as the baseline: sorted machine
// vectors from ReplicaTable::Machines() merged with set_intersection /
// set_union (two or three heap allocations per edge), and HDRF rescanning
// all P loads per edge. Placements must match the allocation-free kernels
// exactly — both visit candidate machines ascending and draw the same
// tie-break sequence.
// ---------------------------------------------------------------------------

MachineId LeastLoadedVec(const std::vector<MachineId>& candidates,
                         const util::LineVector<uint64_t>& load,
                         util::SplitMix64& rng) {
  uint64_t best = std::numeric_limits<uint64_t>::max();
  uint32_t ties = 0;
  MachineId chosen = 0;
  for (MachineId m : candidates) {
    if (load[m] < best) {
      best = load[m];
      chosen = m;
      ties = 1;
    } else if (load[m] == best) {
      ++ties;
      if (rng.NextBounded(ties) == 0) chosen = m;
    }
  }
  return chosen;
}

MachineId SeedObliviousAssign(partition::LoaderState& state,
                              const graph::Edge& e) {
  std::vector<MachineId> a_u = state.replicas.Machines(e.src);
  std::vector<MachineId> a_v = state.replicas.Machines(e.dst);
  std::vector<MachineId> common;
  std::set_intersection(a_u.begin(), a_u.end(), a_v.begin(), a_v.end(),
                        std::back_inserter(common));
  MachineId target;
  if (!common.empty()) {
    target = LeastLoadedVec(common, state.machine_load, state.rng);
  } else if (a_u.empty() && a_v.empty()) {
    std::vector<MachineId> all(state.machine_load.size());
    for (MachineId m = 0; m < all.size(); ++m) all[m] = m;
    target = LeastLoadedVec(all, state.machine_load, state.rng);
  } else if (a_v.empty()) {
    target = LeastLoadedVec(a_u, state.machine_load, state.rng);
  } else if (a_u.empty()) {
    target = LeastLoadedVec(a_v, state.machine_load, state.rng);
  } else {
    std::vector<MachineId> both;
    std::set_union(a_u.begin(), a_u.end(), a_v.begin(), a_v.end(),
                   std::back_inserter(both));
    target = LeastLoadedVec(both, state.machine_load, state.rng);
  }
  state.replicas.Add(e.src, target);
  state.replicas.Add(e.dst, target);
  state.AddEdgeTo(target);
  return target;
}

MachineId SeedHdrfAssign(partition::LoaderState& state, const graph::Edge& e,
                         uint32_t num_partitions, double lambda) {
  double deg_u = static_cast<double>(++state.partial_degree[e.src]);
  double deg_v = static_cast<double>(++state.partial_degree[e.dst]);
  double theta_u = deg_u / (deg_u + deg_v);
  double theta_v = 1.0 - theta_u;

  // The seed's per-edge O(P) scan the incremental tracking replaced.
  uint64_t max_load = 0;
  uint64_t min_load = std::numeric_limits<uint64_t>::max();
  for (uint64_t load : state.machine_load) {
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  constexpr double kEpsilon = 1.0;

  double best_score = -std::numeric_limits<double>::infinity();
  uint32_t ties = 0;
  MachineId chosen = 0;
  for (MachineId m = 0; m < num_partitions; ++m) {
    double g_u =
        state.replicas.Contains(e.src, m) ? 1.0 + (1.0 - theta_u) : 0.0;
    double g_v =
        state.replicas.Contains(e.dst, m) ? 1.0 + (1.0 - theta_v) : 0.0;
    double c_rep = g_u + g_v;
    double c_bal = static_cast<double>(max_load - state.machine_load[m]) /
                   (kEpsilon + static_cast<double>(max_load - min_load));
    double score = c_rep + lambda * c_bal;
    if (score > best_score + 1e-12) {
      best_score = score;
      chosen = m;
      ties = 1;
    } else if (score > best_score - 1e-12) {
      ++ties;
      if (state.rng.NextBounded(ties) == 0) chosen = m;
    }
  }
  state.replicas.Add(e.src, chosen);
  state.replicas.Add(e.dst, chosen);
  state.AddEdgeTo(chosen);
  return chosen;
}

struct KernelResult {
  std::vector<MachineId> placements;
  double wall_seconds = 0;
};

KernelResult RunSeedKernel(const graph::EdgeList& edges, bool hdrf) {
  partition::PartitionContext context = MakeContext(edges.num_vertices());
  // Loader 0's state, seeded exactly as GreedyPartitionerBase seeds it.
  partition::LoaderState state(context.num_vertices, kMachines,
                               util::Mix64(context.seed ^ 1),
                               /*track_degrees=*/hdrf);
  KernelResult r;
  r.placements.reserve(edges.num_edges());
  auto start = std::chrono::steady_clock::now();
  for (const graph::Edge& e : edges.edges()) {
    r.placements.push_back(hdrf
                               ? SeedHdrfAssign(state, e, kMachines,
                                                context.hdrf_lambda)
                               : SeedObliviousAssign(state, e));
  }
  r.wall_seconds = SecondsSince(start);
  return r;
}

KernelResult RunNewKernel(const graph::EdgeList& edges,
                          partition::StrategyKind kind) {
  auto partitioner =
      partition::MakePartitioner(kind, MakeContext(edges.num_vertices()));
  KernelResult r;
  r.placements.reserve(edges.num_edges());
  partitioner->BeginPass(0);
  auto start = std::chrono::steady_clock::now();
  for (const graph::Edge& e : edges.edges()) {
    r.placements.push_back(partitioner->Assign(e, 0, 0));
  }
  r.wall_seconds = SecondsSince(start);
  return r;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Ingress scaling — parallel deterministic pipeline + allocation-free "
      "greedy kernels",
      "Oblivious/HDRF, 9 machines, 16 loaders; power-law (Twitter-like) "
      "graph");

  const uint32_t hw_threads = std::thread::hardware_concurrency();
  std::printf("host hardware threads: %u\n", hw_threads);

  graph::EdgeList twitter = graph::GenerateHeavyTailed(
      {.num_vertices = 50000, .edges_per_vertex = 14, .seed = 0x7F});
  twitter.set_name("Twitter");

  // Claim 4 runs at the widest lane count the host can serve, up to 8.
  const uint32_t claim_threads = std::min(8u, hw_threads);
  const double claim_speedup = claim_threads >= 8 ? 3.0 : 2.0;
  std::set<uint32_t> thread_counts = {1u, 2u, 4u, 8u};
  if (claim_threads >= 4) thread_counts.insert(claim_threads);

  // ---- Claim 1: bit-identity vs the serial reference. --------------------
  bool identical = true;
  // ---- Claim 4 data: wall-clock scaling. ---------------------------------
  util::Table scaling({"strategy", "threads", "ingress wall(ms)", "speedup",
                       "== reference"});
  double claim_speedup_measured[2] = {0, 0};
  const partition::StrategyKind kinds[2] = {
      partition::StrategyKind::kOblivious, partition::StrategyKind::kHdrf};
  const char* names[2] = {"Oblivious", "HDRF"};
  for (int k = 0; k < 2; ++k) {
    RunSnapshot reference =
        RunOnce(twitter, kinds[k], /*num_threads=*/1, /*reference=*/true);
    double wall_at_1 = 0;
    for (uint32_t threads : thread_counts) {
      std::vector<double> walls;
      bool same = true;
      for (int run_index = 0; run_index < kTimedRuns; ++run_index) {
        RunSnapshot run =
            RunOnce(twitter, kinds[k], threads, /*reference=*/false);
        same = same && SnapshotsIdentical(reference, run);
        walls.push_back(run.wall_seconds);
      }
      std::sort(walls.begin(), walls.end());
      const double wall = walls[walls.size() / 2];
      if (threads == 1 || threads == 2 || threads == 8) {
        identical = identical && same;
      }
      if (threads == 1) wall_at_1 = wall;
      if (threads == claim_threads) {
        claim_speedup_measured[k] = wall_at_1 / wall;
      }
      scaling.AddRow({names[k], std::to_string(threads),
                      util::Table::Num(wall * 1e3),
                      util::Table::Num(wall_at_1 / wall),
                      same ? "yes" : "NO"});
    }
  }
  bench::PrintTable(scaling);

  // ---- Claims 2 & 3: allocation-free kernels vs seed-style kernels. ------
  KernelResult obl_seed = RunSeedKernel(twitter, /*hdrf=*/false);
  KernelResult obl_new =
      RunNewKernel(twitter, partition::StrategyKind::kOblivious);
  const bool obl_same = obl_seed.placements == obl_new.placements;
  const double obl_speedup = obl_seed.wall_seconds / obl_new.wall_seconds;

  KernelResult hdrf_seed = RunSeedKernel(twitter, /*hdrf=*/true);
  KernelResult hdrf_new =
      RunNewKernel(twitter, partition::StrategyKind::kHdrf);
  const bool hdrf_same = hdrf_seed.placements == hdrf_new.placements;
  const double hdrf_speedup = hdrf_seed.wall_seconds / hdrf_new.wall_seconds;

  util::Table kernels({"kernel", "baseline(ms)", "optimized(ms)", "speedup",
                       "same placements"});
  kernels.AddRow({"Oblivious", util::Table::Num(obl_seed.wall_seconds * 1e3),
                  util::Table::Num(obl_new.wall_seconds * 1e3),
                  util::Table::Num(obl_speedup), obl_same ? "yes" : "NO"});
  kernels.AddRow({"HDRF", util::Table::Num(hdrf_seed.wall_seconds * 1e3),
                  util::Table::Num(hdrf_new.wall_seconds * 1e3),
                  util::Table::Num(hdrf_speedup), hdrf_same ? "yes" : "NO"});
  bench::PrintTable(kernels);

  bench::Metric("oblivious_kernel_speedup_x", obl_speedup);
  bench::Metric("hdrf_kernel_speedup_x", hdrf_speedup);
  bench::Metric("ingress_claim_threads", claim_threads);
  bench::Metric("ingress_speedup_oblivious_x", claim_speedup_measured[0]);
  bench::Metric("ingress_speedup_hdrf_x", claim_speedup_measured[1]);

  // ---- Claims ----
  bool ok = true;
  ok &= bench::Claim(
      "parallel ingest bit-identical to IngestReference at 1/2/8 threads "
      "(Oblivious + HDRF: graph, report, per-machine cluster counters)",
      identical);
  ok &= bench::Claim(
      "allocation-free Oblivious kernel: identical placements, >= 1.5x over "
      "the set_intersection/set_union kernel (measured " +
          util::Table::Num(obl_speedup, 2) + "x)",
      obl_same && obl_speedup >= 1.5);
  ok &= bench::Claim(
      "HDRF incremental min/max load tracking places edges identically to "
      "the per-edge O(P) scan (speedup " +
          util::Table::Num(hdrf_speedup, 2) + "x)",
      hdrf_same);
  if (claim_threads >= 4) {
    ok &= bench::Claim(
        ">= " + util::Table::Num(claim_speedup, 0) +
            "x ingress wall-clock speedup at " +
            std::to_string(claim_threads) +
            " threads, median of " + std::to_string(kTimedRuns) +
            " runs (measured Oblivious " +
            util::Table::Num(claim_speedup_measured[0], 2) + "x, HDRF " +
            util::Table::Num(claim_speedup_measured[1], 2) + "x)",
        claim_speedup_measured[0] >= claim_speedup &&
            claim_speedup_measured[1] >= claim_speedup);
  } else {
    // Not enough cores to demonstrate scaling here; the determinism claims
    // above still bind. Counts as reproduced-by-skip, explicitly labeled.
    ok &= bench::Claim(
        "ingress speedup claim skipped: host has only " +
            std::to_string(hw_threads) +
            " hardware thread(s); rerun on >= 4 to evaluate",
        true);
  }
  return ok ? 0 : 1;
}
