#ifndef GDP_ENGINE_REFERENCE_ENGINE_H_
#define GDP_ENGINE_REFERENCE_ENGINE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/engine_obs.h"
#include "engine/gas_app.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "engine/run_stats.h"
#include "partition/distributed_graph.h"
#include "partition/validate.h"
#include "sim/cluster.h"
#include "util/check.h"

namespace gdp::engine {

/// The original single-threaded GAS engine, kept as the accounting oracle.
/// RunGasEngine (gas_engine.h) is the production engine; this one exists so
/// determinism tests and benchmarks can demand bit-identical states AND
/// RunStats against an independent implementation at every thread count.
/// It scans the whole edge list every minor-step and charges every tick
/// straight to the cluster. Do not optimize this function: its charges are
/// the contract.
template <GasApplication App>
GasRunResult<App> RunGasEngineReference(EngineKind kind,
                                        const partition::DistributedGraph& dg,
                                        sim::Cluster& cluster, App app,
                                        const RunOptions& options = {}) {
  using State = typename App::State;
  using Gather = typename App::Gather;

  GDP_CHECK_EQ(cluster.num_machines(), dg.num_machines);
  GDP_CHECK_LE(dg.num_machines, 64u);
  // Debug builds re-verify the placement/replica invariants every run; the
  // engines' message accounting silently miscounts on a corrupt structure.
  GDP_DCHECK_OK(partition::ValidateDistributedGraph(dg));
  const graph::VertexId n = dg.num_vertices;
  const sim::ObjectSizes sizes;
  const double work_mul = options.work_multiplier;

  // Observability only *reads* simulated state — the oracle's charges are
  // untouched.
  const obs::ExecContext& exec = options.exec;
  SuperstepObserver observer(exec, cluster, EngineKindName(kind));
  const bool observed = observer.enabled();

  // Degrees for the application context.
  std::vector<uint64_t> out_degree(n, 0);
  std::vector<uint64_t> in_degree(n, 0);
  for (const graph::Edge& e : dg.edges) {
    ++out_degree[e.src];
    ++in_degree[e.dst];
  }
  AppContext ctx{&out_degree, &in_degree};

  internal::MachineMasks masks = internal::MachineMasks::Build(dg);

  // GraphX-only: per-PARTITION fan-out counts. Spark materializes one
  // shuffle block per (vertex, edge-partition) pair when shipping vertex
  // attributes and returning partial aggregates, so its compute cost
  // tracks the *partition-level* replication factor even when partitions
  // share machines — the §7.4 mechanism behind 2D's advantage on skewed
  // graphs. The C++ engines coalesce per machine and skip this cost.
  std::vector<uint16_t> gather_partition_count;
  std::vector<uint16_t> scatter_partition_count;
  if (kind == EngineKind::kGraphXPregel) {
    gather_partition_count.assign(n, 0);
    scatter_partition_count.assign(n, 0);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!dg.present[v]) continue;
      uint32_t in = dg.in_edge_partitions.Count(v);
      uint32_t out = dg.out_edge_partitions.Count(v);
      uint32_t gather = 0, scatter = 0;
      if (IncludesIn(App::kGatherDir)) gather += in;
      if (IncludesOut(App::kGatherDir)) gather += out;
      if (IncludesIn(App::kScatterDir)) scatter += in;
      if (IncludesOut(App::kScatterDir)) scatter += out;
      gather_partition_count[v] = static_cast<uint16_t>(
          gather > 65535 ? 65535 : gather);
      scatter_partition_count[v] = static_cast<uint16_t>(
          scatter > 65535 ? 65535 : scatter);
    }
  }

  GasRunResult<App> result;
  RunStats& stats = result.stats;
  std::vector<State>& state = result.states;
  state.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    state.push_back(app.InitState(v, ctx));
  }

  std::vector<bool> active(n, false);
  for (graph::VertexId v = 0; v < n; ++v) {
    active[v] = dg.present[v] && app.InitiallyActive(v);
  }

  const double compute_start = cluster.now_seconds();
  uint64_t bytes_sent_start = cluster.TotalBytesSent();
  std::vector<uint64_t> inbound_start(dg.num_machines);
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_start[m] = cluster.machine(m).bytes_received();
  }

  auto machine_of_edge = [&](uint64_t i) -> sim::MachineId {
    return dg.edge_partition[i] % dg.num_machines;
  };

  // Activation (scatter control) messages: signaled center v notifies the
  // machines holding its scatter-direction edges. `activation_bytes` only
  // feeds the bootstrap span args.
  uint64_t activation_bytes = 0;
  auto charge_activation = [&](graph::VertexId v) {
    uint64_t mask = internal::DirectionMask(masks, App::kScatterDir, v);
    sim::MachineId master = masks.master_machine[v];
    mask &= ~(1ULL << master);
    while (mask != 0) {
      sim::MachineId m =
          static_cast<sim::MachineId>(std::countr_zero(mask));
      mask &= mask - 1;
      cluster.machine(master).ChargePhaseBytes(sizes.control_message);
      cluster.machine(m).ReceiveBytes(sizes.control_message);
      if (observed) activation_bytes += sizes.control_message;
    }
  };

  // Scatter minor-step from the `signaled` set into `next_active`.
  // Activation signals piggyback on the state-sync messages sent for the
  // same vertices (the real engines coalesce them), so scatter itself only
  // charges compute work.
  // Returns the scatter compute total in ticks (span args only).
  auto run_scatter = [&](const std::vector<bool>& signaled,
                         std::vector<bool>& next_active) -> uint64_t {
    uint64_t ticks = 0;
    for (uint64_t i = 0; i < dg.edges.size(); ++i) {
      const graph::Edge& e = dg.edges[i];
      bool src_scatters = IncludesOut(App::kScatterDir) && signaled[e.src];
      bool dst_scatters = IncludesIn(App::kScatterDir) && signaled[e.dst];
      if (!src_scatters && !dst_scatters) continue;
      sim::MachineId m = machine_of_edge(i);
      const uint64_t events = (src_scatters ? 1 : 0) + (dst_scatters ? 1 : 0);
      cluster.machine(m).AddTicks(sim::kTicksPerWorkUnit * events);
      ticks += sim::kTicksPerWorkUnit * events;
      if (src_scatters) next_active[e.dst] = true;
      if (dst_scatters) next_active[e.src] = true;
    }
    return ticks;
  };

  // Optional bootstrap: initially active vertices announce themselves;
  // with no apply/sync step yet, these activations do cross the wire.
  if (App::kBootstrapScatter) {
    obs::ScopedSpan bootstrap_span(exec.trace, exec.trace_track, "bootstrap",
                                   "engine", cluster.now_seconds());
    std::vector<bool> next_active(n, false);
    const uint64_t boot_ticks = run_scatter(active, next_active);
    uint64_t init_count = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (active[v]) {
        ++init_count;
        charge_activation(v);
      }
    }
    cluster.EndPhase(work_mul);
    active.swap(next_active);
    bootstrap_span.Arg("frontier", static_cast<int64_t>(init_count));
    bootstrap_span.Arg("scatter_ticks", static_cast<int64_t>(boot_ticks));
    bootstrap_span.Arg("scatter_bytes",
                       static_cast<int64_t>(activation_bytes));
    bootstrap_span.End(cluster.now_seconds());
  }

  std::vector<Gather> acc(n, app.GatherInit());
  std::vector<bool> has_gather(n, false);
  std::vector<bool> signaled(n, false);
  std::vector<bool> next_active(n, false);

  const Gather gather_identity = app.GatherInit();
  uint32_t iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    uint64_t active_count = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (active[v]) ++active_count;
    }
    stats.active_counts.push_back(active_count);
    if (active_count == 0) {
      stats.converged = true;
      break;
    }
    observer.BeginSuperstep(iteration);
    SuperstepBreakdown breakdown;
    breakdown.frontier = active_count;

    // ---- Gather minor-step ------------------------------------------------
    for (graph::VertexId v = 0; v < n; ++v) {
      if (active[v]) {
        acc[v] = gather_identity;
        has_gather[v] = false;
      }
    }
    for (uint64_t i = 0; i < dg.edges.size(); ++i) {
      const graph::Edge& e = dg.edges[i];
      bool gather_dst = IncludesIn(App::kGatherDir) && active[e.dst];
      bool gather_src = IncludesOut(App::kGatherDir) && active[e.src];
      if (!gather_dst && !gather_src) continue;
      sim::MachineId m = machine_of_edge(i);
      if (gather_dst) {
        app.GatherEdge(e.dst, e.src, state[e.src], ctx, &acc[e.dst]);
        has_gather[e.dst] = true;
        cluster.machine(m).AddTicks(sim::kTicksPerWorkUnit);
        if (observed) breakdown.gather_ticks += sim::kTicksPerWorkUnit;
      }
      if (gather_src) {
        app.GatherEdge(e.src, e.dst, state[e.dst], ctx, &acc[e.src]);
        has_gather[e.src] = true;
        cluster.machine(m).AddTicks(sim::kTicksPerWorkUnit);
        if (observed) breakdown.gather_ticks += sim::kTicksPerWorkUnit;
      }
    }

    // ---- Apply minor-step + message accounting ----------------------------
    std::fill(signaled.begin(), signaled.end(), false);
    uint64_t signaled_count = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      sim::MachineId master = masks.master_machine[v];
      cluster.machine(master).AddTicks(sim::kTicksPerWorkUnit);
      if (observed) breakdown.apply_ticks += sim::kTicksPerWorkUnit;
      bool signal = app.Apply(v, acc[v], has_gather[v], ctx, &state[v]);
      if (signal) {
        signaled[v] = true;
        ++signaled_count;
      }

      uint64_t master_bit = 1ULL << master;
      bool low_degree = (in_degree[v] + out_degree[v]) <=
                        options.high_degree_threshold;

      if (kind == EngineKind::kGraphXPregel) {
        // Shuffle-block serialization per edge-partition touched (see the
        // gather_partition_count comment above).
        const uint64_t blocks =
            static_cast<uint64_t>(gather_partition_count[v]) +
            (signal ? scatter_partition_count[v] : 0);
        cluster.machine(master).AddTicks(sim::kShuffleBlockTicks * blocks);
        if (observed) {
          breakdown.apply_ticks += sim::kShuffleBlockTicks * blocks;
          breakdown.graphx_blocks += blocks;
        }
      }

      // Gather messages: mirrors -> master.
      uint64_t gather_mask;
      if (kind == EngineKind::kPowerGraphSync) {
        gather_mask = masks.replicas[v] & ~master_bit;
      } else {
        gather_mask =
            internal::DirectionMask(masks, App::kGatherDir, v) & ~master_bit;
      }
      uint64_t gm = gather_mask;
      while (gm != 0) {
        sim::MachineId src =
            static_cast<sim::MachineId>(std::countr_zero(gm));
        gm &= gm - 1;
        // Distributed gather is a round trip: the master activates the
        // mirror (control) and the mirror returns its partial aggregate.
        cluster.machine(master).ChargePhaseBytes(sizes.control_message);
        cluster.machine(src).ReceiveBytes(sizes.control_message);
        cluster.machine(src).ChargePhaseBytes(sizes.gather_message);
        cluster.machine(master).ReceiveBytes(sizes.gather_message);
        cluster.machine(src).AddTicks(sim::kSerializeTicks);
        if (observed) {
          breakdown.apply_ticks += sim::kSerializeTicks;
          breakdown.apply_bytes +=
              sizes.control_message + sizes.gather_message;
        }
      }

      // State synchronization: master -> mirrors (only when state changed;
      // for always-signaling apps like PageRank this is every superstep).
      if (signal) {
        uint64_t sync_mask = 0;
        switch (kind) {
          case EngineKind::kPowerGraphSync:
            sync_mask = masks.replicas[v] & ~master_bit;
            break;
          case EngineKind::kPowerLyraHybrid:
            sync_mask = low_degree
                            ? internal::DirectionMask(
                                  masks, App::kScatterDir, v) &
                                  ~master_bit
                            : masks.replicas[v] & ~master_bit;
            break;
          case EngineKind::kGraphXPregel:
            sync_mask = internal::DirectionMask(masks, App::kScatterDir, v) &
                        ~master_bit;
            break;
        }
        uint64_t sm = sync_mask;
        while (sm != 0) {
          sim::MachineId dst =
              static_cast<sim::MachineId>(std::countr_zero(sm));
          sm &= sm - 1;
          cluster.machine(master).ChargePhaseBytes(sizes.sync_message);
          cluster.machine(dst).ReceiveBytes(sizes.sync_message);
          cluster.machine(master).AddTicks(sim::kSerializeTicks);
          if (observed) {
            breakdown.apply_ticks += sim::kSerializeTicks;
            breakdown.apply_bytes += sizes.sync_message;
          }
        }
      }
    }

    // ---- Scatter minor-step ------------------------------------------------
    std::fill(next_active.begin(), next_active.end(), false);
    if (signaled_count > 0) {
      breakdown.scatter_ticks = run_scatter(signaled, next_active);
    }

    // Three minor-step barriers per superstep (§5.1.2).
    cluster.EndPhase(work_mul);
    cluster.AdvanceSeconds(2 *
                           cluster.cost_model().barrier_latency_seconds);
    stats.cumulative_seconds.push_back(cluster.now_seconds() -
                                       compute_start);
    breakdown.signaled = signaled_count;
    observer.EndSuperstep(breakdown);
    active.swap(next_active);
  }

  observer.Finish();
  stats.iterations = iteration;
  if (!stats.converged && iteration == options.max_iterations) {
    // Ran to the iteration cap; report whether anything is still active.
    bool any_active = false;
    for (graph::VertexId v = 0; v < n; ++v) any_active |= active[v];
    stats.converged = !any_active;
  }
  stats.compute_seconds = cluster.now_seconds() - compute_start;
  stats.network_bytes = cluster.TotalBytesSent() - bytes_sent_start;
  double inbound_total = 0;
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_total += static_cast<double>(
        cluster.machine(m).bytes_received() - inbound_start[m]);
  }
  stats.mean_inbound_bytes_per_machine = inbound_total / dg.num_machines;
  return result;
}

}  // namespace gdp::engine

#endif  // GDP_ENGINE_REFERENCE_ENGINE_H_
