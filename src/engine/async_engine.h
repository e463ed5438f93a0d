#ifndef GDP_ENGINE_ASYNC_ENGINE_H_
#define GDP_ENGINE_ASYNC_ENGINE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "engine/engine_obs.h"
#include "engine/gas_app.h"
#include "engine/gas_engine.h"
#include "engine/run_stats.h"
#include "partition/distributed_graph.h"
#include "sim/cluster.h"
#include "util/check.h"

namespace gdp::engine {

/// Generic asynchronous GAS engine (PowerGraph's async mode, §5.1.2:
/// "When run asynchronously, these barriers are absent"). Differences from
/// RunGasEngine's bulk-synchronous loop:
///
///  - no barriers: the cluster clock advances by the *mean* machine time
///    per round instead of the max, so stragglers do not stall the others;
///  - stale remote reads: a gather sees the freshest value for
///    same-machine neighbors but the previous round's committed value for
///    remote ones (mirror caches), so information propagates more slowly
///    across machine boundaries and runs typically need more rounds;
///  - processing order: within a round, vertices apply in id order, and
///    later vertices on the same machine see earlier ones' fresh values
///    (chaotic relaxation).
///
/// For monotone applications (SSSP, WCC, K-Core stages) the fixpoint is
/// unique, so results equal the synchronous engine's exactly; PageRank
/// converges to the same fixpoint within its tolerance. The paper's
/// observed async pathologies (hangs/failures on Coloring) are
/// nondeterministic scheduler artifacts we do not reproduce (DESIGN.md).
template <GasApplication App>
GasRunResult<App> RunAsyncGasEngine(const partition::DistributedGraph& dg,
                                    sim::Cluster& cluster, App app,
                                    const RunOptions& options = {}) {
  using State = typename App::State;
  using Gather = typename App::Gather;

  GDP_CHECK_EQ(cluster.num_machines(), dg.num_machines);
  GDP_CHECK_LE(dg.num_machines, 64u);
  const graph::VertexId n = dg.num_vertices;
  const sim::ObjectSizes sizes;

  // Observability sinks; the observer owns the old per-round timeline
  // sample. One span per async round (the engine has no minor-step
  // barriers, so gather/apply/scatter totals are per-round sums).
  const obs::ExecContext& exec = options.exec;
  SuperstepObserver observer(exec, cluster, "AsyncGAS");
  const bool observed = observer.enabled();

  // Degrees: use the graph's ingest-time cache when present, otherwise
  // compute a local fallback (hand-assembled graphs).
  std::vector<uint64_t> fallback_out_degree;
  std::vector<uint64_t> fallback_in_degree;
  if (!dg.HasDegreeCache()) {
    fallback_out_degree.assign(n, 0);
    fallback_in_degree.assign(n, 0);
    for (const graph::Edge& e : dg.edges) {
      ++fallback_out_degree[e.src];
      ++fallback_in_degree[e.dst];
    }
  }
  const std::vector<uint64_t>& out_degree =
      dg.HasDegreeCache() ? dg.out_degree : fallback_out_degree;
  const std::vector<uint64_t>& in_degree =
      dg.HasDegreeCache() ? dg.in_degree : fallback_in_degree;
  AppContext ctx{&out_degree, &in_degree};
  internal::MachineMasks masks = internal::MachineMasks::Build(dg);

  // Direction-specific adjacency in CSR form (gather needs neighbor
  // lookups by center, which the edge list alone cannot give us cheaply
  // in id order).
  auto build_csr = [&](bool incoming, std::vector<uint64_t>& offsets,
                       std::vector<graph::VertexId>& adjacency) {
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    for (const graph::Edge& e : dg.edges) {
      ++offsets[(incoming ? e.dst : e.src) + 1];
    }
    for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
    adjacency.resize(dg.edges.size());
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const graph::Edge& e : dg.edges) {
      graph::VertexId key = incoming ? e.dst : e.src;
      adjacency[cursor[key]++] = incoming ? e.src : e.dst;
    }
  };
  std::vector<uint64_t> in_offsets, out_offsets;
  std::vector<graph::VertexId> in_adjacency, out_adjacency;
  if (IncludesIn(App::kGatherDir) || IncludesIn(App::kScatterDir)) {
    build_csr(true, in_offsets, in_adjacency);
  }
  if (IncludesOut(App::kGatherDir) || IncludesOut(App::kScatterDir)) {
    build_csr(false, out_offsets, out_adjacency);
  }

  GasRunResult<App> result;
  RunStats& stats = result.stats;
  std::vector<State>& state = result.states;
  state.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    state.push_back(app.InitState(v, ctx));
  }
  std::vector<State> committed = state;  // remote-visible snapshot

  std::vector<bool> active(n, false);
  for (graph::VertexId v = 0; v < n; ++v) {
    active[v] = dg.present[v] && app.InitiallyActive(v);
  }
  std::vector<bool> next_active(n, false);

  // Bootstrap: initially active vertices wake their scatter neighbors
  // (message-driven apps like SSSP need the source to announce itself).
  if (App::kBootstrapScatter) {
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      next_active[v] = true;  // async: the source itself retries too
      if (IncludesOut(App::kScatterDir)) {
        for (uint64_t i = out_offsets[v]; i < out_offsets[v + 1]; ++i) {
          next_active[out_adjacency[i]] = true;
        }
      }
      if (IncludesIn(App::kScatterDir)) {
        for (uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
          next_active[in_adjacency[i]] = true;
        }
      }
    }
    active.swap(next_active);
    std::fill(next_active.begin(), next_active.end(), false);
  }

  const double start = cluster.now_seconds();
  uint64_t bytes_start = cluster.TotalBytesSent();
  std::vector<uint64_t> inbound_start(dg.num_machines);
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_start[m] = cluster.machine(m).bytes_received();
  }

  uint32_t round = 0;
  for (; round < options.max_iterations; ++round) {
    uint64_t active_count = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (active[v]) ++active_count;
    }
    stats.active_counts.push_back(active_count);
    if (active_count == 0) {
      stats.converged = true;
      break;
    }
    observer.BeginSuperstep(round);
    SuperstepBreakdown breakdown;
    breakdown.frontier = active_count;

    for (graph::VertexId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      sim::MachineId home = masks.master_machine[v];
      Gather acc = app.GatherInit();
      bool has_gather = false;
      auto gather_from = [&](graph::VertexId u) {
        bool remote = masks.master_machine[u] != home;
        const State& seen = remote ? committed[u] : state[u];
        app.GatherEdge(v, u, seen, ctx, &acc);
        has_gather = true;
        // A remote read also pays one mirror-cache serialization.
        const uint64_t ticks =
            sim::kTicksPerWorkUnit + (remote ? sim::kSerializeTicks : 0);
        cluster.machine(home).AddTicks(ticks);
        if (observed) breakdown.gather_ticks += ticks;
      };
      if (IncludesIn(App::kGatherDir)) {
        for (uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
          gather_from(in_adjacency[i]);
        }
      }
      if (IncludesOut(App::kGatherDir)) {
        for (uint64_t i = out_offsets[v]; i < out_offsets[v + 1]; ++i) {
          gather_from(out_adjacency[i]);
        }
      }
      cluster.machine(home).AddTicks(sim::kTicksPerWorkUnit);  // apply
      if (observed) breakdown.apply_ticks += sim::kTicksPerWorkUnit;
      bool signal = app.Apply(v, acc, has_gather, ctx, &state[v]);
      if (!signal) continue;
      if (observed) ++breakdown.signaled;

      // Push the fresh value to the vertex's mirror machines.
      uint64_t mask = masks.replicas[v] & ~(1ULL << home);
      while (mask != 0) {
        sim::MachineId m =
            static_cast<sim::MachineId>(std::countr_zero(mask));
        mask &= mask - 1;
        cluster.machine(home).ChargePhaseBytes(sizes.sync_message);
        cluster.machine(m).ReceiveBytes(sizes.sync_message);
        if (observed) breakdown.apply_bytes += sizes.sync_message;
      }
      // Wake the scatter neighborhood. Chaotic relaxation: a SAME-MACHINE
      // neighbor the sweep has not reached yet (higher id) is processed in
      // THIS round and sees the fresh value. Remote neighbors must wait
      // for the next round — their mirror caches only refresh at round
      // boundaries, so waking them now would have them read the stale
      // committed value and lose the update.
      auto wake = [&](graph::VertexId w) {
        if (w > v && masks.master_machine[w] == home) {
          active[w] = true;
        } else {
          next_active[w] = true;
        }
        cluster.machine(home).AddTicks(sim::kTicksPerWorkUnit);
        if (observed) breakdown.scatter_ticks += sim::kTicksPerWorkUnit;
      };
      if (IncludesOut(App::kScatterDir)) {
        for (uint64_t i = out_offsets[v]; i < out_offsets[v + 1]; ++i) {
          wake(out_adjacency[i]);
        }
      }
      if (IncludesIn(App::kScatterDir)) {
        for (uint64_t i = in_offsets[v]; i < in_offsets[v + 1]; ++i) {
          wake(in_adjacency[i]);
        }
      }
    }

    committed = state;
    cluster.EndPhaseAsync(options.work_multiplier);
    stats.cumulative_seconds.push_back(cluster.now_seconds() - start);
    observer.EndSuperstep(breakdown);
    std::fill(active.begin(), active.end(), false);
    active.swap(next_active);
  }

  observer.Finish();
  stats.iterations = round;
  stats.compute_seconds = cluster.now_seconds() - start;
  stats.network_bytes = cluster.TotalBytesSent() - bytes_start;
  double inbound_total = 0;
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_total += static_cast<double>(
        cluster.machine(m).bytes_received() - inbound_start[m]);
  }
  stats.mean_inbound_bytes_per_machine = inbound_total / dg.num_machines;
  return result;
}

}  // namespace gdp::engine

#endif  // GDP_ENGINE_ASYNC_ENGINE_H_
