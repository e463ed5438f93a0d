#include "engine/async_coloring.h"

#include <algorithm>
#include <bit>

#include "engine/engine_obs.h"
#include "engine/plan.h"

namespace gdp::engine {

AsyncColoringResult RunAsyncColoring(const partition::DistributedGraph& dg,
                                     sim::Cluster& cluster,
                                     const RunOptions& options) {
  const graph::VertexId n = dg.num_vertices;
  const sim::ObjectSizes sizes;

  // Observability sinks: one span per round, as in RunAsyncGasEngine.
  SuperstepObserver observer(options.exec, cluster, "AsyncColoring");
  const bool observed = observer.enabled();

  // Symmetric adjacency: a kBoth gather CSR lists every neighbor in either
  // direction, and a vertex wakes the same neighbors it reads.
  const ExecutionPlan plan =
      ExecutionPlan::Build(dg, EdgeDirection::kBoth, EdgeDirection::kNone,
                           /*graphx_counts=*/false, options.exec.num_threads);
  const internal::MachineMasks& masks = plan.masks;
  const std::vector<uint64_t>& offsets = plan.gather_offsets;
  const std::vector<graph::VertexId>& adjacency = plan.gather_nbr;

  AsyncColoringResult result;
  result.colors.assign(n, 0);
  std::vector<uint32_t>& color = result.colors;
  // Remote readers see the color committed at the end of the previous
  // round; local readers see the live value.
  std::vector<uint32_t> committed(n, 0);

  std::vector<bool> active(n, false);
  for (graph::VertexId v = 0; v < n; ++v) active[v] = dg.present[v];
  std::vector<bool> next_active(n, false);

  const double start = cluster.now_seconds();
  uint64_t bytes_start = cluster.TotalBytesSent();
  std::vector<uint64_t> inbound_start(dg.num_machines);
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_start[m] = cluster.machine(m).bytes_received();
  }

  std::vector<uint32_t> used;  // scratch for smallest-free-color
  uint32_t round = 0;
  for (; round < options.max_iterations; ++round) {
    uint64_t active_count = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (active[v]) ++active_count;
    }
    result.stats.active_counts.push_back(active_count);
    if (active_count == 0) {
      result.stats.converged = true;
      break;
    }
    observer.BeginSuperstep(round);
    SuperstepBreakdown breakdown;
    breakdown.frontier = active_count;
    std::fill(next_active.begin(), next_active.end(), false);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      sim::MachineId home = masks.master_machine[v];
      used.clear();
      bool conflict = false;
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        graph::VertexId u = adjacency[i];
        bool remote = masks.master_machine[u] != home;
        uint32_t seen = remote ? committed[u] : color[u];
        used.push_back(seen);
        if (seen == color[v] && u < v) conflict = true;
        if (remote) {
          // Pulling a remote neighbor's cached mirror value.
          cluster.machine(home).AddTicks(sim::kSerializeTicks);
          if (observed) breakdown.gather_ticks += sim::kSerializeTicks;
        }
      }
      cluster.machine(home).AddTicks(sim::kTicksPerWorkUnit *
                                     (1 + offsets[v + 1] - offsets[v]));
      if (observed) {
        // One unit per neighbor read, one for the vertex itself.
        breakdown.gather_ticks +=
            sim::kTicksPerWorkUnit * (offsets[v + 1] - offsets[v]);
        breakdown.apply_ticks += sim::kTicksPerWorkUnit;
      }
      if (!conflict) continue;
      std::sort(used.begin(), used.end());
      uint32_t candidate = 0;
      for (uint32_t c : used) {
        if (c == candidate) {
          ++candidate;
        } else if (c > candidate) {
          break;
        }
      }
      color[v] = candidate;
      if (observed) ++breakdown.signaled;
      // Push the new color to every mirror machine and wake neighbors.
      uint64_t mask = masks.replicas[v] & ~(1ULL << home);
      while (mask != 0) {
        sim::MachineId m =
            static_cast<sim::MachineId>(std::countr_zero(mask));
        mask &= mask - 1;
        cluster.machine(home).ChargePhaseBytes(sizes.sync_message);
        cluster.machine(m).ReceiveBytes(sizes.sync_message);
        if (observed) breakdown.apply_bytes += sizes.sync_message;
      }
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        next_active[adjacency[i]] = true;
      }
    }
    committed = color;
    cluster.EndPhaseAsync();
    result.stats.cumulative_seconds.push_back(cluster.now_seconds() - start);
    observer.EndSuperstep(breakdown);
    active.swap(next_active);
  }

  observer.Finish();
  result.stats.iterations = round;
  result.stats.compute_seconds = cluster.now_seconds() - start;
  result.stats.network_bytes = cluster.TotalBytesSent() - bytes_start;
  double inbound_total = 0;
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_total += static_cast<double>(
        cluster.machine(m).bytes_received() - inbound_start[m]);
  }
  result.stats.mean_inbound_bytes_per_machine =
      inbound_total / dg.num_machines;
  return result;
}

}  // namespace gdp::engine
