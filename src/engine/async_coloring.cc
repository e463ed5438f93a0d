#include "engine/async_coloring.h"

#include <algorithm>

#include "engine/gas_engine.h"

namespace gdp::engine {

AsyncColoringResult RunAsyncColoring(const partition::DistributedGraph& dg,
                                     sim::Cluster& cluster,
                                     const RunOptions& options) {
  const graph::VertexId n = dg.num_vertices;
  const sim::ObjectSizes sizes;
  internal::MachineMasks masks = internal::MachineMasks::Build(dg);

  // Symmetric adjacency in CSR form.
  std::vector<uint64_t> offsets(static_cast<size_t>(n) + 1, 0);
  for (const graph::Edge& e : dg.edges) {
    ++offsets[e.src + 1];
    ++offsets[e.dst + 1];
  }
  for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  std::vector<graph::VertexId> adjacency(offsets.back());
  {
    std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const graph::Edge& e : dg.edges) {
      adjacency[cursor[e.src]++] = e.dst;
      adjacency[cursor[e.dst]++] = e.src;
    }
  }

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
        }
      }
      cluster.machine(home).AddTicks(sim::kTicksPerWorkUnit *
                                     (1 + offsets[v + 1] - offsets[v]));
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
      // Push the new color to every mirror machine and wake neighbors.
      uint64_t mask = masks.replicas[v] & ~(1ULL << home);
      while (mask != 0) {
        sim::MachineId m =
            static_cast<sim::MachineId>(std::countr_zero(mask));
        mask &= mask - 1;
        cluster.machine(home).ChargePhaseBytes(sizes.sync_message);
        cluster.machine(m).ReceiveBytes(sizes.sync_message);
      }
      for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
        next_active[adjacency[i]] = true;
      }
    }
    committed = color;
    cluster.EndPhaseAsync();
    result.stats.cumulative_seconds.push_back(cluster.now_seconds() - start);
    active.swap(next_active);
  }

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
