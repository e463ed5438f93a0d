#include "engine/plan.h"

#include "util/check.h"

namespace gdp::engine {

namespace internal {

MachineMasks MachineMasks::Build(const partition::DistributedGraph& dg) {
  MachineMasks masks;
  const graph::VertexId n = dg.num_vertices;
  masks.replicas.assign(n, 0);
  masks.in_edges.assign(n, 0);
  masks.out_edges.assign(n, 0);
  masks.master_machine.assign(n, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (!dg.present[v]) continue;
    uint64_t replica_mask = 0;
    dg.replicas.ForEach(v, [&](sim::MachineId p) {
      replica_mask |= 1ULL << (p % dg.num_machines);
    });
    uint64_t in_mask = 0;
    dg.in_edge_partitions.ForEach(v, [&](sim::MachineId p) {
      in_mask |= 1ULL << (p % dg.num_machines);
    });
    uint64_t out_mask = 0;
    dg.out_edge_partitions.ForEach(v, [&](sim::MachineId p) {
      out_mask |= 1ULL << (p % dg.num_machines);
    });
    masks.replicas[v] = replica_mask;
    masks.in_edges[v] = in_mask;
    masks.out_edges[v] = out_mask;
    masks.master_machine[v] = dg.master[v] % dg.num_machines;
  }
  return masks;
}

namespace {

/// Folds a CSR's per-entry machine tags into per-vertex (machine, count)
/// runs, ascending by machine. Counts are whole adjacency events (the
/// engine charges sim::kTicksPerWorkUnit ticks per event), and integer
/// accounting is order-free, so this regrouping cannot change any flushed
/// cost.
void BuildAccountingRuns(const std::vector<uint64_t>& offsets,
                         const std::vector<uint8_t>& machines,
                         uint32_t num_machines,
                         std::vector<uint64_t>* run_offsets,
                         std::vector<uint32_t>* runs) {
  const size_t n = offsets.size() - 1;
  run_offsets->assign(n + 1, 0);
  runs->clear();
  runs->reserve(n);  // >= 1 run per non-isolated vertex
  std::vector<uint64_t> counts(num_machines == 0 ? 1 : num_machines, 0);
  for (size_t v = 0; v < n; ++v) {
    for (uint64_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      ++counts[machines[s]];
    }
    for (uint32_t m = 0; m < counts.size(); ++m) {
      uint64_t count = counts[m];
      counts[m] = 0;
      while (count > 0) {
        const uint32_t chunk = static_cast<uint32_t>(
            count < ExecutionPlan::kRunCountMask ? count
                                                 : ExecutionPlan::kRunCountMask);
        runs->push_back((m << ExecutionPlan::kRunCountBits) | chunk);
        count -= chunk;
      }
    }
    (*run_offsets)[v + 1] = runs->size();
  }
}

}  // namespace

}  // namespace internal

uint64_t ExecutionPlan::AdjacencyBytes() const {
  return (gather_nbr.size() + scatter_target.size()) *
         sizeof(graph::VertexId);
}

ExecutionPlan ExecutionPlan::Build(const partition::DistributedGraph& dg,
                                   EdgeDirection gather_dir,
                                   EdgeDirection scatter_dir,
                                   bool graphx_counts) {
  GDP_CHECK_LE(dg.num_machines, 64u);
  ExecutionPlan plan;
  plan.dg = &dg;
  plan.gather_dir = gather_dir;
  plan.scatter_dir = scatter_dir;

  const graph::VertexId n = dg.num_vertices;
  const uint64_t num_edges = dg.edges.size();

  if (!dg.HasDegreeCache()) {
    plan.owned_out_degree_.assign(n, 0);
    plan.owned_in_degree_.assign(n, 0);
    for (const graph::Edge& e : dg.edges) {
      ++plan.owned_out_degree_[e.src];
      ++plan.owned_in_degree_[e.dst];
    }
  }

  plan.masks = internal::MachineMasks::Build(dg);

  const bool gather_in = IncludesIn(gather_dir);
  const bool gather_out = IncludesOut(gather_dir);
  const bool scatter_in = IncludesIn(scatter_dir);
  const bool scatter_out = IncludesOut(scatter_dir);

  // CSR sizing. A center's gather entry count is gi * in_degree +
  // go * out_degree (and symmetrically for scatter) — the degree caches
  // already hold the per-direction histogram, so the old per-edge counting
  // scan collapses to a branch-free multiply-add sweep over vertices.
  const std::vector<uint64_t>& out_deg = plan.out_degrees();
  const std::vector<uint64_t>& in_deg = plan.in_degrees();
  const uint64_t gi = gather_in ? 1 : 0;
  const uint64_t go = gather_out ? 1 : 0;
  const uint64_t si = scatter_in ? 1 : 0;
  const uint64_t so = scatter_out ? 1 : 0;
  plan.gather_offsets.assign(n + 1, 0);
  plan.scatter_offsets.assign(n + 1, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    plan.gather_offsets[v + 1] =
        plan.gather_offsets[v] + gi * in_deg[v] + go * out_deg[v];
    plan.scatter_offsets[v + 1] =
        plan.scatter_offsets[v] + si * in_deg[v] + so * out_deg[v];
  }
  plan.gather_nbr.resize(plan.gather_offsets[n]);
  plan.scatter_target.resize(plan.scatter_offsets[n]);
  // Per-entry machine tags, slot-aligned with the neighbor arrays. They
  // only feed the accounting run tables below and die with this frame.
  std::vector<uint8_t> gather_tags(plan.gather_offsets[n]);
  std::vector<uint8_t> scatter_tags(plan.scatter_offsets[n]);

  // Fill pass in ORIGINAL edge order, with the in-direction (dst-center)
  // entry of an edge appended before its out-direction (src-center) entry.
  // This matches the serial engine's edge scan, which handles gather_dst
  // before gather_src within each edge — required for bit-identical
  // floating-point gather folds (see the struct comment).
  std::vector<uint64_t> gather_fill(n, 0);
  std::vector<uint64_t> scatter_fill(n, 0);
  for (uint64_t i = 0; i < num_edges; ++i) {
    const graph::Edge& e = dg.edges[i];
    const auto m =
        static_cast<uint8_t>(dg.edge_partition[i] % dg.num_machines);
    if (gather_in) {
      const uint64_t slot = plan.gather_offsets[e.dst] + gather_fill[e.dst]++;
      plan.gather_nbr[slot] = e.src;
      gather_tags[slot] = m;
    }
    if (gather_out) {
      const uint64_t slot = plan.gather_offsets[e.src] + gather_fill[e.src]++;
      plan.gather_nbr[slot] = e.dst;
      gather_tags[slot] = m;
    }
    if (scatter_out) {
      const uint64_t slot =
          plan.scatter_offsets[e.src] + scatter_fill[e.src]++;
      plan.scatter_target[slot] = e.dst;
      scatter_tags[slot] = m;
    }
    if (scatter_in) {
      const uint64_t slot =
          plan.scatter_offsets[e.dst] + scatter_fill[e.dst]++;
      plan.scatter_target[slot] = e.src;
      scatter_tags[slot] = m;
    }
  }

  internal::BuildAccountingRuns(plan.gather_offsets, gather_tags,
                                dg.num_machines, &plan.gather_run_offsets,
                                &plan.gather_runs);
  internal::BuildAccountingRuns(plan.scatter_offsets, scatter_tags,
                                dg.num_machines, &plan.scatter_run_offsets,
                                &plan.scatter_runs);

  if (graphx_counts) {
    plan.gather_partition_count.assign(n, 0);
    plan.scatter_partition_count.assign(n, 0);
    for (graph::VertexId v = 0; v < n; ++v) {
      if (!dg.present[v]) continue;
      uint32_t in = dg.in_edge_partitions.Count(v);
      uint32_t out = dg.out_edge_partitions.Count(v);
      uint32_t gather = 0, scatter = 0;
      if (gather_in) gather += in;
      if (gather_out) gather += out;
      if (scatter_in) scatter += in;
      if (scatter_out) scatter += out;
      plan.gather_partition_count[v] =
          static_cast<uint16_t>(gather > 65535 ? 65535 : gather);
      plan.scatter_partition_count[v] =
          static_cast<uint16_t>(scatter > 65535 ? 65535 : scatter);
    }
  }

  return plan;
}

}  // namespace gdp::engine
