#include "engine/plan.h"

#include <numeric>

#include "partition/validate.h"
#include "util/cache_line.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gdp::engine {

namespace internal {

namespace {

/// Fills the masks of vertices [begin, end). The arrays are already sized
/// to the graph and zeroed, which is what an absent vertex keeps.
void FillMasks(const partition::DistributedGraph& dg, graph::VertexId begin,
               graph::VertexId end, MachineMasks* masks) {
  for (graph::VertexId v = begin; v < end; ++v) {
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
    masks->replicas[v] = replica_mask;
    masks->in_edges[v] = in_mask;
    masks->out_edges[v] = out_mask;
    masks->master_machine[v] = dg.master[v] % dg.num_machines;
  }
}

MachineMasks ZeroMasks(graph::VertexId n) {
  MachineMasks masks;
  masks.replicas.assign(n, 0);
  masks.in_edges.assign(n, 0);
  masks.out_edges.assign(n, 0);
  masks.master_machine.assign(n, 0);
  return masks;
}

}  // namespace

MachineMasks MachineMasks::Build(const partition::DistributedGraph& dg) {
  MachineMasks masks = ZeroMasks(dg.num_vertices);
  FillMasks(dg, 0, dg.num_vertices, &masks);
  return masks;
}

namespace {

/// Calls emit(run) for every packed (machine, count) run of one center's
/// entries [begin, end) of a CSR, ascending by machine. Counts are whole
/// adjacency events (the engine charges sim::kTicksPerWorkUnit ticks per
/// event), and integer accounting is order-free, so this regrouping cannot
/// change any flushed cost. `counts` holds one zero per machine on entry
/// and again on return.
template <typename Emit>
void ForEachRun(const std::vector<uint8_t>& tags, uint64_t begin,
                uint64_t end, uint32_t num_machines, uint64_t* counts,
                Emit emit) {
  for (uint64_t s = begin; s < end; ++s) ++counts[tags[s]];
  for (uint32_t m = 0; m < num_machines; ++m) {
    uint64_t count = counts[m];
    counts[m] = 0;
    while (count > 0) {
      const uint32_t chunk = static_cast<uint32_t>(
          count < ExecutionPlan::kRunCountMask ? count
                                               : ExecutionPlan::kRunCountMask);
      emit((m << ExecutionPlan::kRunCountBits) | chunk);
      count -= chunk;
    }
  }
}

/// Stores the number of runs of each center v in [begin, end) at
/// run_offsets[v + 1]; a prefix sum then turns the counts into offsets.
void CountRuns(const std::vector<uint64_t>& offsets,
               const std::vector<uint8_t>& tags, graph::VertexId begin,
               graph::VertexId end, uint32_t num_machines, uint64_t* counts,
               std::vector<uint64_t>* run_offsets) {
  for (graph::VertexId v = begin; v < end; ++v) {
    uint64_t runs = 0;
    ForEachRun(tags, offsets[v], offsets[v + 1], num_machines, counts,
               [&](uint32_t) { ++runs; });
    (*run_offsets)[v + 1] = runs;
  }
}

/// Writes the runs of each center v in [begin, end) at run_offsets[v].
void FillRuns(const std::vector<uint64_t>& offsets,
              const std::vector<uint8_t>& tags,
              const std::vector<uint64_t>& run_offsets, graph::VertexId begin,
              graph::VertexId end, uint32_t num_machines, uint64_t* counts,
              std::vector<uint32_t>* runs) {
  for (graph::VertexId v = begin; v < end; ++v) {
    uint32_t* out = runs->data() + run_offsets[v];
    ForEachRun(tags, offsets[v], offsets[v + 1], num_machines, counts,
               [&](uint32_t run) { *out++ = run; });
  }
}

/// Cuts [0, n) into `stripes` contiguous ranges of about equal gather plus
/// scatter entries; stripe s is [cuts[s], cuts[s + 1]). `scatter_offsets`
/// is empty for a plan that shares its CSR, whose lanes fill one side only.
/// A center holding more than one stripe's share leaves the stripes behind
/// it empty.
std::vector<graph::VertexId> CutStripes(
    const std::vector<uint64_t>& gather_offsets,
    const std::vector<uint64_t>& scatter_offsets, uint32_t stripes) {
  const auto n = static_cast<graph::VertexId>(gather_offsets.size() - 1);
  auto entries_before = [&](graph::VertexId v) {
    return gather_offsets[v] +
           (scatter_offsets.empty() ? 0 : scatter_offsets[v]);
  };
  const uint64_t total = entries_before(n);
  std::vector<graph::VertexId> cuts(stripes + 1, n);
  cuts[0] = 0;
  graph::VertexId v = 0;
  for (uint32_t s = 1; s < stripes; ++s) {
    // total * s / stripes, without the overflow.
    const uint64_t target =
        total / stripes * s + total % stripes * s / stripes;
    while (v < n && entries_before(v) < target) ++v;
    cuts[s] = v;
  }
  return cuts;
}

}  // namespace

}  // namespace internal

uint64_t ExecutionPlan::AdjacencyBytes() const {
  return (gather_nbr.size() + scatter_target_.size()) *
         sizeof(graph::VertexId);
}

ExecutionPlan ExecutionPlan::Build(const partition::DistributedGraph& dg,
                                   EdgeDirection gather_dir,
                                   EdgeDirection scatter_dir,
                                   bool graphx_counts,
                                   uint32_t num_threads) {
  GDP_CHECK_LE(dg.num_machines, 64u);
  ExecutionPlan plan;
  plan.dg = &dg;
  plan.gather_dir = gather_dir;
  plan.scatter_dir = scatter_dir;

  const graph::VertexId n = dg.num_vertices;
  const uint64_t num_edges = dg.edges.size();
  const std::vector<uint64_t>& out_deg = dg.out_degree;
  const std::vector<uint64_t>& in_deg = dg.in_degree;
  GDP_CHECK_EQ(out_deg.size(), n);
  GDP_CHECK_EQ(in_deg.size(), n);

  const bool gather_in = IncludesIn(gather_dir);
  const bool gather_out = IncludesOut(gather_dir);
  // A plan that shares its CSR fills the gather side only.
  const bool own_scatter = !plan.SharesCsr();
  const bool scatter_in = own_scatter && IncludesIn(scatter_dir);
  const bool scatter_out = own_scatter && IncludesOut(scatter_dir);

  // CSR sizing. A center's gather entry count is gi * in_degree +
  // go * out_degree (and symmetrically for scatter) — the degree arrays
  // already hold the per-direction histogram, so the old per-edge counting
  // scan collapses to a branch-free multiply-add sweep over vertices.
  const uint64_t gi = gather_in ? 1 : 0;
  const uint64_t go = gather_out ? 1 : 0;
  const uint64_t si = scatter_in ? 1 : 0;
  const uint64_t so = scatter_out ? 1 : 0;
  plan.gather_offsets.assign(n + 1, 0);
  for (graph::VertexId v = 0; v < n; ++v) {
    plan.gather_offsets[v + 1] =
        plan.gather_offsets[v] + gi * in_deg[v] + go * out_deg[v];
  }
  if (own_scatter) {
    plan.scatter_offsets_.assign(n + 1, 0);
    for (graph::VertexId v = 0; v < n; ++v) {
      plan.scatter_offsets_[v + 1] =
          plan.scatter_offsets_[v] + si * in_deg[v] + so * out_deg[v];
    }
  }
  const uint64_t scatter_entries = own_scatter ? plan.scatter_offsets_[n] : 0;
  plan.gather_nbr.resize(plan.gather_offsets[n]);
  plan.scatter_target_.resize(scatter_entries);
  // Per-entry machine tags, slot-aligned with the neighbor arrays. They
  // only feed the accounting run tables below and die with this frame.
  std::vector<uint8_t> gather_tags(plan.gather_offsets[n]);
  std::vector<uint8_t> scatter_tags(scatter_entries);

  plan.masks = internal::ZeroMasks(n);
  if (graphx_counts) {
    plan.gather_partition_count.assign(n, 0);
    if (own_scatter) plan.scatter_partition_count_.assign(n, 0);
  }
  plan.gather_run_offsets.assign(n + 1, 0);
  if (own_scatter) plan.scatter_run_offsets_.assign(n + 1, 0);

  // One contiguous stripe of centers per lane. A lane writes only its own
  // centers' slots, so no write is shared, and the plan does not depend on
  // the lane count at all.
  util::ThreadPool pool(num_threads);
  const uint32_t lanes = pool.num_threads();
  const std::vector<graph::VertexId> cuts =
      internal::CutStripes(plan.gather_offsets, plan.scatter_offsets_, lanes);

  // Every buffer is allocated here, on the calling thread; the lanes only
  // write into it. Each center's next free slot starts at its offset. Each
  // stripe's run counts start on a line boundary and span whole lines, so
  // no two stripes write a shared line.
  const uint32_t num_machines = dg.num_machines;
  constexpr uint64_t kCountsPerLine = util::kCacheLineBytes / sizeof(uint64_t);
  const uint64_t counts_stride =
      (num_machines + kCountsPerLine - 1) / kCountsPerLine * kCountsPerLine;
  util::LineVector<uint64_t> counts(lanes * counts_stride, 0);
  std::vector<uint64_t> gather_cursor(plan.gather_offsets.begin(),
                                      plan.gather_offsets.end() - 1);
  std::vector<uint64_t> scatter_cursor;
  if (own_scatter) {
    scatter_cursor.assign(plan.scatter_offsets_.begin(),
                          plan.scatter_offsets_.end() - 1);
  }
  pool.ParallelFor(lanes, [&](uint64_t stripe, uint32_t /*lane*/) {
    const graph::VertexId lo = cuts[stripe];
    const graph::VertexId hi = cuts[stripe + 1];
    if (lo == hi) return;
    internal::FillMasks(dg, lo, hi, &plan.masks);
    if (graphx_counts) {
      for (graph::VertexId v = lo; v < hi; ++v) {
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
        if (own_scatter) {
          plan.scatter_partition_count_[v] =
              static_cast<uint16_t>(scatter > 65535 ? 65535 : scatter);
        }
      }
    }

    // Fill pass in ORIGINAL edge order, with the in-direction (dst-center)
    // entry of an edge appended before its out-direction (src-center)
    // entry. This matches the serial engine's edge scan, which handles
    // gather_dst before gather_src within each edge — required for
    // bit-identical floating-point gather folds (see the struct comment).
    // Every lane reads every edge and keeps those with an endpoint in its
    // stripe, so each center's entries keep that order at any lane count.
    const graph::VertexId width = hi - lo;
    for (uint64_t i = 0; i < num_edges; ++i) {
      const graph::Edge e = dg.edges[i];
      // Unsigned, so an endpoint below the stripe wraps past its width.
      const bool src_here = e.src - lo < width;
      const bool dst_here = e.dst - lo < width;
      if (!src_here && !dst_here) continue;
      const auto m = static_cast<uint8_t>(dg.edge_partition[i] % num_machines);
      if (gather_in && dst_here) {
        const uint64_t slot = gather_cursor[e.dst]++;
        plan.gather_nbr[slot] = e.src;
        gather_tags[slot] = m;
      }
      if (gather_out && src_here) {
        const uint64_t slot = gather_cursor[e.src]++;
        plan.gather_nbr[slot] = e.dst;
        gather_tags[slot] = m;
      }
      if (scatter_out && src_here) {
        const uint64_t slot = scatter_cursor[e.src]++;
        plan.scatter_target_[slot] = e.dst;
        scatter_tags[slot] = m;
      }
      if (scatter_in && dst_here) {
        const uint64_t slot = scatter_cursor[e.dst]++;
        plan.scatter_target_[slot] = e.src;
        scatter_tags[slot] = m;
      }
    }

    uint64_t* stripe_counts = counts.data() + stripe * counts_stride;
    internal::CountRuns(plan.gather_offsets, gather_tags, lo, hi,
                        num_machines, stripe_counts, &plan.gather_run_offsets);
    if (own_scatter) {
      internal::CountRuns(plan.scatter_offsets_, scatter_tags, lo, hi,
                          num_machines, stripe_counts,
                          &plan.scatter_run_offsets_);
    }
  });
  // The cursors now sit at the next center's offset; free them before the
  // run tables grow.
  std::vector<uint64_t>().swap(gather_cursor);
  std::vector<uint64_t>().swap(scatter_cursor);

  // Run tables at their exact size: counted above, offset here, filled in
  // place below.
  std::partial_sum(plan.gather_run_offsets.begin(),
                   plan.gather_run_offsets.end(),
                   plan.gather_run_offsets.begin());
  plan.gather_runs.resize(plan.gather_run_offsets[n]);
  if (own_scatter) {
    std::partial_sum(plan.scatter_run_offsets_.begin(),
                     plan.scatter_run_offsets_.end(),
                     plan.scatter_run_offsets_.begin());
    plan.scatter_runs_.resize(plan.scatter_run_offsets_[n]);
  }
  pool.ParallelFor(lanes, [&](uint64_t stripe, uint32_t /*lane*/) {
    const graph::VertexId lo = cuts[stripe];
    const graph::VertexId hi = cuts[stripe + 1];
    uint64_t* stripe_counts = counts.data() + stripe * counts_stride;
    internal::FillRuns(plan.gather_offsets, gather_tags,
                       plan.gather_run_offsets, lo, hi, num_machines,
                       stripe_counts, &plan.gather_runs);
    if (own_scatter) {
      internal::FillRuns(plan.scatter_offsets_, scatter_tags,
                         plan.scatter_run_offsets_, lo, hi, num_machines,
                         stripe_counts, &plan.scatter_runs_);
    }
  });

  GDP_DCHECK_OK(partition::ValidateCsr(plan.gather_offsets, plan.gather_nbr));
  if (own_scatter) {
    GDP_DCHECK_OK(
        partition::ValidateCsr(plan.scatter_offsets_, plan.scatter_target_));
  }
  return plan;
}

}  // namespace gdp::engine
