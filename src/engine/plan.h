#ifndef GDP_ENGINE_PLAN_H_
#define GDP_ENGINE_PLAN_H_

#include <cstdint>
#include <vector>

#include "engine/gas_app.h"
#include "partition/distributed_graph.h"
#include "sim/cluster.h"
#include "util/check.h"

namespace gdp::engine {

namespace internal {

/// Per-vertex placement data folded down to machine bitmasks (<= 64
/// machines), precomputed once per plan: message counting then reduces to
/// popcounts.
struct MachineMasks {
  std::vector<uint64_t> replicas;
  std::vector<uint64_t> in_edges;
  std::vector<uint64_t> out_edges;
  std::vector<sim::MachineId> master_machine;

  static MachineMasks Build(const partition::DistributedGraph& dg);
};

/// Gather/scatter-direction machine mask for vertex v.
inline uint64_t DirectionMask(const MachineMasks& masks, EdgeDirection dir,
                              graph::VertexId v) {
  uint64_t m = 0;
  if (IncludesIn(dir)) m |= masks.in_edges[v];
  if (IncludesOut(dir)) m |= masks.out_edges[v];
  return m;
}

}  // namespace internal

/// Everything the superstep loop needs that is a pure function of the
/// partitioned graph and the application's edge directions, precomputed
/// once instead of per-run/per-superstep:
///
///  - per-direction CSR adjacency over the partitioned edges, so
///    gather/scatter traverse only the frontier's adjacency instead of
///    scanning the whole edge vector;
///  - per-vertex (machine, count) accounting runs, so charging a center's
///    simulated work is one multiply per distinct machine instead of one
///    accumulator call per edge (integer sums are order-free, which is why
///    regrouping by machine cannot change any flushed cost);
///  - cached degrees (reusing partition::DistributedGraph's cache when the
///    builder filled it);
///  - the placement bitmasks (MachineMasks) message counting runs on;
///  - GraphX's per-partition fan-out counts (shuffle-block accounting).
///
/// A plan borrows the DistributedGraph: the graph must outlive it. Plans
/// are immutable after Build, so one plan can back any number of engine
/// runs (and is read concurrently by engine worker threads).
///
/// Determinism note (load-bearing): gather adjacency entries for one center
/// are stored in *original edge order*, with the in-direction entry of an
/// edge preceding its out-direction entry. The restriction of the serial
/// engine's global edge scan to one center's edges is exactly this order,
/// so folding a center's neighbors through the CSR reproduces the serial
/// engine's floating-point gather results bit-for-bit.
struct ExecutionPlan {
  const partition::DistributedGraph* dg = nullptr;
  EdgeDirection gather_dir = EdgeDirection::kNone;
  EdgeDirection scatter_dir = EdgeDirection::kNone;

  internal::MachineMasks masks;

  /// Gather adjacency offsets: center v owns entries [gather_offsets[v],
  /// gather_offsets[v+1]) of gather_nbr.
  std::vector<uint64_t> gather_offsets;
  /// Neighbor whose state v folds, per entry.
  std::vector<graph::VertexId> gather_nbr;

  /// Scatter adjacency offsets (same contract as gather_offsets).
  std::vector<uint64_t> scatter_offsets;
  /// Neighbor woken into the next frontier, per entry.
  std::vector<graph::VertexId> scatter_target;

  // --- Batch-accounting run tables -----------------------------------------
  // For center v, entries [gather_run_offsets[v], gather_run_offsets[v+1])
  // of gather_runs are packed (machine, count) pairs in ascending machine
  // order: v's adjacency charges `count` whole work units
  // (sim::kTicksPerWorkUnit ticks each) to `machine`. Ticks are integers
  // and integer sums are order-free, so folding a vertex's per-edge charges
  // into per-machine counts is bit-identical to charging them one edge at
  // a time. At most num_machines runs per vertex.
  std::vector<uint64_t> gather_run_offsets;
  std::vector<uint32_t> gather_runs;
  std::vector<uint64_t> scatter_run_offsets;
  std::vector<uint32_t> scatter_runs;

  /// Packed-run format: machine in the high 6 bits, count in the low 26.
  static constexpr uint32_t kRunCountBits = 26;
  static constexpr uint32_t kRunCountMask = (1u << kRunCountBits) - 1;
  static constexpr uint8_t RunMachine(uint32_t run) {
    return static_cast<uint8_t>(run >> kRunCountBits);
  }
  static constexpr uint32_t RunCount(uint32_t run) {
    return run & kRunCountMask;
  }

  /// GraphX-only per-PARTITION fan-out counts (empty otherwise): Spark
  /// materializes one shuffle block per (vertex, edge-partition) pair, so
  /// its compute cost tracks partition-level replication even when
  /// partitions share machines (§7.4).
  std::vector<uint16_t> gather_partition_count;
  std::vector<uint16_t> scatter_partition_count;

  /// Bytes held by the per-entry neighbor arrays (gather_nbr,
  /// scatter_target): what PlanCache's byte budget charges per plan.
  /// The per-vertex structures (offsets, runs, masks) are not counted.
  uint64_t AdjacencyBytes() const;

  /// Degrees for the application context: dg's ingest-time cache when it
  /// was built, otherwise the plan's own fallback copy.
  const std::vector<uint64_t>& out_degrees() const {
    return owned_out_degree_.empty() && dg->HasDegreeCache()
               ? dg->out_degree
               : owned_out_degree_;
  }
  const std::vector<uint64_t>& in_degrees() const {
    return owned_in_degree_.empty() && dg->HasDegreeCache()
               ? dg->in_degree
               : owned_in_degree_;
  }

  /// Builds a plan for the given directions. `graphx_counts` additionally
  /// builds the per-partition fan-out tables (EngineKind::kGraphXPregel).
  static ExecutionPlan Build(const partition::DistributedGraph& dg,
                             EdgeDirection gather_dir,
                             EdgeDirection scatter_dir, bool graphx_counts);

 private:
  // Fallback degree storage when dg lacks the cache (hand-built graphs).
  std::vector<uint64_t> owned_out_degree_;
  std::vector<uint64_t> owned_in_degree_;
};

}  // namespace gdp::engine

#endif  // GDP_ENGINE_PLAN_H_
