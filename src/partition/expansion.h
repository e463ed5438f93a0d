#ifndef GDP_PARTITION_EXPANSION_H_
#define GDP_PARTITION_EXPANSION_H_

#include <cstdint>
#include <vector>

#include "partition/partitioner.h"
#include "util/cache_line.h"
#include "util/dense_bitset.h"
#include "util/min_heap.h"

namespace gdp::partition {

/// Serial neighbourhood-expansion engine shared by NE, SNE, and HEP's
/// in-memory phase (Zhang et al., KDD'17: "Graph Edge Partitioning via
/// Neighborhood Heuristic"). Grows one partition at a time from a core
/// set: a min-heap over the boundary pops the vertex with the fewest
/// unassigned incident edges, every unassigned edge incident to the popped
/// vertex joins the current partition, and the far endpoints enter the
/// boundary — so partitions are unions of edge neighbourhoods and the
/// replication factor lands far below any streaming heuristic's.
///
/// The engine is chunk-oriented for SNE: core membership (which partition
/// a vertex expanded into) persists across ExpandChunk calls, so a later
/// chunk re-seeds each partition's boundary with its existing core
/// members and clusters keep growing across chunk boundaries. NE and HEP
/// call it once with everything as a single chunk.
///
/// Everything here is serial and runs at pass barriers; determinism needs
/// no sharding, only canonical orders: the heap breaks key ties by vertex
/// id, and the free-vertex fallback scans ids ascending.
class NeExpander {
 public:
  NeExpander(graph::VertexId num_vertices, uint32_t num_partitions);

  /// Assigns every chunk edge to a partition, writing
  /// (*plan)[plan_index[i]] for chunk edge i. Partitions 0..P-2 stop at
  /// `capacity` chunk edges; the last takes the remainder, so the chunk is
  /// always fully assigned.
  void ExpandChunk(const std::vector<graph::Edge>& edges,
                   const std::vector<uint64_t>& plan_index, uint64_t capacity,
                   std::vector<MachineId>* plan);

  /// Modeled integer work ticks accumulated since the last call (heap
  /// operations, adjacency scans, edge placements), and resets the
  /// counter. The owning partitioner amortizes these into Assign charges —
  /// ticks added at a pass barrier would never reach the accounting lanes.
  uint64_t TakeTicks();

  /// Current resident bytes: persistent core map plus whatever chunk
  /// scratch (CSR, heap, bitmaps) is still held.
  uint64_t ApproxBytes() const;

  /// Frees the chunk scratch, keeping the persistent core map.
  void ReleaseScratch();

  /// Partition whose core `v` expanded into, or kKeepPlacement — the
  /// natural master location for core vertices.
  MachineId CoreOf(graph::VertexId v) const { return core_of_[v]; }

 private:
  /// One adjacency entry of the chunk CSR: far endpoint + chunk edge id.
  struct AdjEntry {
    graph::VertexId neighbor;
    uint32_t edge;
  };

  graph::VertexId num_vertices_;
  uint32_t num_partitions_;
  uint64_t ticks_ = 0;

  /// Persistent: partition owning v's core, or kKeepPlacement.
  std::vector<MachineId> core_of_;

  // Chunk scratch, rebuilt by every ExpandChunk.
  std::vector<uint64_t> adj_offset_;
  std::vector<AdjEntry> adj_;
  std::vector<uint32_t> remaining_;
  std::vector<graph::VertexId> chunk_vertices_;
  util::DenseBitset edge_assigned_;
  util::MinHeap<uint32_t, graph::VertexId> heap_;
};

/// NE — in-memory neighbourhood expansion, as a two-pass streaming
/// partitioner. Pass 0 buffers the stream (per loader, so the pass stays
/// parallel-safe) under a provisional hash placement; the pass barrier
/// concatenates the buffers in loader order — exactly global stream
/// order — and runs the expansion; pass 1 replays the computed plan, and
/// the provisional-to-final reassignments are charged as edge moves (the
/// load-then-shuffle cost a real in-memory partitioner pays).
class NePartitioner final : public Partitioner {
 public:
  explicit NePartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kNe; }
  uint32_t num_passes() const override { return 2; }
  /// Pass 0 appends to loader-sharded buffers, pass 1 reads the shared
  /// plan through loader-owned cursors: both parallel-safe.
  void PrepareForIngest(uint32_t num_loaders) override;
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;
  /// Masters live where the vertex's core expanded — its edges are there.
  MachineId PreferredMaster(graph::VertexId v) const override;

 private:
  uint32_t num_partitions_;
  uint64_t seed_;
  NeExpander expander_;
  /// Per-loader slots, one cache line each (a loader writes its slots on
  /// every edge): pass-0 edge buffers, pass-0 edge counts and pass-1 replay
  /// cursors.
  std::vector<util::CacheLinePadded<std::vector<graph::Edge>>> buffers_;
  std::vector<util::CacheLinePadded<uint64_t>> counts_;
  std::vector<util::CacheLinePadded<uint64_t>> cursors_;
  std::vector<MachineId> plan_;
  uint64_t num_edges_ = 0;
  /// Expansion ticks amortized over pass-1 Assign calls (quotient +
  /// remainder by global stream index — integer, so lanes sum exactly).
  uint64_t amort_quot_ = 0;
  uint64_t amort_rem_ = 0;
};

/// SNE — streaming NE: expands bounded chunks as the (serial) first pass
/// streams by, so resident expansion state respects
/// PartitionContext::memory_budget_bytes instead of holding the whole
/// graph. Core membership persists across chunks (the 2|V| cache of the
/// original SNE), and each chunk's edges are spread over all partitions
/// with a per-chunk capacity, keeping balance independent of the — still
/// unknown — total edge count. Pass 1 replays the plan in parallel.
class SnePartitioner final : public Partitioner {
 public:
  explicit SnePartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kSne; }
  uint32_t num_passes() const override { return 2; }
  /// Pass 0 interleaves chunk expansions with the stream in stream order —
  /// serial by construction; pass 1 is a read-only plan replay.
  bool PassIsParallelSafe(uint32_t pass) const override { return pass == 1; }
  void PrepareForIngest(uint32_t num_loaders) override;
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;
  MachineId PreferredMaster(graph::VertexId v) const override;

  /// Resident chunk capacity in edges, derived from the memory budget.
  uint64_t chunk_capacity_edges() const { return chunk_capacity_edges_; }

 private:
  void FlushChunk(uint32_t loader_for_ticks, bool at_barrier);

  uint32_t num_partitions_;
  uint64_t seed_;
  uint64_t chunk_capacity_edges_;
  NeExpander expander_;
  std::vector<graph::Edge> chunk_edges_;
  std::vector<uint64_t> chunk_index_;  ///< global stream positions
  /// Per-loader slots, one cache line each: pass-0 edge counts and pass-1
  /// replay cursors.
  std::vector<util::CacheLinePadded<uint64_t>> counts_;
  std::vector<util::CacheLinePadded<uint64_t>> cursors_;
  std::vector<MachineId> plan_;
  uint64_t stream_pos_ = 0;  ///< pass-0 global position (pass 0 is serial)
  uint64_t num_edges_ = 0;
  /// Expansion ticks from barrier-time flushes, collected here and then
  /// amortized over pass-1 Assign calls.
  uint64_t barrier_ticks_ = 0;
  uint64_t amort_quot_ = 0;
  uint64_t amort_rem_ = 0;
};

/// Hash placement used while a plan-replay strategy has not decided yet
/// (pass 0 of NE/SNE/2PS/HEP). Deterministic in the edge and seed only.
MachineId ProvisionalPlacement(const graph::Edge& e, uint64_t seed,
                               uint32_t num_partitions);

/// Integer amortization helper: splits `total_ticks` over `num_items`
/// Assign calls so that item `index` is charged quotient + (index <
/// remainder), and the per-item charges sum exactly to total_ticks.
struct AmortizedTicks {
  uint64_t quotient = 0;
  uint64_t remainder = 0;
  static AmortizedTicks Of(uint64_t total_ticks, uint64_t num_items);
  uint64_t ForIndex(uint64_t index) const {
    return quotient + (index < remainder ? 1 : 0);
  }
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_EXPANSION_H_
