#ifndef GDP_PARTITION_HEP_H_
#define GDP_PARTITION_HEP_H_

#include <cstdint>
#include <vector>

#include "partition/expansion.h"
#include "partition/partitioner.h"
#include "util/cache_line.h"

namespace gdp::partition {

/// HEP-style hybrid edge partitioner (Mayer & Jacobsen, SIGMOD'21: "Hybrid
/// Edge Partitioner"). Splits the graph by a degree threshold tau derived
/// from the ingress memory budget: edges whose endpoints are both
/// low-degree (deg <= tau) are buffered and partitioned with in-memory
/// neighbourhood expansion — they are the vast majority in skewed graphs
/// and expansion gives them near-optimal replication — while edges
/// touching a high-degree vertex are placed immediately by degree-aware
/// streaming (hash of the lower-degree endpoint, DBH-style), since hubs
/// replicate everywhere regardless. The budget only has to hold the
/// low-degree subgraph, so tau selects the largest expansion share that
/// fits.
///
/// Three passes, all parallel-safe:
///   pass 0 — count degrees into loader shards (Hybrid's DegreeCell
///            idiom), provisional hash placement; the barrier merges
///            shards and fixes tau from the budget;
///   pass 1 — buffer low-low edges per loader (kKeepPlacement), stream
///            high edges to their final degree-hash home; the barrier
///            concatenates the buffers in loader order (= global stream
///            order) and runs the expansion;
///   pass 2 — replay the expansion plan for low edges, keep high edges.
class HepPartitioner final : public Partitioner {
 public:
  explicit HepPartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kHep; }
  uint32_t num_passes() const override { return 3; }
  void PrepareForIngest(uint32_t num_loaders) override;
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;
  /// Low-degree masters live at their expansion core; high-degree masters
  /// at their hash location.
  MachineId PreferredMaster(graph::VertexId v) const override;

  /// Degree threshold fixed at the pass-0 barrier: the largest tau whose
  /// low-degree subgraph fits the memory budget (monotone in the budget by
  /// construction). Budget 0 means "unconstrained" and falls back to
  /// 4 * average degree + 1, HEP's recommended default.
  uint64_t SplitThreshold() const { return threshold_; }

 private:
  bool IsLowEdge(const graph::Edge& e) const {
    return degree_[e.src] <= threshold_ && degree_[e.dst] <= threshold_;
  }
  MachineId DegreeHash(const graph::Edge& e) const;

  /// Pass-0 degree cell (loader 0 owns the merged array, like Hybrid).
  uint32_t& DegreeCell(uint32_t loader, graph::VertexId v) {
    return loader == 0 ? degree_[v] : degree_shards_[loader - 1][v];
  }

  uint32_t num_partitions_;
  uint64_t seed_;
  uint64_t memory_budget_bytes_;
  uint64_t threshold_ = 0;
  uint64_t num_edges_ = 0;

  std::vector<uint32_t> degree_;
  /// Loader shards for pass 0 (implementation scratch of the parallel
  /// pipeline — not modeled state, same as Hybrid).
  std::vector<std::vector<uint32_t>> degree_shards_;

  NeExpander expander_;
  /// Per-loader slots, one cache line each (a loader writes its slots on
  /// every edge): pass-1 low-edge buffers, pass-0 edge counts, pass-1
  /// low-edge counts, pass-2 plan replay cursors and pass-2 global stream
  /// cursors.
  std::vector<util::CacheLinePadded<std::vector<graph::Edge>>> low_buffers_;
  std::vector<util::CacheLinePadded<uint64_t>> edge_counts_;
  std::vector<util::CacheLinePadded<uint64_t>> low_counts_;
  std::vector<util::CacheLinePadded<uint64_t>> low_cursors_;
  std::vector<util::CacheLinePadded<uint64_t>> all_cursors_;
  std::vector<MachineId> plan_;
  /// Expansion ticks amortized over pass-2 Assign calls by global index.
  AmortizedTicks amort_;
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_HEP_H_
