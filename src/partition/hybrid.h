#ifndef GDP_PARTITION_HYBRID_H_
#define GDP_PARTITION_HYBRID_H_

#include <vector>

#include "partition/partitioner.h"
#include "util/cache_line.h"

namespace gdp::partition {

/// PowerLyra Hybrid (§6.2.1): edge-cut for low-degree destination vertices
/// (edge placed by hashing the destination, colocating each low-degree
/// vertex with all its in-edges), vertex-cut for high-degree destinations
/// (edge placed by hashing the source). Uses *exact* in-degrees, which
/// requires a counting pass followed by a reassignment pass — the extra
/// ingress phase responsible for Hybrid's above-trend peak memory
/// (Figs 6.2, 6.3).
class HybridPartitioner : public Partitioner {
 public:
  explicit HybridPartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kHybrid; }
  uint32_t num_passes() const override { return 2; }
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  /// Both passes are parallel-safe: pass 0 counts in-degrees into
  /// per-loader shards (loader 0 writes the merged array directly, so
  /// single-loader use needs no merge), pass 1 only reads the merged
  /// degrees.
  void PrepareForIngest(uint32_t num_loaders) override;
  /// Merges the pass-0 degree shards (single-threaded, at the pass
  /// barrier). The real system's loaders all-reduce their block-local
  /// counts the same way.
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;

  /// Masters live at the vertex hash location — for a low-degree vertex
  /// that is exactly where its in-edges are, enabling PowerLyra's local
  /// gather for natural applications.
  MachineId PreferredMaster(graph::VertexId v) const override;

  /// True once pass 0 determined v's in-degree exceeds the threshold.
  bool IsHighDegree(graph::VertexId v) const {
    return in_degree_[v] > threshold_;
  }

 protected:
  MachineId HashVertex(graph::VertexId v) const;

  /// Pass-0 in-degree counter cell for `loader`: loader 0 increments the
  /// merged array in place, loaders >= 1 their own shard (merged by
  /// EndPass(0)).
  uint32_t& DegreeCell(uint32_t loader, graph::VertexId v) {
    return loader == 0 ? in_degree_[v] : in_degree_shards_[loader - 1][v];
  }

  uint32_t num_partitions_;
  uint64_t seed_;
  uint64_t threshold_;
  std::vector<uint32_t> in_degree_;
  /// Shards for loaders 1..L-1 (implementation scratch of the parallel
  /// pipeline — not modeled state; ApproxStateBytes charges the merged
  /// array only, like the seed).
  std::vector<std::vector<uint32_t>> in_degree_shards_;
};

/// PowerLyra Hybrid-Ginger (§6.2.2): Hybrid plus a third, Fennel-inspired
/// phase that re-homes each low-degree vertex v (and its colocated
/// in-edges) to the partition p maximizing
///   |N_in(v) ∩ V_p| - b(p),   b(p) = (|V_p| + |V|/|E| * |E_p|) / 2.
/// The neighbour-count matrix and extra phase make it the most
/// memory-hungry and slowest-ingress strategy — which is the paper's
/// argument for avoiding it (§6.4.4).
class HybridGingerPartitioner final : public HybridPartitioner {
 public:
  explicit HybridGingerPartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kHybridGinger; }
  uint32_t num_passes() const override { return 3; }
  void BeginPass(uint32_t pass) override;
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  /// Pass 0 is parallel-safe (degree + |E_p| counters are loader-sharded);
  /// pass 1 mutates the shared neighbour-count matrix and pass 2's Fennel
  /// moves depend on the evolving balance state in stream order, so both
  /// run serially.
  bool PassIsParallelSafe(uint32_t pass) const override { return pass == 0; }
  void PrepareForIngest(uint32_t num_loaders) override;
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;
  MachineId PreferredMaster(graph::VertexId v) const override;

 private:
  MachineId GingerTarget(graph::VertexId v, uint32_t loader);

  /// Pass-0 edge-count cells for `loader` (loader 0 = the merged arrays).
  uint64_t& TotalEdgesCell(uint32_t loader) {
    return loader == 0 ? total_edges_ : edge_shards_[loader - 1].total_edges;
  }
  uint64_t& PartitionEdgesCell(uint32_t loader, MachineId p) {
    return loader == 0 ? partition_edges_[p]
                       : edge_shards_[loader - 1].partition_edges[p];
  }

  /// One loader's pass-0 counters, bumped on every edge: the struct and
  /// its array own whole cache lines.
  struct alignas(util::kCacheLineBytes) EdgeCountShard {
    uint64_t total_edges = 0;
    util::LineVector<uint64_t> partition_edges;
  };
  static_assert(alignof(EdgeCountShard) >= util::kCacheLineBytes);

  graph::VertexId num_vertices_;
  uint64_t total_edges_ = 0;
  std::vector<EdgeCountShard> edge_shards_;  ///< loaders 1..L-1, pass 0
  /// nbr_partition_count_[v * P + p]: v's in-neighbours homed at p
  /// (saturating 16-bit counters; low-degree vertices have <= threshold
  /// in-neighbours so saturation is unreachable for the vertices that use
  /// this).
  std::vector<uint16_t> nbr_partition_count_;
  /// Current vertex->partition assignment (Ginger moves these).
  std::vector<MachineId> vertex_partition_;
  /// Memoized Ginger decision per vertex (kKeepPlacement = not yet made).
  std::vector<MachineId> ginger_target_;
  std::vector<uint64_t> partition_vertices_;  ///< |V_p|
  std::vector<uint64_t> partition_edges_;     ///< |E_p|
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_HYBRID_H_
