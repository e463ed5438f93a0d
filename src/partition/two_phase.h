#ifndef GDP_PARTITION_TWO_PHASE_H_
#define GDP_PARTITION_TWO_PHASE_H_

#include <cstdint>
#include <vector>

#include "partition/partitioner.h"
#include "util/cache_line.h"

namespace gdp::partition {

/// 2PS — two-phase streaming edge partitioning (Mayer et al.,
/// arXiv:2001.07086). Phase one streams the edges once, growing
/// volume-bounded vertex clusters with a degree-aware union rule (low-
/// degree vertices pull their neighbourhoods into one cluster; a merge is
/// allowed only while the combined cluster volume stays under the evolving
/// per-partition share). The pass barrier bin-packs whole clusters onto
/// partitions, largest volume first. Phase two re-streams and places each
/// edge cluster-aware: it follows the lower-degree endpoint's cluster
/// partition — hubs replicate, communities stay intact — with a
/// loader-local balance fallback, giving near-expansion replication
/// factors at streaming cost and O(|V|) state.
///
/// Pass 0 mutates the shared union-find in stream order, so it runs
/// serially (like DBH's shared degree counters); pass 1 reads the frozen
/// vertex->partition map with loader-sharded load counters and is
/// parallel-safe.
class TwoPsPartitioner final : public Partitioner {
 public:
  explicit TwoPsPartitioner(const PartitionContext& context);

  StrategyKind kind() const override { return StrategyKind::kTwoPs; }
  uint32_t num_passes() const override { return 2; }
  bool PassIsParallelSafe(uint32_t pass) const override { return pass == 1; }
  void PrepareForIngest(uint32_t num_loaders) override;
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
  void EndPass(uint32_t pass) override;
  uint64_t ApproxStateBytes() const override;
  /// Masters colocate with the vertex's cluster partition.
  MachineId PreferredMaster(graph::VertexId v) const override;

  /// Cluster partition of `v` after the pass-0 barrier (for tests).
  MachineId ClusterPartitionOf(graph::VertexId v) const {
    return vertex_partition_[v];
  }

 private:
  /// Union-find root with path halving (serial pass 0 only).
  graph::VertexId Find(graph::VertexId v);

  uint32_t num_partitions_;
  uint64_t seed_;
  uint64_t edges_seen_ = 0;  ///< pass-0 stream position (serial)

  // Pass-0 clustering state (released at the barrier except degrees).
  std::vector<graph::VertexId> parent_;
  std::vector<uint64_t> cluster_volume_;  ///< at roots: sum of member degrees
  std::vector<uint32_t> degree_;          ///< streaming partial degrees

  // Frozen at the pass-0 barrier.
  std::vector<MachineId> vertex_partition_;

  /// Pass-1 loader-sharded placement counters (loader l owns row l, on
  /// cache lines of its own: it bumps the row on every edge).
  std::vector<util::LineVector<uint64_t>> loader_load_;
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_TWO_PHASE_H_
