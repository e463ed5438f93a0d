#include "partition/two_phase.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "partition/expansion.h"
#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"
#include "util/check.h"

namespace gdp::partition {

namespace {
/// Modeled pass-0 cost: two degree updates, two finds, one merge check.
constexpr uint64_t kClusteringTicksPerEdge = 3 * Partitioner::kTicksPerWorkUnit;
/// Modeled pass-1 cost: two map lookups plus the balance check.
constexpr uint64_t kPlacementTicksPerEdge = 2 * Partitioner::kTicksPerWorkUnit;
}  // namespace

TwoPsPartitioner::TwoPsPartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      parent_(context.num_vertices),
      cluster_volume_(context.num_vertices, 0),
      degree_(context.num_vertices, 0),
      vertex_partition_(context.num_vertices, 0) {
  GDP_CHECK_GT(context.num_vertices, 0u);
  for (graph::VertexId v = 0; v < context.num_vertices; ++v) parent_[v] = v;
}

void TwoPsPartitioner::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  if (loader_load_.size() < num_loaders) {
    loader_load_.resize(num_loaders,
                        util::LineVector<uint64_t>(num_partitions_, 0));
  }
}

graph::VertexId TwoPsPartitioner::Find(graph::VertexId v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];  // path halving
    v = parent_[v];
  }
  return v;
}

MachineId TwoPsPartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                   uint32_t loader) {
  if (pass == 0) {
    ++edges_seen_;
    ++degree_[e.src];
    ++degree_[e.dst];
    const graph::VertexId ru = Find(e.src);
    const graph::VertexId rv = Find(e.dst);
    // Volume = sum of member degrees; this edge added one to each side.
    ++cluster_volume_[ru];
    ++cluster_volume_[rv == ru ? ru : rv];
    if (ru != rv) {
      // Merge while the union stays under the evolving per-partition
      // volume share (total volume so far is 2 * edges_seen_). The share
      // grows with the stream, so early low-degree communities coalesce
      // and later merges become conservative — the 2PS bound without
      // knowing |E| up front.
      const uint64_t max_volume = 2 * edges_seen_ / num_partitions_ + 2;
      if (cluster_volume_[ru] + cluster_volume_[rv] <= max_volume) {
        // Attach the smaller volume under the larger; ties toward the
        // smaller root id — canonical, so the serial pass is reproducible.
        graph::VertexId big = ru;
        graph::VertexId small = rv;
        if (cluster_volume_[rv] > cluster_volume_[ru] ||
            (cluster_volume_[rv] == cluster_volume_[ru] && rv < ru)) {
          big = rv;
          small = ru;
        }
        parent_[small] = big;
        cluster_volume_[big] += cluster_volume_[small];
        cluster_volume_[small] = 0;
      }
    }
    AddWorkTicks(loader, kClusteringTicksPerEdge);
    return ProvisionalPlacement(e, seed_, num_partitions_);
  }

  // Pass 1: cluster-aware greedy. Follow the lower-degree endpoint's
  // cluster (its community is small and should stay whole; the hub
  // replicates anyway), unless this loader's shard of that partition ran
  // far ahead of the alternative — then take the alternative.
  const MachineId pu = vertex_partition_[e.src];
  const MachineId pv = vertex_partition_[e.dst];
  util::LineVector<uint64_t>& load = loader_load_[loader];
  MachineId chosen = pu;
  if (pu != pv) {
    MachineId preferred = pv;
    MachineId other = pu;
    if (degree_[e.src] < degree_[e.dst] ||
        (degree_[e.src] == degree_[e.dst] && pu < pv)) {
      preferred = pu;
      other = pv;
    }
    chosen = preferred;
    if (load[preferred] >= 2 * load[other] + 64) chosen = other;
  }
  ++load[chosen];
  AddWorkTicks(loader, kPlacementTicksPerEdge);
  return chosen;
}

void TwoPsPartitioner::EndPass(uint32_t pass) {
  if (pass != 0) return;
  // Collect clusters and bin-pack them: largest volume first onto the
  // least-volume partition (ties toward the lower partition id).
  std::vector<std::pair<uint64_t, graph::VertexId>> clusters;
  for (graph::VertexId v = 0; v < parent_.size(); ++v) {
    if (Find(v) == v && cluster_volume_[v] != 0) {
      clusters.emplace_back(cluster_volume_[v], v);
    }
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& a, const auto& b) {
              return a.first > b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  std::vector<uint64_t> partition_volume(num_partitions_, 0);
  std::vector<MachineId> cluster_partition(parent_.size(), 0);
  for (const auto& [volume, root] : clusters) {
    MachineId best = 0;
    for (MachineId p = 1; p < num_partitions_; ++p) {
      if (partition_volume[p] < partition_volume[best]) best = p;
    }
    cluster_partition[root] = best;
    partition_volume[best] += volume;
  }
  for (graph::VertexId v = 0; v < parent_.size(); ++v) {
    vertex_partition_[v] = cluster_partition[Find(v)];
  }
  // Clustering state collapses to the frozen map + degrees for pass 1.
  parent_ = {};
  cluster_volume_ = {};
}

uint64_t TwoPsPartitioner::ApproxStateBytes() const {
  uint64_t loads = 0;
  for (const auto& row : loader_load_) loads += row.size() * sizeof(uint64_t);
  return parent_.size() * sizeof(graph::VertexId) +
         cluster_volume_.size() * sizeof(uint64_t) +
         degree_.size() * sizeof(uint32_t) +
         vertex_partition_.size() * sizeof(MachineId) + loads;
}

MachineId TwoPsPartitioner::PreferredMaster(graph::VertexId v) const {
  return vertex_partition_.empty() ? kKeepPlacement : vertex_partition_[v];
}

void RegisterTwoPhaseStrategies() {
  StrategyRegistry::Instance().Register(StrategyInfo{
      .kind = StrategyKind::kTwoPs,
      .name = "2PS",
      .traits = {.passes_required = 2,
                 .parallel_safe = false,
                 .needs_degree_precompute = true},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<TwoPsPartitioner>(context);
      }});
}

}  // namespace gdp::partition
