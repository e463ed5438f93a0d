#ifndef GDP_PARTITION_DISTRIBUTED_GRAPH_H_
#define GDP_PARTITION_DISTRIBUTED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "partition/replica_table.h"

namespace gdp::partition {

/// A partitioned graph: every edge has a partition, every vertex a master
/// and a replica set. This is what the engines execute over; all of the
/// paper's metrics (replication factor, per-machine load, gather/scatter
/// locality) are functions of this structure.
struct DistributedGraph {
  uint32_t num_partitions = 0;
  /// Machines hosting the partitions. Partition p lives on machine
  /// p % num_machines (PowerGraph/PowerLyra: one partition per machine;
  /// GraphX: many partitions per machine, one per core).
  uint32_t num_machines = 0;

  graph::VertexId num_vertices = 0;
  std::vector<graph::Edge> edges;
  /// Partition of edges[i].
  std::vector<sim::MachineId> edge_partition;

  /// Partitions holding any replica of v (edge endpoint or master).
  ReplicaTable replicas;
  /// Partitions holding at least one in-edge (respectively out-edge) of v;
  /// used by the engines to count gather/scatter messages.
  ReplicaTable in_edge_partitions;
  ReplicaTable out_edge_partitions;

  /// Master partition per vertex (kInvalid for absent vertices).
  std::vector<sim::MachineId> master;
  /// Vertex appears in at least one edge.
  std::vector<bool> present;
  /// Number of present vertices.
  uint64_t num_present_vertices = 0;

  std::vector<uint64_t> partition_edge_count;

  /// Per-vertex degrees of the partitioned edges, num_vertices entries
  /// each. Every producer fills them (Ingest, IngestReference and
  /// ApplyPlacement; hand-assembled graphs call BuildDegreeCache()), so the
  /// engines and plans read them as-is; ValidatePlacement checks them
  /// against a recount.
  std::vector<uint64_t> out_degree;
  std::vector<uint64_t> in_degree;

  /// (Re)computes the degree arrays from `edges`. Call after the edge
  /// vector is final.
  void BuildDegreeCache();

  /// Average replicas per present vertex — the paper's headline
  /// partitioning-quality metric.
  double replication_factor = 0;

  /// Machine hosting partition p.
  sim::MachineId MachineOfPartition(sim::MachineId partition) const {
    return partition % num_machines;
  }

  /// Largest / mean partition size ratio (load balance).
  double EdgeBalanceRatio() const;
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_DISTRIBUTED_GRAPH_H_
