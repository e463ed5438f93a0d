#ifndef GDP_PARTITION_PLACEMENT_IO_H_
#define GDP_PARTITION_PLACEMENT_IO_H_

#include <string>

#include "graph/edge_list.h"
#include "partition/distributed_graph.h"
#include "util/status.h"

namespace gdp::partition {

/// Persistence for partitionings. The paper (§5.4.3) points out that when a
/// graph is partitioned once, saved, and reused across jobs, the effective
/// compute/ingress ratio rises and low replication factor becomes the
/// priority. These helpers implement that workflow: save the placement
/// produced by one ingest, then rebuild the DistributedGraph later without
/// re-running the partitioner.
///
/// Format (plain text, versioned):
///   gdp-placement v1
///   <num_partitions> <num_machines> <num_vertices> <num_edges>
///   one "<edge_partition>" line per edge, in edge-list order
///   one "<master|-1>" line per vertex
struct PlacementFile {
  uint32_t num_partitions = 0;
  uint32_t num_machines = 0;
  graph::VertexId num_vertices = 0;
  uint64_t num_edges = 0;
  std::vector<sim::MachineId> edge_partition;
  std::vector<sim::MachineId> master;
};

/// Writes a DistributedGraph's placement (edge partitions + masters).
util::Status SavePlacement(const DistributedGraph& dg,
                           const std::string& path);

/// Reads a placement file; validates the header and element counts.
/// InvalidArgument when num_machines is outside [1, 64] (the engines'
/// 64-bit machine masks) or num_partitions is outside [1, 65535] (the
/// GraphX fan-out counts are 16-bit), before anything is sized.
util::StatusOr<PlacementFile> LoadPlacement(const std::string& path);

/// Rebuilds a DistributedGraph from `edges` plus a saved placement.
/// FailedPrecondition when the placement does not match the edge list's
/// shape, or a vertex with edges has no master, or one without has a
/// master. The replica tables, per-partition counts, degrees and
/// replication factor are recomputed; the result is byte-for-byte
/// equivalent to the ingest that produced the placement.
util::StatusOr<DistributedGraph> ApplyPlacement(const graph::EdgeList& edges,
                                                const PlacementFile& file);

}  // namespace gdp::partition

#endif  // GDP_PARTITION_PLACEMENT_IO_H_
