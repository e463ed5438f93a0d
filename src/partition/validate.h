#ifndef GDP_PARTITION_VALIDATE_H_
#define GDP_PARTITION_VALIDATE_H_

#include <cstdint>
#include <span>

#include "graph/types.h"
#include "partition/distributed_graph.h"
#include "util/status.h"

namespace gdp::partition {

/// Structural invariant validators. Every headline metric of the paper
/// (replication factor, per-partition load, gather/scatter message counts)
/// is a pure function of the structures checked here, so a silent
/// bookkeeping bug corrupts every downstream figure. The validators return
/// a precise FailedPrecondition Status naming the first violated invariant
/// (vertex/edge/partition id included) rather than aborting, so tests can
/// assert on the message; call sites that want to abort wrap them in
/// GDP_CHECK_OK / GDP_DCHECK_OK (util/check.h).
///
/// Debug builds of the harness (harness/experiment.cc) and the GAS engine
/// (engine/gas_engine.h) run ValidateDistributedGraph on every ingest /
/// engine entry, and ExecutionPlan::Build runs ValidateCsr on both CSRs of
/// every plan; release builds compile the calls out.

/// Checks CSR shape: offsets either empty (with no adjacency) or starting
/// at 0 and monotone non-decreasing, offsets.back() equal to the adjacency
/// length, and every neighbor id within [0, offsets.size() - 1).
util::Status ValidateCsr(std::span<const uint64_t> offsets,
                         std::span<const graph::VertexId> adjacency);

/// Checks edge placement: every edge assigned exactly one partition id in
/// [0, num_partitions), partition_edge_count consistent with a recount of
/// edge_partition, and out_degree/in_degree sized num_vertices and equal to
/// a recount of the edges.
util::Status ValidatePlacement(const DistributedGraph& dg);

/// Checks replica/master bookkeeping: every present vertex has exactly one
/// master and the master is in its replica set; absent vertices have no
/// master and no replicas; the in/out edge-partition sets are exactly the
/// partitions of the vertex's incident edges and are subsets of the replica
/// set; every replica is either an edge endpoint's partition or the master;
/// and the recomputed replication factor matches the reported one.
util::Status ValidateReplicaTable(const DistributedGraph& dg);

/// Runs all DistributedGraph validators (placement then replica table).
util::Status ValidateDistributedGraph(const DistributedGraph& dg);

}  // namespace gdp::partition

#endif  // GDP_PARTITION_VALIDATE_H_
