// Tests for the structural invariant validators (partition/validate.h):
// a valid ingest output passes all three, and each deliberate corruption —
// an edge placed out of range, a miscounted partition, a duplicate/missing
// master, a stale mirror, a non-monotone CSR — is reported with a message
// naming the precise failure.

#include "partition/validate.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "engine/plan.h"
#include "graph/generators.h"
#include "partition/ingest.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace gdp {
namespace {

using partition::DistributedGraph;
using partition::ReplicaTable;
using partition::ValidateCsr;
using partition::ValidateDistributedGraph;
using partition::ValidatePlacement;
using partition::ValidateReplicaTable;

DistributedGraph MakeValidGraph(partition::StrategyKind strategy =
                                    partition::StrategyKind::kRandom) {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 500, .edges_per_vertex = 6, .seed = 7});
  sim::Cluster cluster(4, sim::CostModel{});
  partition::PartitionContext context;
  context.num_partitions = 4;
  context.num_vertices = edges.num_vertices();
  context.seed = 11;
  return partition::IngestWithStrategy(edges, strategy, context, cluster)
      .graph;
}

// ---------------------------------------------------------------------------
// Healthy structures pass.
// ---------------------------------------------------------------------------

TEST(ValidateTest, IngestOutputIsValid) {
  for (partition::StrategyKind s : partition::AllStrategies()) {
    if (s == partition::StrategyKind::kPds) continue;  // needs p^2+p+1 parts
    DistributedGraph dg = MakeValidGraph(s);
    util::Status status = ValidateDistributedGraph(dg);
    EXPECT_TRUE(status.ok()) << partition::StrategyName(s) << ": "
                             << status.ToString();
  }
}

TEST(ValidateTest, ExecutionPlanCsrsAreValid) {
  const DistributedGraph dg = MakeValidGraph();
  using engine::EdgeDirection;
  const std::pair<EdgeDirection, EdgeDirection> shapes[] = {
      {EdgeDirection::kIn, EdgeDirection::kOut},
      {EdgeDirection::kBoth, EdgeDirection::kBoth},
      {EdgeDirection::kBoth, EdgeDirection::kNone}};
  for (const auto& [gather, scatter] : shapes) {
    const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
        dg, gather, scatter, /*graphx_counts=*/false);
    util::Status status = ValidateCsr(plan.gather_offsets, plan.gather_nbr);
    EXPECT_TRUE(status.ok()) << status.ToString();
    status = ValidateCsr(plan.scatter_offsets(), plan.scatter_target());
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_TRUE(ValidateCsr({}, {}).ok());  // empty CSR is valid
}

// ---------------------------------------------------------------------------
// Placement corruptions.
// ---------------------------------------------------------------------------

TEST(ValidateTest, PlacementCatchesOutOfRangePartition) {
  DistributedGraph dg = MakeValidGraph();
  dg.edge_partition[17] = dg.num_partitions + 3;
  util::Status status = ValidatePlacement(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("edge 17"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("valid range"), std::string::npos);
}

TEST(ValidateTest, PlacementCatchesDoubleAssignmentMiscount) {
  // "Every edge in exactly one partition" materializes as the per-partition
  // counts summing to the recount; moving an edge's assignment without
  // updating the counts models the edge being accounted in two partitions.
  DistributedGraph dg = MakeValidGraph();
  ++dg.partition_edge_count[1];  // partition 1 claims an edge it never got
  util::Status status = ValidatePlacement(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partition 1"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("recount"), std::string::npos);
}

TEST(ValidateTest, PlacementCatchesMissingAssignments) {
  DistributedGraph dg = MakeValidGraph();
  dg.edge_partition.pop_back();
  util::Status status = ValidatePlacement(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partition assignments"), std::string::npos);
}

TEST(ValidateTest, PlacementCatchesMissingDegrees) {
  // Every producer fills the degree arrays; the engines and plans read them
  // without a fallback.
  DistributedGraph dg = MakeValidGraph();
  dg.out_degree.clear();
  util::Status status = ValidatePlacement(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("degree"), std::string::npos)
      << status.ToString();

  // A stale array is caught too.
  dg.BuildDegreeCache();
  ASSERT_TRUE(ValidatePlacement(dg).ok());
  ++dg.in_degree[3];
  status = ValidatePlacement(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("vertex 3 out/in degrees"),
            std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// Replica-table corruptions.
// ---------------------------------------------------------------------------

graph::VertexId FirstPresent(const DistributedGraph& dg) {
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (dg.present[v]) return v;
  }
  ADD_FAILURE() << "no present vertex";
  return 0;
}

/// First present vertex with a partition missing from `table`, plus that
/// partition — the slot a corruption can claim. Power-law hubs replicate
/// everywhere, so this skips past them.
struct VertexSlot {
  graph::VertexId v = 0;
  sim::MachineId p = ReplicaTable::kInvalid;
};

VertexSlot FindFreeSlot(const DistributedGraph& dg,
                        const ReplicaTable& table) {
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (!dg.present[v]) continue;
    for (uint32_t p = 0; p < dg.num_partitions; ++p) {
      if (!table.Contains(v, p)) return {v, p};
    }
  }
  ADD_FAILURE() << "every vertex replicated on every partition";
  return {};
}

TEST(ValidateTest, ReplicaTableCatchesDuplicateMaster) {
  // A vertex whose master moved to a second partition without the first
  // being cleared: the replica set gains a partition no edge justifies.
  DistributedGraph dg = MakeValidGraph();
  // Claim a partition that holds no replica of v as a second master
  // location.
  VertexSlot slot = FindFreeSlot(dg, dg.replicas);
  dg.replicas.Add(slot.v, slot.p);
  dg.replication_factor += 1.0 / static_cast<double>(dg.num_present_vertices);
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("stale mirror"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("vertex " + std::to_string(slot.v)),
            std::string::npos);
}

TEST(ValidateTest, ReplicaTableCatchesStaleMirrorInEdgeDirectionTable) {
  DistributedGraph dg = MakeValidGraph();
  VertexSlot slot = FindFreeSlot(dg, dg.in_edge_partitions);
  dg.in_edge_partitions.Add(slot.v, slot.p);
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("in-edge table"), std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, ReplicaTableCatchesMissingMaster) {
  DistributedGraph dg = MakeValidGraph();
  graph::VertexId v = FirstPresent(dg);
  dg.master[v] = ReplicaTable::kInvalid;
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("has no master"), std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, ReplicaTableCatchesMasterOutsideReplicaSet) {
  DistributedGraph dg = MakeValidGraph();
  VertexSlot slot = FindFreeSlot(dg, dg.replicas);
  dg.master[slot.v] = slot.p;
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not in its replica set"),
            std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, ReplicaTableCatchesWrongReplicationFactor) {
  DistributedGraph dg = MakeValidGraph();
  dg.replication_factor += 0.25;
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("replication factor"), std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, ReplicaTableCatchesPresenceLie) {
  DistributedGraph dg = MakeValidGraph();
  graph::VertexId v = FirstPresent(dg);
  dg.present[v] = false;
  util::Status status = ValidateReplicaTable(dg);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("edge set says"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// CSR corruptions (via the raw-span overload; Csr::Build output cannot be
// forged).
// ---------------------------------------------------------------------------

TEST(ValidateTest, CsrCatchesNonMonotoneOffsets) {
  std::vector<uint64_t> offsets = {0, 2, 1, 3};
  std::vector<graph::VertexId> adjacency = {1, 2, 0};
  util::Status status = ValidateCsr(offsets, adjacency);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not monotone at vertex 1"),
            std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, CsrCatchesLengthMismatch) {
  std::vector<uint64_t> offsets = {0, 2, 4};
  std::vector<graph::VertexId> adjacency = {1, 0, 1};  // 3 != offsets.back()
  util::Status status = ValidateCsr(offsets, adjacency);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("offsets.back()"), std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, CsrCatchesNeighborOutOfRange) {
  std::vector<uint64_t> offsets = {0, 1, 2};
  std::vector<graph::VertexId> adjacency = {1, 9};
  util::Status status = ValidateCsr(offsets, adjacency);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("adjacency[1]"), std::string::npos)
      << status.ToString();
}

TEST(ValidateTest, CsrCatchesBadFirstOffset) {
  std::vector<uint64_t> offsets = {1, 2};
  std::vector<graph::VertexId> adjacency = {0, 0};
  util::Status status = ValidateCsr(offsets, adjacency);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("offsets[0]"), std::string::npos);
}

}  // namespace
}  // namespace gdp
