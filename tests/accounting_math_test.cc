// Pins the engines' communication disciplines with hand-computed message
// counts on a tiny, fully-controlled placement. If these change, every
// figure bench changes — this is the contract of DESIGN.md's engine table.

#include <gtest/gtest.h>

#include "apps/pagerank.h"
#include "engine/gas_engine.h"
#include "sim/cluster.h"

namespace gdp::engine {
namespace {

// Placement under test, built by hand (no partitioner):
//   machines: 2 (partitions == machines)
//   edges: (0,1) on partition 0; (2,1) on partition 1; (1,3) on partition 1
//   masters: 0->m0, 1->m0, 2->m1, 3->m1
// Derived per vertex:
//   v0: replicas {0}, in {}, out {0};        master m0
//   v1: replicas {0,1}, in {0,1}, out {1};   master m0  (mirror on m1)
//   v2: replicas {1}, in {}, out {1};        master m1
//   v3: replicas {1}, in {1}, out {};        master m1
partition::DistributedGraph HandGraph() {
  partition::DistributedGraph dg;
  dg.num_partitions = 2;
  dg.num_machines = 2;
  dg.num_vertices = 4;
  dg.edges = {{0, 1}, {2, 1}, {1, 3}};
  dg.edge_partition = {0, 1, 1};
  dg.replicas = partition::ReplicaTable(4, 2);
  dg.in_edge_partitions = partition::ReplicaTable(4, 2);
  dg.out_edge_partitions = partition::ReplicaTable(4, 2);
  for (size_t i = 0; i < dg.edges.size(); ++i) {
    const graph::Edge& e = dg.edges[i];
    dg.replicas.Add(e.src, dg.edge_partition[i]);
    dg.replicas.Add(e.dst, dg.edge_partition[i]);
    dg.out_edge_partitions.Add(e.src, dg.edge_partition[i]);
    dg.in_edge_partitions.Add(e.dst, dg.edge_partition[i]);
  }
  dg.master = {0, 0, 1, 1};
  dg.present = {true, true, true, true};
  dg.num_present_vertices = 4;
  dg.partition_edge_count = {1, 2};
  dg.replication_factor = 5.0 / 4.0;
  dg.BuildDegreeCache();
  return dg;
}

/// PageRank with tolerance 0: every vertex signals every superstep.
/// One superstep's expected messages (sizes: gather 24B + its 8B request,
/// sync 24B):
///
/// PowerGraph (mirrors = all replicas):
///   v1 is the only replicated vertex: mirror m1 -> master m0 carries one
///   gather round trip (8 out of m0 + 24 out of m1) and one sync
///   (24 out of m0). All other vertices are single-replica: nothing.
///   Per superstep: m0 sends 8+24 = 32, m1 sends 24. Total 56 bytes.
TEST(AccountingMathTest, PowerGraphBytesMatchHandCount) {
  partition::DistributedGraph dg = HandGraph();
  sim::Cluster cluster(2, sim::CostModel{});
  RunOptions options;
  options.max_iterations = 1;
  auto run = RunGasEngine(EngineKind::kPowerGraphSync, dg, cluster,
                          apps::PageRankFixed(), options);
  EXPECT_EQ(run.stats.network_bytes, 56u);
  EXPECT_EQ(cluster.machine(0).bytes_sent(), 32u);
  EXPECT_EQ(cluster.machine(1).bytes_sent(), 24u);
}

/// PowerLyra, every vertex here is low-degree (threshold 100):
///   gather messages come only from gather-direction (in-edge) machines:
///   v1's in-edges live on m0 and m1; master m0 -> round trip with m1
///   (8 + 24). Sync goes only to scatter-direction (out-edge) machines:
///   v1's out-edges are on m1 only -> one sync (24) from m0.
///   Identical 56 bytes here — but distributed differently when the
///   directions disagree; v3's in-edge is local to its master, so still
///   nothing for the others.
TEST(AccountingMathTest, PowerLyraBytesMatchHandCount) {
  partition::DistributedGraph dg = HandGraph();
  sim::Cluster cluster(2, sim::CostModel{});
  RunOptions options;
  options.max_iterations = 1;
  auto run = RunGasEngine(EngineKind::kPowerLyraHybrid, dg, cluster,
                          apps::PageRankFixed(), options);
  EXPECT_EQ(run.stats.network_bytes, 56u);
}

/// Make v1's master m1 instead: now its in-edges {m0,m1} still straddle,
/// but its out-edges {m1} are local to the master.
///   PowerGraph: gather round trip m0<->m1 (32) + sync to mirror m0 (24)
///   = 56 again (replicas don't change).
///   PowerLyra low-degree: gather round trip (32) + sync to out-machines
///   minus master = {} -> 0. Total 32: the §6.4.1 saving, in miniature.
TEST(AccountingMathTest, PowerLyraSkipsScatterLocalSync) {
  partition::DistributedGraph dg = HandGraph();
  dg.master[1] = 1;
  sim::Cluster c1(2, sim::CostModel{});
  sim::Cluster c2(2, sim::CostModel{});
  RunOptions options;
  options.max_iterations = 1;
  auto pg = RunGasEngine(EngineKind::kPowerGraphSync, dg, c1,
                         apps::PageRankFixed(), options);
  auto pl = RunGasEngine(EngineKind::kPowerLyraHybrid, dg, c2,
                         apps::PageRankFixed(), options);
  EXPECT_EQ(pg.stats.network_bytes, 56u);
  EXPECT_EQ(pl.stats.network_bytes, 32u);
}

/// High-degree vertices lose the PowerLyra saving: force the threshold to
/// zero so every vertex counts as high-degree, and PowerLyra's sync set
/// falls back to all mirrors — byte-for-byte PowerGraph behaviour.
TEST(AccountingMathTest, PowerLyraHighDegreeFallsBackToPowerGraph) {
  partition::DistributedGraph dg = HandGraph();
  dg.master[1] = 1;
  sim::Cluster c1(2, sim::CostModel{});
  sim::Cluster c2(2, sim::CostModel{});
  RunOptions options;
  options.max_iterations = 1;
  options.high_degree_threshold = 0;  // everyone is "high-degree"
  auto pg = RunGasEngine(EngineKind::kPowerGraphSync, dg, c1,
                         apps::PageRankFixed(), options);
  auto pl = RunGasEngine(EngineKind::kPowerLyraHybrid, dg, c2,
                         apps::PageRankFixed(), options);
  EXPECT_EQ(pl.stats.network_bytes, pg.stats.network_bytes);
}

/// GraphX with both partitions on ONE machine: partition-level replication
/// persists (shuffle-block work is charged) but no bytes cross a machine
/// boundary.
TEST(AccountingMathTest, GraphXIntraMachineTrafficIsFree) {
  partition::DistributedGraph dg = HandGraph();
  dg.num_machines = 1;
  dg.master = {0, 0, 0, 0};
  // Ingest materializes a replica at every master's location (v2 and v3
  // were only on partition 1); mirror that here or the structural
  // validators reject the placement in debug builds.
  dg.replicas.Add(2, 0);
  dg.replicas.Add(3, 0);
  dg.replication_factor = 7.0 / 4.0;
  sim::Cluster cluster(1, sim::CostModel{});
  RunOptions options;
  options.max_iterations = 1;
  auto run = RunGasEngine(EngineKind::kGraphXPregel, dg, cluster,
                          apps::PageRankFixed(), options);
  EXPECT_EQ(run.stats.network_bytes, 0u);
  EXPECT_GT(cluster.machine(0).busy_seconds(), 0.0);
}

}  // namespace
}  // namespace gdp::engine
