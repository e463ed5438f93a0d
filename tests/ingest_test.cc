#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "graph/generators.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace gdp::partition {
namespace {

PartitionContext MakeContext(uint32_t partitions, graph::VertexId vertices,
                             uint32_t loaders = 0) {
  PartitionContext context;
  context.num_partitions = partitions;
  context.num_vertices = vertices;
  context.num_loaders = loaders == 0 ? partitions : loaders;
  context.seed = 13;
  return context;
}

TEST(IngestTest, ReplicationFactorMatchesManualCount) {
  graph::EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(1, 2);
  edges.AddEdge(2, 3);
  sim::Cluster cluster(3, sim::CostModel{});
  IngestResult r = IngestWithStrategy(edges, StrategyKind::kRandom,
                                      MakeContext(3, 4), cluster);
  uint64_t replicas = 0;
  for (graph::VertexId v = 0; v < 4; ++v) {
    replicas += r.graph.replicas.Count(v);
  }
  EXPECT_DOUBLE_EQ(r.graph.replication_factor, replicas / 4.0);
}

TEST(IngestTest, SinglePartitionDegenerateCase) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 50, .num_edges = 200, .seed = 3});
  sim::Cluster cluster(1, sim::CostModel{});
  IngestResult r = IngestWithStrategy(edges, StrategyKind::kRandom,
                                      MakeContext(1, 50), cluster);
  EXPECT_DOUBLE_EQ(r.graph.replication_factor, 1.0);
  EXPECT_EQ(r.graph.partition_edge_count[0], 200u);
}

TEST(IngestTest, MastersFollowPolicyRandomReplica) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 200, .num_edges = 800, .seed = 4});
  sim::Cluster cluster(5, sim::CostModel{});
  IngestOptions options;
  options.master_policy = MasterPolicy::kRandomReplica;
  IngestResult r = IngestWithStrategy(edges, StrategyKind::kRandom,
                                      MakeContext(5, 200), cluster, options);
  // With kRandomReplica the master never creates a brand-new replica:
  // replication factor equals the edge-induced replica average.
  for (graph::VertexId v = 0; v < 200; ++v) {
    if (!r.graph.present[v]) continue;
    // The master is one of the edge-hosting partitions.
    bool has_edge_there =
        r.graph.in_edge_partitions.Contains(v, r.graph.master[v]) ||
        r.graph.out_edge_partitions.Contains(v, r.graph.master[v]);
    EXPECT_TRUE(has_edge_there);
  }
}

TEST(IngestTest, VertexHashPolicyMayAddMasterOnlyReplicas) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 300, .num_edges = 400, .seed = 5});
  sim::Cluster pg_cluster(7, sim::CostModel{});
  sim::Cluster gx_cluster(7, sim::CostModel{});
  IngestOptions random_replica;
  random_replica.master_policy = MasterPolicy::kRandomReplica;
  IngestOptions vertex_hash;
  vertex_hash.master_policy = MasterPolicy::kVertexHash;
  double rf_pg = IngestWithStrategy(edges, StrategyKind::kRandom,
                                    MakeContext(7, 300), pg_cluster,
                                    random_replica)
                     .report.replication_factor;
  double rf_gx = IngestWithStrategy(edges, StrategyKind::kRandom,
                                    MakeContext(7, 300), gx_cluster,
                                    vertex_hash)
                     .report.replication_factor;
  EXPECT_GE(rf_gx, rf_pg);  // hash-located masters add replicas
}

TEST(IngestTest, MultiPassChargesMoves) {
  graph::EdgeList star;
  for (graph::VertexId i = 1; i <= 300; ++i) star.AddEdge(i, 0);
  sim::Cluster cluster(4, sim::CostModel{});
  IngestResult r = IngestWithStrategy(star, StrategyKind::kHybrid,
                                      MakeContext(4, 301), cluster);
  EXPECT_GT(r.report.edges_moved, 0u);
  EXPECT_EQ(r.report.pass_seconds.size(), 3u);  // 2 passes + finalize
}

TEST(IngestTest, IngressTimeGrowsWithGraphSize) {
  graph::EdgeList small = graph::GenerateErdosRenyi(
      {.num_vertices = 200, .num_edges = 1000, .seed = 6});
  graph::EdgeList large = graph::GenerateErdosRenyi(
      {.num_vertices = 2000, .num_edges = 20000, .seed = 7});
  sim::Cluster c1(4, sim::CostModel{});
  sim::Cluster c2(4, sim::CostModel{});
  double t_small = IngestWithStrategy(small, StrategyKind::kGrid,
                                      MakeContext(4, 200), c1)
                       .report.ingress_seconds;
  double t_large = IngestWithStrategy(large, StrategyKind::kGrid,
                                      MakeContext(4, 2000), c2)
                       .report.ingress_seconds;
  EXPECT_GT(t_large, t_small * 5);
}

TEST(IngestTest, MoreMachinesPartitionFaster) {
  // Parallel loading: the same graph ingests faster on more machines
  // (visible in Figs 5.7/8.2 as EC2-25 < Local-9 ingress).
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 5000, .edges_per_vertex = 6, .seed = 8});
  sim::Cluster c9(9, sim::CostModel{});
  sim::Cluster c25(25, sim::CostModel{});
  double t9 = IngestWithStrategy(edges, StrategyKind::kGrid,
                                 MakeContext(9, edges.num_vertices()), c9)
                  .report.ingress_seconds;
  double t25 = IngestWithStrategy(edges, StrategyKind::kGrid,
                                  MakeContext(25, edges.num_vertices()), c25)
                   .report.ingress_seconds;
  EXPECT_LT(t25, t9);
}

// The ingress spans carry the cluster's total simulated memory (Fig 6.3's
// samples): finalize reads it before the partitioner state is released,
// the enclosing ingress span after.
TEST(IngestTest, SpansCarryClusterMemory) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 100, .num_edges = 500, .seed = 9});
  sim::Cluster cluster(4, sim::CostModel{});
  obs::TraceRecorder trace;
  IngestOptions options;
  options.exec.trace = &trace;
  IngestWithStrategy(edges, StrategyKind::kOblivious, MakeContext(4, 100),
                     cluster, options);

  std::map<std::string, int64_t> memory;  // span name -> memory_bytes
  for (const obs::TraceSpan& span : trace.Snapshot()) {
    for (const auto& [key, value] : span.args) {
      if (key == "memory_bytes") memory[span.name] = value;
    }
  }
  ASSERT_EQ(memory.size(), 3u);  // pass 0, finalize, ingress
  EXPECT_GT(memory.at("pass 0"), 0);
  EXPECT_EQ(memory.at("ingress"),
            static_cast<int64_t>(cluster.TotalMemoryBytes()));
  EXPECT_GT(memory.at("finalize"), memory.at("ingress"));
}

TEST(IngestTest, MemoryChargedForEdgesAndReplicas) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 500, .num_edges = 3000, .seed = 10});
  sim::Cluster cluster(4, sim::CostModel{});
  IngestWithStrategy(edges, StrategyKind::kRandom, MakeContext(4, 500),
                     cluster);
  // At least edge_record per edge across the cluster.
  EXPECT_GE(cluster.TotalMemoryBytes(), 3000u * 16);
}

TEST(IngestTest, GreedyStateFreedAfterIngress) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 5000, .num_edges = 10000, .seed = 11});
  sim::Cluster cluster(4, sim::CostModel{});
  IngestResult r = IngestWithStrategy(edges, StrategyKind::kOblivious,
                                      MakeContext(4, 5000, 4), cluster);
  EXPECT_GT(r.report.peak_state_bytes, 0u);
  // Peak memory exceeds resident memory after ingress (state released).
  EXPECT_GT(cluster.MaxPeakMemoryBytes(),
            cluster.TotalMemoryBytes() / cluster.num_machines());
}

TEST(IngestTest, GraphXStylePartitionsExceedMachines) {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 3000, .edges_per_vertex = 5, .seed = 12});
  sim::Cluster cluster(9, sim::CostModel{});
  PartitionContext context = MakeContext(72, edges.num_vertices(), 9);
  IngestResult r = IngestWithStrategy(edges, StrategyKind::kTwoD, context,
                                      cluster);
  EXPECT_EQ(r.graph.num_partitions, 72u);
  EXPECT_EQ(r.graph.num_machines, 9u);
  // Partition -> machine folding.
  EXPECT_EQ(r.graph.MachineOfPartition(71), 71u % 9);
  // Replication counted per partition can exceed machine count bounds.
  EXPECT_GE(r.graph.replication_factor, 1.0);
}

TEST(IngestTest, DeterministicAcrossRuns) {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 1000, .edges_per_vertex = 4, .seed = 13});
  sim::Cluster c1(5, sim::CostModel{});
  sim::Cluster c2(5, sim::CostModel{});
  IngestResult a = IngestWithStrategy(edges, StrategyKind::kHdrf,
                                      MakeContext(5, 1000, 5), c1);
  IngestResult b = IngestWithStrategy(edges, StrategyKind::kHdrf,
                                      MakeContext(5, 1000, 5), c2);
  EXPECT_EQ(a.graph.edge_partition, b.graph.edge_partition);
  EXPECT_DOUBLE_EQ(a.report.replication_factor,
                   b.report.replication_factor);
}

}  // namespace
}  // namespace gdp::partition
