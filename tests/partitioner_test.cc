#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "partition/constrained.h"
#include "partition/hash_partitioners.h"
#include "partition/ingest.h"
#include "partition/partitioner.h"
#include "sim/cluster.h"

namespace gdp::partition {
namespace {

PartitionContext MakeContext(uint32_t partitions, graph::VertexId vertices,
                             uint32_t loaders = 1, uint64_t seed = 99) {
  PartitionContext context;
  context.num_partitions = partitions;
  context.num_vertices = vertices;
  context.num_loaders = loaders;
  context.seed = seed;
  return context;
}

// ---------------------------------------------------------------------------
// Registry / metadata
// ---------------------------------------------------------------------------

TEST(StrategyRegistryTest, AllStrategiesHaveUniqueNames) {
  std::set<std::string> names;
  for (StrategyKind kind : AllStrategies()) {
    EXPECT_TRUE(names.insert(StrategyName(kind)).second)
        << "duplicate name " << StrategyName(kind);
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(StrategyRegistryTest, NamesRoundTrip) {
  for (StrategyKind kind : AllStrategies()) {
    auto parsed = StrategyFromName(StrategyName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
}

TEST(StrategyRegistryTest, ExtensionNamesParseToo) {
  EXPECT_EQ(StrategyFromName("Chunked").value(), StrategyKind::kChunked);
  EXPECT_EQ(StrategyFromName("DBH").value(), StrategyKind::kDbh);
}

TEST(StrategyRegistryTest, PaperAliases) {
  EXPECT_EQ(StrategyFromName("Canonical Random").value(),
            StrategyKind::kRandom);
  EXPECT_EQ(StrategyFromName("Hybrid-Ginger").value(),
            StrategyKind::kHybridGinger);
  EXPECT_FALSE(StrategyFromName("NotAStrategy").ok());
}

TEST(StrategyRegistryTest, SystemStrategySetsMatchTable11) {
  // Table 1.1 (plus PDS for PowerLyra which ships it, minus nothing).
  auto pg = PowerGraphStrategies();
  EXPECT_EQ(pg.size(), 5u);  // Random, Grid, Oblivious, HDRF, PDS
  auto pl = PowerLyraStrategies();
  EXPECT_EQ(pl.size(), 6u);
  auto gx = GraphXStrategies();
  EXPECT_EQ(gx.size(), 4u);  // Random, Canonical Random, 1D, 2D
}

// ---------------------------------------------------------------------------
// Parameterized contract tests over every strategy
// ---------------------------------------------------------------------------

class EveryStrategyTest : public ::testing::TestWithParam<StrategyKind> {
 protected:
  // PDS needs p^2+p+1 partitions; 7 works for every strategy (non-square,
  // exercising the Grid fallback too). A square case is tested separately.
  static constexpr uint32_t kPartitions = 7;
};

TEST_P(EveryStrategyTest, AssignmentsAreInRangeAndDeterministic) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 300, .num_edges = 2000, .seed = 17});
  PartitionContext context = MakeContext(kPartitions, edges.num_vertices());
  std::unique_ptr<Partitioner> a = MakePartitioner(GetParam(), context);
  std::unique_ptr<Partitioner> b = MakePartitioner(GetParam(), context);

  for (uint32_t pass = 0; pass < a->num_passes(); ++pass) {
    a->BeginPass(pass);
    b->BeginPass(pass);
    for (const graph::Edge& e : edges.edges()) {
      MachineId ma = a->Assign(e, pass, 0);
      MachineId mb = b->Assign(e, pass, 0);
      EXPECT_EQ(ma, mb) << "non-deterministic assignment";
      if (pass == 0) {
        ASSERT_NE(ma, kKeepPlacement);
      }
      if (ma != kKeepPlacement) {
        EXPECT_LT(ma, kPartitions);
      }
    }
  }
}

TEST_P(EveryStrategyTest, ChargesIngressWork) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(
      {.num_vertices = 100, .num_edges = 500, .seed = 18});
  PartitionContext context = MakeContext(kPartitions, edges.num_vertices());
  std::unique_ptr<Partitioner> p = MakePartitioner(GetParam(), context);
  p->BeginPass(0);
  uint64_t ticks = 0;
  for (const graph::Edge& e : edges.edges()) {
    p->Assign(e, 0, 0);
    ticks += p->TakeAssignWorkTicks(0);
  }
  EXPECT_GT(ticks, 0u) << "strategy must charge CPU work";
}

TEST_P(EveryStrategyTest, IngestProducesConsistentDistributedGraph) {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 1500, .edges_per_vertex = 5, .seed = 19});
  sim::Cluster cluster(kPartitions, sim::CostModel{});
  IngestResult result = IngestWithStrategy(
      edges, GetParam(), MakeContext(kPartitions, edges.num_vertices(), 7),
      cluster);
  const DistributedGraph& dg = result.graph;

  EXPECT_EQ(dg.edges.size(), edges.num_edges());
  EXPECT_EQ(dg.num_partitions, kPartitions);
  // Every edge assigned in range.
  uint64_t total = 0;
  for (uint64_t count : dg.partition_edge_count) total += count;
  EXPECT_EQ(total, edges.num_edges());
  // Replication factor is at least 1 and at most the machine count.
  EXPECT_GE(dg.replication_factor, 1.0);
  EXPECT_LE(dg.replication_factor, static_cast<double>(kPartitions));
  // Every present vertex has a master on a machine holding a replica.
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (!dg.present[v]) continue;
    ASSERT_NE(dg.master[v], ReplicaTable::kInvalid);
    EXPECT_TRUE(dg.replicas.Contains(v, dg.master[v]));
  }
  // Edge endpoints are replicated where their edges live.
  for (uint64_t i = 0; i < dg.edges.size(); ++i) {
    EXPECT_TRUE(dg.replicas.Contains(dg.edges[i].src, dg.edge_partition[i]));
    EXPECT_TRUE(dg.replicas.Contains(dg.edges[i].dst, dg.edge_partition[i]));
  }
  EXPECT_GT(result.report.ingress_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EveryStrategyTest,
    ::testing::ValuesIn(AllStrategies()),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Hash-strategy specifics
// ---------------------------------------------------------------------------

TEST(HashPartitionerTest, RandomIsCanonical) {
  PartitionContext context = MakeContext(9, 100);
  RandomPartitioner p(context);
  EXPECT_EQ(p.Assign({3, 8}, 0, 0), p.Assign({8, 3}, 0, 0));
}

TEST(HashPartitionerTest, AsymmetricRandomIsNotCanonical) {
  PartitionContext context = MakeContext(9, 100);
  AsymmetricRandomPartitioner p(context);
  // Over many pairs, some must split across machines.
  int split = 0;
  for (graph::VertexId u = 0; u < 40; ++u) {
    for (graph::VertexId v = u + 1; v < 40; ++v) {
      if (p.Assign({u, v}, 0, 0) != p.Assign({v, u}, 0, 0)) ++split;
    }
  }
  EXPECT_GT(split, 0);
}

TEST(HashPartitionerTest, OneDColocatesSourceEdges) {
  PartitionContext context = MakeContext(9, 100);
  OneDPartitioner p(context, /*by_target=*/false);
  MachineId m = p.Assign({5, 1}, 0, 0);
  EXPECT_EQ(p.Assign({5, 2}, 0, 0), m);
  EXPECT_EQ(p.Assign({5, 77}, 0, 0), m);
}

TEST(HashPartitionerTest, OneDTargetColocatesInEdges) {
  PartitionContext context = MakeContext(9, 100);
  OneDPartitioner p(context, /*by_target=*/true);
  MachineId m = p.Assign({1, 5}, 0, 0);
  EXPECT_EQ(p.Assign({2, 5}, 0, 0), m);
  EXPECT_EQ(p.Assign({93, 5}, 0, 0), m);
  EXPECT_EQ(p.kind(), StrategyKind::kOneDTarget);
}

TEST(HashPartitionerTest, OneDTargetMasterMatchesInEdgeLocation) {
  PartitionContext context = MakeContext(9, 100);
  OneDPartitioner p(context, /*by_target=*/true);
  graph::VertexId v = 5;
  EXPECT_EQ(p.PreferredMaster(v), p.Assign({1, v}, 0, 0));
}

TEST(HashPartitionerTest, TwoDUsesCeilSqrtSide) {
  EXPECT_EQ(TwoDPartitioner(MakeContext(9, 10)).side(), 3u);
  EXPECT_EQ(TwoDPartitioner(MakeContext(10, 10)).side(), 4u);
  EXPECT_EQ(TwoDPartitioner(MakeContext(160, 10)).side(), 13u);
}

TEST(HashPartitionerTest, TwoDBoundsReplication) {
  // Property: a vertex's edges land on at most 2*sqrt(N)-1 partitions.
  const uint32_t n = 16;
  PartitionContext context = MakeContext(n, 2000);
  TwoDPartitioner p(context);
  for (graph::VertexId v = 0; v < 50; ++v) {
    std::set<MachineId> partitions;
    for (graph::VertexId u = 0; u < 500; ++u) {
      if (u == v) continue;
      partitions.insert(p.Assign({v, u}, 0, 0));
      partitions.insert(p.Assign({u, v}, 0, 0));
    }
    EXPECT_LE(partitions.size(), 2u * 4 - 1);
  }
}

TEST(HashPartitionerTest, TwoDBoundsInEdgeSpread) {
  // The tighter bound that §8.2.3 credits for 2D's hybrid-engine synergy:
  // in-edges of any vertex touch at most sqrt(N) partitions.
  const uint32_t n = 16;
  TwoDPartitioner p(MakeContext(n, 2000));
  for (graph::VertexId v = 0; v < 50; ++v) {
    std::set<MachineId> partitions;
    for (graph::VertexId u = 0; u < 500; ++u) {
      if (u != v) partitions.insert(p.Assign({u, v}, 0, 0));
    }
    EXPECT_LE(partitions.size(), 4u);
  }
}

}  // namespace
}  // namespace gdp::partition
