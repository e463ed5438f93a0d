#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "apps/pagerank.h"
#include "engine/gas_engine.h"
#include "graph/generators.h"
#include "partition/ingest.h"
#include "partition/placement_io.h"
#include "partition/validate.h"

namespace gdp::partition {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class PlacementIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_ = graph::GenerateHeavyTailed(
        {.num_vertices = 1500, .edges_per_vertex = 5, .seed = 91});
    sim::Cluster cluster(8, sim::CostModel{});
    PartitionContext context;
    context.num_partitions = 8;
    context.num_vertices = edges_.num_vertices();
    context.num_loaders = 8;
    original_ = IngestWithStrategy(edges_, StrategyKind::kHdrf, context,
                                   cluster)
                    .graph;
  }

  graph::EdgeList edges_;
  DistributedGraph original_;
};

TEST_F(PlacementIoTest, RoundTripPreservesEverything) {
  std::string path = TempPath("gdp_placement_roundtrip.txt");
  ASSERT_TRUE(SavePlacement(original_, path).ok());
  auto loaded = LoadPlacement(path);
  ASSERT_TRUE(loaded.ok());
  auto rebuilt = ApplyPlacement(edges_, loaded.value());
  ASSERT_TRUE(rebuilt.ok());
  const DistributedGraph& dg = rebuilt.value();

  EXPECT_EQ(dg.num_partitions, original_.num_partitions);
  EXPECT_EQ(dg.edge_partition, original_.edge_partition);
  EXPECT_EQ(dg.master, original_.master);
  EXPECT_DOUBLE_EQ(dg.replication_factor, original_.replication_factor);
  EXPECT_EQ(dg.partition_edge_count, original_.partition_edge_count);
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    EXPECT_EQ(dg.replicas.Count(v), original_.replicas.Count(v));
  }
  EXPECT_EQ(dg.present, original_.present);
  EXPECT_EQ(dg.out_degree, original_.out_degree);
  EXPECT_EQ(dg.in_degree, original_.in_degree);
  const util::Status valid = ValidateDistributedGraph(dg);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  std::remove(path.c_str());
}

TEST_F(PlacementIoTest, ReloadedPlacementRunsIdentically) {
  // The §5.4.3 reuse workflow: a reloaded partitioning must produce the
  // same computation results and the same simulated costs.
  std::string path = TempPath("gdp_placement_rerun.txt");
  ASSERT_TRUE(SavePlacement(original_, path).ok());
  auto rebuilt = ApplyPlacement(edges_, LoadPlacement(path).value());
  ASSERT_TRUE(rebuilt.ok());

  engine::RunOptions options;
  options.max_iterations = 5;
  sim::Cluster c1(8, sim::CostModel{});
  sim::Cluster c2(8, sim::CostModel{});
  auto run1 = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                   original_, c1, apps::PageRankFixed(),
                                   options);
  auto run2 = engine::RunGasEngine(engine::EngineKind::kPowerGraphSync,
                                   rebuilt.value(), c2,
                                   apps::PageRankFixed(), options);
  EXPECT_EQ(run1.states, run2.states);
  EXPECT_EQ(run1.stats.network_bytes, run2.stats.network_bytes);
  EXPECT_DOUBLE_EQ(run1.stats.compute_seconds, run2.stats.compute_seconds);
  std::remove(path.c_str());
}

TEST_F(PlacementIoTest, RejectsMismatchedEdgeList) {
  std::string path = TempPath("gdp_placement_mismatch.txt");
  ASSERT_TRUE(SavePlacement(original_, path).ok());
  auto loaded = LoadPlacement(path);
  ASSERT_TRUE(loaded.ok());
  graph::EdgeList other = graph::GenerateHeavyTailed(
      {.num_vertices = 1000, .edges_per_vertex = 5, .seed = 92});
  auto rebuilt = ApplyPlacement(other, loaded.value());
  EXPECT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(),
            util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

// A vertex with no edges has no master; a placement that gives it one
// would build a graph that fails ValidateDistributedGraph.
TEST_F(PlacementIoTest, MasterForEdgelessVertexIsFailedPrecondition) {
  std::string path = TempPath("gdp_placement_edgeless_master.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // 2 partitions, 2 machines, 4 vertices, 2 edges; vertex 3 has no edges
  // but master 0.
  fputs("gdp-placement v1\n2 2 4 2\n0\n1\n0\n0\n1\n0\n", f);
  fclose(f);
  auto loaded = LoadPlacement(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const graph::EdgeList edges("t", 4, {{0, 1}, {1, 2}});
  auto rebuilt = ApplyPlacement(edges, loaded.value());
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST_F(PlacementIoTest, RejectsCorruptHeader) {
  std::string path = TempPath("gdp_placement_bad.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("not a placement file\n1 2 3 4\n", f);
  fclose(f);
  auto loaded = LoadPlacement(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(PlacementIoTest, RejectsOutOfRangePartition) {
  std::string path = TempPath("gdp_placement_oob.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("gdp-placement v1\n4 4 2 1\n9\n0\n0\n", f);  // partition 9 >= 4
  fclose(f);
  auto loaded = LoadPlacement(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// Header counts are checked against the file length before anything is
// sized: 2^40 edges cannot fit in a file of a few bytes.
TEST_F(PlacementIoTest, HeaderCountsBeyondFileLengthAreInvalidArgument) {
  std::string path = TempPath("gdp_placement_huge_counts.txt");
  for (const char* body : {"gdp-placement v1\n1 1 1 1099511627776\n0\n0\n",
                           "gdp-placement v1\n1 1 4000000000 0\n0\n"}) {
    SCOPED_TRACE(body);
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(body, f);
    fclose(f);
    auto loaded = LoadPlacement(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

// Machine and partition counts are bounded before anything is sized:
// machines in [1, 64] (64-bit machine masks), partitions in [1, 65535]
// (16-bit GraphX fan-out counts).
TEST_F(PlacementIoTest, HeaderMachineAndPartitionBoundsAreInvalidArgument) {
  std::string path = TempPath("gdp_placement_bounds.txt");
  for (const char* counts :
       {"4294967295 4", "65536 4", "0 4", "4 0", "4 65"}) {
    SCOPED_TRACE(counts);
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fprintf(f, "gdp-placement v1\n%s 2 1\n0\n0\n0\n", counts);
    fclose(f);
    auto loaded = LoadPlacement(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST_F(PlacementIoTest, MissingFileIsNotFound) {
  auto loaded = LoadPlacement("/nonexistent/placement.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace gdp::partition
