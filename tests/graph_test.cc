#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/graph_stats.h"
#include "graph/io.h"

namespace gdp::graph {
namespace {

// ---------------------------------------------------------------------------
// EdgeList
// ---------------------------------------------------------------------------

TEST(EdgeListTest, AddEdgeGrowsVertexCount) {
  EdgeList edges;
  edges.AddEdge(3, 7);
  EXPECT_EQ(edges.num_vertices(), 8u);
  EXPECT_EQ(edges.num_edges(), 1u);
  edges.AddEdge(1, 2);
  EXPECT_EQ(edges.num_vertices(), 8u);
}

TEST(EdgeListTest, DeduplicateRemovesDuplicatesAndLoops) {
  EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(0, 1);
  edges.AddEdge(2, 2);
  edges.AddEdge(1, 0);  // reverse is NOT a duplicate
  edges.Deduplicate();
  EXPECT_EQ(edges.num_edges(), 2u);
}

TEST(EdgeListTest, SymmetrizedContainsBothDirections) {
  EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(1, 2);
  EdgeList sym = edges.Symmetrized();
  EXPECT_EQ(sym.num_edges(), 4u);
  std::set<std::pair<VertexId, VertexId>> set;
  for (const Edge& e : sym.edges()) set.insert({e.src, e.dst});
  EXPECT_TRUE(set.count({1, 0}));
  EXPECT_TRUE(set.count({2, 1}));
}

TEST(EdgeListTest, DegreeArrays) {
  EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(0, 2);
  edges.AddEdge(1, 2);
  auto out = edges.OutDegrees();
  auto in = edges.InDegrees();
  auto total = edges.TotalDegrees();
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(in[2], 2u);
  EXPECT_EQ(total[1], 2u);
  EXPECT_EQ(total[0], 2u);
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(GeneratorTest, RoadNetworkIsLowDegree) {
  EdgeList g = GenerateRoadNetwork({.width = 60, .height = 60, .seed = 1});
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.classified, GraphClass::kLowDegree);
  EXPECT_LE(stats.max_total_degree, 16u);
  EXPECT_EQ(stats.num_vertices, 3600u);
}

TEST(GeneratorTest, RoadNetworkIsSymmetric) {
  EdgeList g = GenerateRoadNetwork({.width = 20, .height = 20, .seed = 2});
  std::set<std::pair<VertexId, VertexId>> set;
  for (const Edge& e : g.edges()) set.insert({e.src, e.dst});
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(set.count({e.dst, e.src}))
        << e.src << "->" << e.dst << " missing reverse";
  }
}

TEST(GeneratorTest, HeavyTailedIsHeavyTailed) {
  EdgeList g = GenerateHeavyTailed(
      {.num_vertices = 8000, .edges_per_vertex = 8, .seed = 3});
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.classified, GraphClass::kHeavyTailed);
  // Preferential attachment: no vertex below the attachment count.
  auto degrees = g.TotalDegrees();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(degrees[v], 8u);
  }
}

TEST(GeneratorTest, PowerLawWebIsPowerLawWithLowDegreeMass) {
  EdgeList g = GeneratePowerLawWeb({.num_vertices = 20000, .seed = 4});
  GraphStats stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.classified, GraphClass::kPowerLaw);
  // Large low-degree population (UK-web-like), unlike the social graph.
  EXPECT_GT(stats.low_degree_fraction, 0.2);
  // And real hubs.
  EXPECT_GT(stats.max_total_degree, 1000u);
}

TEST(GeneratorTest, GeneratorsAreDeterministic) {
  EdgeList a = GenerateHeavyTailed({.num_vertices = 500, .seed = 9});
  EdgeList b = GenerateHeavyTailed({.num_vertices = 500, .seed = 9});
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(GeneratorTest, DifferentSeedsGiveDifferentGraphs) {
  EdgeList a = GeneratePowerLawWeb({.num_vertices = 500, .seed = 1});
  EdgeList b = GeneratePowerLawWeb({.num_vertices = 500, .seed = 2});
  EXPECT_NE(a.edges(), b.edges());
}

TEST(GeneratorTest, RmatRespectsScaleAndDedupes) {
  EdgeList g = GenerateRmat({.scale = 10, .num_edges = 5000, .seed = 5});
  EXPECT_LE(g.num_vertices(), 1u << 10);
  std::set<std::pair<VertexId, VertexId>> set;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_TRUE(set.insert({e.src, e.dst}).second) << "duplicate edge";
  }
}

TEST(GeneratorTest, ErdosRenyiExactEdgeCount) {
  EdgeList g = GenerateErdosRenyi(
      {.num_vertices = 200, .num_edges = 1000, .seed = 6});
  EXPECT_EQ(g.num_edges(), 1000u);
  std::set<std::pair<VertexId, VertexId>> set;
  for (const Edge& e : g.edges()) {
    EXPECT_TRUE(set.insert({e.src, e.dst}).second);
  }
}

// ---------------------------------------------------------------------------
// GraphStats / classification
// ---------------------------------------------------------------------------

TEST(GraphStatsTest, BasicCounts) {
  EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(1, 2);
  edges.AddEdge(2, 0);
  GraphStats stats = ComputeGraphStats(edges);
  EXPECT_EQ(stats.num_vertices, 3u);
  EXPECT_EQ(stats.num_edges, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_total_degree, 2.0);
}

TEST(GraphStatsTest, InDegreeHistogramExcludesZero) {
  EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(2, 1);
  GraphStats stats = ComputeGraphStats(edges);
  EXPECT_EQ(stats.in_degree_histogram.count(0), 0u);
  EXPECT_EQ(stats.in_degree_histogram.at(2), 1u);  // vertex 1
}

TEST(GraphStatsTest, ClassifierUsesLowDegreeResidual) {
  GraphStats stats;
  stats.max_total_degree = 100000;
  stats.mean_total_degree = 10;
  stats.low_degree_residual = 0.1;
  EXPECT_EQ(ClassifyGraph(stats), GraphClass::kHeavyTailed);
  stats.low_degree_residual = 2.0;
  EXPECT_EQ(ClassifyGraph(stats), GraphClass::kPowerLaw);
}

TEST(GraphStatsTest, SmallMaxDegreeIsLowDegree) {
  GraphStats stats;
  stats.max_total_degree = 12;
  stats.mean_total_degree = 4;
  stats.low_degree_residual = 5;
  EXPECT_EQ(ClassifyGraph(stats), GraphClass::kLowDegree);
}

TEST(GraphStatsTest, ClassNamesAreDistinct) {
  EXPECT_STRNE(GraphClassName(GraphClass::kLowDegree),
               GraphClassName(GraphClass::kHeavyTailed));
  EXPECT_STRNE(GraphClassName(GraphClass::kHeavyTailed),
               GraphClassName(GraphClass::kPowerLaw));
}

// ---------------------------------------------------------------------------
// IO
// ---------------------------------------------------------------------------

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
};

TEST_F(IoTest, RoundTrip) {
  EdgeList edges("roundtrip", 0, {});
  edges.AddEdge(0, 1);
  edges.AddEdge(1, 2);
  edges.AddEdge(2, 0);
  std::string path = TempPath("gdp_io_roundtrip.txt");
  ASSERT_TRUE(SaveEdgeList(edges, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 3u);
  EXPECT_EQ(loaded.value().num_vertices(), 3u);
  std::remove(path.c_str());
}

TEST_F(IoTest, LoadSkipsCommentsAndRenumbers) {
  std::string path = TempPath("gdp_io_comments.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# comment line\n1000000 2000000\n2000000 1000000\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_vertices(), 2u);  // dense ids 0,1
  EXPECT_EQ(loaded.value().num_edges(), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileIsNotFound) {
  auto loaded = LoadEdgeList("/nonexistent/definitely/missing.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(IoTest, MalformedLineIsInvalidArgument) {
  std::string path = TempPath("gdp_io_bad.txt");
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("0 1\nnot numbers\n", f);
  fclose(f);
  auto loaded = LoadEdgeList(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gdp::graph
