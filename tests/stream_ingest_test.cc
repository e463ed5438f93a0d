// The streaming-ingress pipeline over the compressed EdgeBlockStore: the
// block path must be bit-identical to the flat path and the serial
// IngestReference oracle — DistributedGraph, IngressReport, per-machine
// cluster accounting — at any thread count or block size, for every
// strategy. Plus the byte ledger's conservation rules and the
// materialize_edges=false mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/edge_block_store.h"
#include "graph/generators.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace gdp::partition {
namespace {

constexpr uint32_t kMachines = 7;  // does not divide most state sizes
constexpr uint32_t kLoaders = 13;

PartitionContext MakeContext(graph::VertexId vertices) {
  PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = vertices;
  context.num_loaders = kLoaders;
  context.seed = 29;
  return context;
}

graph::EdgeList TestGraph() {
  return graph::GenerateHeavyTailed(
      {.num_vertices = 3000, .edges_per_vertex = 6, .seed = 41});
}

struct IngestRun {
  IngestResult result;
  std::vector<double> busy_seconds;
  std::vector<uint64_t> bytes_sent;
  std::vector<uint64_t> bytes_received;
  std::vector<uint64_t> memory_bytes;
  std::vector<uint64_t> peak_memory_bytes;
  double now_seconds = 0;
};

enum class Path { kReference, kFlat, kBlock };

IngestRun RunIngest(const graph::EdgeList& edges, StrategyKind kind,
                    const IngestOptions& options, Path path,
                    uint32_t block_size = 0) {
  PartitionContext context = MakeContext(edges.num_vertices());
  std::unique_ptr<Partitioner> partitioner = MakePartitioner(kind, context);
  sim::Cluster cluster(kMachines, sim::CostModel{});
  IngestRun run;
  switch (path) {
    case Path::kReference:
      run.result = IngestReference(edges, *partitioner, cluster, options);
      break;
    case Path::kFlat:
      run.result = Ingest(edges, *partitioner, cluster, options);
      break;
    case Path::kBlock: {
      graph::EdgeBlockStore::Options store_options;
      if (block_size != 0) store_options.block_size_edges = block_size;
      const graph::EdgeBlockStore store =
          graph::EdgeBlockStore::FromEdges(edges, store_options);
      run.result = Ingest(store, *partitioner, cluster, options);
      break;
    }
  }
  for (uint32_t m = 0; m < kMachines; ++m) {
    const sim::Machine& machine = cluster.machine(m);
    run.busy_seconds.push_back(machine.busy_seconds());
    run.bytes_sent.push_back(machine.bytes_sent());
    run.bytes_received.push_back(machine.bytes_received());
    run.memory_bytes.push_back(machine.memory_bytes());
    run.peak_memory_bytes.push_back(machine.peak_memory_bytes());
  }
  run.now_seconds = cluster.now_seconds();
  return run;
}

void ExpectRunsIdentical(const IngestRun& expected, const IngestRun& actual,
                         const std::string& label,
                         bool compare_edges = true) {
  SCOPED_TRACE(label);
  const DistributedGraph& a = expected.result.graph;
  const DistributedGraph& b = actual.result.graph;
  ASSERT_EQ(a.num_partitions, b.num_partitions);
  if (compare_edges) {
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (uint64_t i = 0; i < a.edges.size(); ++i) {
      ASSERT_EQ(a.edges[i].src, b.edges[i].src) << "edge " << i;
      ASSERT_EQ(a.edges[i].dst, b.edges[i].dst) << "edge " << i;
    }
  }
  ASSERT_EQ(a.edge_partition.size(), b.edge_partition.size());
  EXPECT_EQ(a.edge_partition, b.edge_partition);
  EXPECT_EQ(a.master, b.master);
  EXPECT_EQ(a.present, b.present);
  EXPECT_EQ(a.num_present_vertices, b.num_present_vertices);
  EXPECT_EQ(a.partition_edge_count, b.partition_edge_count);
  EXPECT_EQ(a.replication_factor, b.replication_factor);
  EXPECT_EQ(a.out_degree, b.out_degree);
  EXPECT_EQ(a.in_degree, b.in_degree);
  for (graph::VertexId v = 0; v < a.num_vertices; ++v) {
    ASSERT_EQ(a.replicas.Count(v), b.replicas.Count(v)) << "v=" << v;
    ASSERT_EQ(a.in_edge_partitions.Count(v), b.in_edge_partitions.Count(v));
    ASSERT_EQ(a.out_edge_partitions.Count(v),
              b.out_edge_partitions.Count(v));
    for (sim::MachineId p = 0; p < a.num_partitions; ++p) {
      ASSERT_EQ(a.replicas.Contains(v, p), b.replicas.Contains(v, p));
    }
  }

  const IngressReport& ra = expected.result.report;
  const IngressReport& rb = actual.result.report;
  EXPECT_EQ(ra.ingress_seconds, rb.ingress_seconds);
  ASSERT_EQ(ra.pass_seconds.size(), rb.pass_seconds.size());
  for (size_t i = 0; i < ra.pass_seconds.size(); ++i) {
    EXPECT_EQ(ra.pass_seconds[i], rb.pass_seconds[i]) << "pass " << i;
  }
  EXPECT_EQ(ra.edges_moved, rb.edges_moved);
  EXPECT_EQ(ra.replication_factor, rb.replication_factor);
  EXPECT_EQ(ra.edge_balance_ratio, rb.edge_balance_ratio);
  EXPECT_EQ(ra.peak_state_bytes, rb.peak_state_bytes);

  EXPECT_EQ(expected.busy_seconds, actual.busy_seconds);
  EXPECT_EQ(expected.bytes_sent, actual.bytes_sent);
  EXPECT_EQ(expected.bytes_received, actual.bytes_received);
  EXPECT_EQ(expected.memory_bytes, actual.memory_bytes);
  EXPECT_EQ(expected.peak_memory_bytes, actual.peak_memory_bytes);
  EXPECT_EQ(expected.now_seconds, actual.now_seconds);
}

class StreamIngestTest : public ::testing::TestWithParam<StrategyKind> {};

// The core contract: block path == serial oracle, at thread counts
// {1, 2, 8} and a block size (57) chosen to misalign with every loader
// boundary, so boundary blocks are consumed by two loaders.
TEST_P(StreamIngestTest, BlockPathBitIdenticalToReference) {
  graph::EdgeList edges = TestGraph();
  IngestOptions options;
  options.num_loaders = kLoaders;
  IngestRun reference =
      RunIngest(edges, GetParam(), options, Path::kReference);
  for (uint32_t threads : {1u, 2u, 8u}) {
    options.exec.num_threads = threads;
    IngestRun block = RunIngest(edges, GetParam(), options, Path::kBlock,
                                /*block_size=*/57);
    ExpectRunsIdentical(reference, block,
                        "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StreamIngestTest,
    ::testing::Values(StrategyKind::kRandom, StrategyKind::kAsymmetricRandom,
                      StrategyKind::kGrid, StrategyKind::kPds,
                      StrategyKind::kOblivious, StrategyKind::kHdrf,
                      StrategyKind::kHybrid, StrategyKind::kHybridGinger,
                      StrategyKind::kOneD, StrategyKind::kOneDTarget,
                      StrategyKind::kTwoD, StrategyKind::kChunked,
                      StrategyKind::kDbh),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      switch (info.param) {
        case StrategyKind::kRandom: return std::string("Random");
        case StrategyKind::kAsymmetricRandom:
          return std::string("AsymmetricRandom");
        case StrategyKind::kGrid: return std::string("Grid");
        case StrategyKind::kPds: return std::string("Pds");
        case StrategyKind::kOblivious: return std::string("Oblivious");
        case StrategyKind::kHdrf: return std::string("Hdrf");
        case StrategyKind::kHybrid: return std::string("Hybrid");
        case StrategyKind::kHybridGinger: return std::string("HybridGinger");
        case StrategyKind::kOneD: return std::string("OneD");
        case StrategyKind::kOneDTarget: return std::string("OneDTarget");
        case StrategyKind::kTwoD: return std::string("TwoD");
        case StrategyKind::kChunked: return std::string("Chunked");
        case StrategyKind::kDbh: return std::string("Dbh");
        default: return std::string("Other");
      }
    });

// Block size changes only wall-clock behavior, never results.
TEST(StreamIngestTest, InvariantAcrossBlockSizes) {
  graph::EdgeList edges = TestGraph();
  IngestOptions options;
  options.num_loaders = kLoaders;
  options.exec.num_threads = 8;
  IngestRun baseline = RunIngest(edges, StrategyKind::kHybridGinger, options,
                                 Path::kBlock, /*block_size=*/4096);
  for (uint32_t block_size : {64u, 1000u}) {
    IngestRun run = RunIngest(edges, StrategyKind::kHybridGinger, options,
                              Path::kBlock, block_size);
    ExpectRunsIdentical(baseline, run,
                        "block_size=" + std::to_string(block_size));
  }
}

// The byte ledger: each loader decodes into one buffer of its own, at any
// thread count; ring_bytes is exactly ring_buffers * block_bytes and the
// peak ledger adds the partitioner's peak state.
TEST(StreamIngestTest, MemoryLedgerConservation) {
  graph::EdgeList edges = TestGraph();
  const graph::EdgeBlockStore store = graph::EdgeBlockStore::FromEdges(
      edges, graph::EdgeBlockStore::Options(512));
  const uint64_t block_bytes = 512 * sizeof(graph::Edge);

  for (uint32_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PartitionContext context = MakeContext(edges.num_vertices());
    std::unique_ptr<Partitioner> partitioner =
        MakePartitioner(StrategyKind::kHdrf, context);
    sim::Cluster cluster(kMachines, sim::CostModel{});
    IngestOptions options;
    options.num_loaders = kLoaders;
    options.exec.num_threads = threads;
    IngestMemoryStats stats;
    options.memory_stats = &stats;
    IngestResult result = Ingest(store, *partitioner, cluster, options);
    EXPECT_EQ(stats.ring_buffers, uint64_t{kLoaders});
    EXPECT_EQ(stats.block_bytes, block_bytes);
    EXPECT_EQ(stats.ring_bytes, stats.ring_buffers * stats.block_bytes);
    EXPECT_EQ(stats.peak_state_bytes, result.report.peak_state_bytes);
    EXPECT_EQ(stats.peak_ledger_bytes,
              stats.ring_bytes + stats.peak_state_bytes);
    EXPECT_EQ(stats.store_resident_bytes, store.ResidentBytes());
  }
}

// materialize_edges=false: the output graph carries no flat edge vector,
// but everything else — placement, tables, masters, degrees, report,
// cluster accounting — is bit-identical to the materialized run.
TEST(StreamIngestTest, UnmaterializedEdgesMatchEverythingElse) {
  graph::EdgeList edges = TestGraph();
  IngestOptions options;
  options.num_loaders = kLoaders;
  options.exec.num_threads = 8;
  IngestRun materialized = RunIngest(edges, StrategyKind::kHybrid, options,
                                     Path::kBlock, /*block_size=*/511);
  options.materialize_edges = false;
  IngestRun streamed = RunIngest(edges, StrategyKind::kHybrid, options,
                                 Path::kBlock, /*block_size=*/511);
  EXPECT_TRUE(streamed.result.graph.edges.empty());
  EXPECT_EQ(materialized.result.graph.edges.size(), edges.num_edges());
  ExpectRunsIdentical(materialized, streamed, "unmaterialized",
                      /*compare_edges=*/false);
}

// Tiny inputs: fewer edges than loaders leaves some loaders with empty
// ranges; single-edge blocks; more machines than edges.
TEST(StreamIngestTest, TinyInputsAndEmptyLoaderRanges) {
  graph::EdgeList edges;
  edges.AddEdge(0, 1);
  edges.AddEdge(1, 2);
  edges.AddEdge(2, 0);
  IngestOptions options;
  options.num_loaders = kLoaders;  // most loaders get no edges
  options.exec.num_threads = 8;
  IngestRun reference =
      RunIngest(edges, StrategyKind::kRandom, options, Path::kReference);
  IngestRun block = RunIngest(edges, StrategyKind::kRandom, options,
                              Path::kBlock, /*block_size=*/1);
  ExpectRunsIdentical(reference, block, "three edges, block_size=1");
}

// The IngestWithStrategy seam: use_block_store routes through the store and
// produces the same result as the flat convenience path.
TEST(StreamIngestTest, IngestWithStrategyBlockSeam) {
  graph::EdgeList edges = TestGraph();
  PartitionContext context = MakeContext(edges.num_vertices());
  IngestOptions options;
  options.num_loaders = kLoaders;
  options.exec.num_threads = 8;

  sim::Cluster flat_cluster(kMachines, sim::CostModel{});
  IngestResult flat = IngestWithStrategy(edges, StrategyKind::kHdrf, context,
                                         flat_cluster, options);

  options.use_block_store = true;
  IngestMemoryStats stats;
  options.memory_stats = &stats;
  sim::Cluster block_cluster(kMachines, sim::CostModel{});
  IngestResult block = IngestWithStrategy(edges, StrategyKind::kHdrf, context,
                                          block_cluster, options);

  EXPECT_EQ(flat.graph.edge_partition, block.graph.edge_partition);
  EXPECT_EQ(flat.graph.master, block.graph.master);
  EXPECT_EQ(flat.report.ingress_seconds, block.report.ingress_seconds);
  EXPECT_EQ(stats.block_bytes,
            uint64_t{graph::EdgeBlockStore::kDefaultBlockSizeEdges} *
                sizeof(graph::Edge));
  EXPECT_GT(stats.ring_buffers, 0u);
}

}  // namespace
}  // namespace gdp::partition
