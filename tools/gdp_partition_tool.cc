// gdp-partition: partition a plain-text edge list with any strategy and
// write the placement to a file (reusable via gdp-run, per the paper's
// §5.4.3 partition-reuse workflow). Prints the §4.3 ingress metrics.
//
//   gdp-partition <edge-list> <strategy> <machines> [placement-out]
//
// Strategies: Random, Assym-Rand, Grid, PDS, Oblivious, HDRF, Hybrid,
// H-Ginger, 1D, 1D-Target, 2D, Chunked.

#include <cstdio>
#include <string>

#include "graph/graph_stats.h"
#include "graph/io.h"
#include "machines_arg.h"
#include "partition/ingest.h"
#include "partition/placement_io.h"
#include "sim/cluster.h"

int main(int argc, char** argv) {
  using namespace gdp;
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s <edge-list> <strategy> <machines> "
                 "[placement-out]\n",
                 argv[0]);
    return 2;
  }
  const uint32_t machines = tools::ParseMachinesArg(argv[3]);
  if (machines == 0) return 1;
  util::StatusOr<graph::EdgeList> loaded = graph::LoadEdgeList(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  graph::EdgeList edges = std::move(loaded).value();
  util::StatusOr<partition::StrategyKind> strategy =
      partition::StrategyFromName(argv[2]);
  if (!strategy.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 strategy.status().ToString().c_str());
    return 1;
  }
  graph::GraphStats stats = graph::ComputeGraphStats(edges);
  std::printf("graph: |V|=%u |E|=%llu class=%s\n", stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              graph::GraphClassName(stats.classified));

  sim::Cluster cluster(machines, sim::CostModel{});
  partition::PartitionContext context;
  context.num_partitions = machines;
  context.num_vertices = edges.num_vertices();
  context.num_loaders = machines;
  partition::IngestResult result = partition::IngestWithStrategy(
      edges, strategy.value(), context, cluster);

  std::printf("strategy: %s on %u machines\n",
              partition::StrategyName(strategy.value()), machines);
  std::printf("replication factor: %.3f\n",
              result.report.replication_factor);
  std::printf("edge balance (max/mean): %.3f\n",
              result.report.edge_balance_ratio);
  std::printf("simulated ingress: %.4fs (%zu phases, %llu edges moved)\n",
              result.report.ingress_seconds,
              result.report.pass_seconds.size(),
              static_cast<unsigned long long>(result.report.edges_moved));

  if (argc > 4) {
    util::Status saved = partition::SavePlacement(result.graph, argv[4]);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("placement written to %s\n", argv[4]);
  }
  return 0;
}
