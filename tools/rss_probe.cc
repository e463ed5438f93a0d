// rss_probe — host-memory gate for the bounded streaming ingress
// (DESIGN.md §14). Builds a compressed EdgeBlockStore, then runs an
// unmaterialized block-streamed ingest and checks that each loader held one
// decode buffer and that the process's peak-RSS growth during ingest stays
// within what the exact byte ledger (IngestMemoryStats) predicts, plus an
// allocator/result slack. check.sh runs this as its peak-RSS leg; exits
// non-zero when either check fails, i.e. when the pipeline resident set
// escapes the ledger.
//
// This is a host-resource probe, not a simulation artifact: wall-clock and
// RSS here never feed simulated results (which stay bit-identical across
// all of these knobs — the ingest determinism contract).

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>

#include "graph/edge_block_store.h"
#include "graph/generators.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace {

uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is KiB on Linux.
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

int main() {
  using namespace gdp;

  constexpr uint32_t kMachines = 9;
  constexpr uint32_t kLoaders = 16;

  // Build the compressed store in a scope so the flat generator output is
  // freed (and counted into the baseline peak) before ingest begins.
  graph::EdgeBlockStore store = [] {
    graph::EdgeList edges = graph::GenerateHeavyTailed(
        {.num_vertices = 60000, .edges_per_vertex = 12, .seed = 0x55});
    edges.set_name("rss-probe");
    return graph::EdgeBlockStore::FromEdges(edges);
  }();

  const uint64_t baseline_peak = PeakRssBytes();

  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = store.num_vertices();
  context.num_loaders = kLoaders;
  context.seed = 3;
  auto partitioner =
      partition::MakePartitioner(partition::StrategyKind::kHdrf, context);
  sim::Cluster cluster(kMachines, sim::CostModel{});

  partition::IngestOptions options;
  options.num_loaders = kLoaders;
  options.materialize_edges = false;
  partition::IngestMemoryStats stats;
  options.memory_stats = &stats;
  partition::IngestResult result =
      Ingest(store, *partitioner, cluster, options);

  const uint64_t after_peak = PeakRssBytes();
  const uint64_t growth = after_peak - baseline_peak;
  // The ledger's resident prediction: the decode buffers plus peak
  // partitioner state. The replica/master tables in the result
  // DistributedGraph and allocator fragmentation ride on top — a 2x factor
  // plus a fixed slack bounds both while still catching a pipeline that
  // decodes the whole stream resident.
  const uint64_t slack = 32ull << 20;
  const uint64_t bound = 2 * stats.peak_ledger_bytes + slack;

  std::printf("graph: %llu edges, %llu vertices\n",
              static_cast<unsigned long long>(store.num_edges()),
              static_cast<unsigned long long>(store.num_vertices()));
  std::printf("store resident:      %10llu bytes\n",
              static_cast<unsigned long long>(store.ResidentBytes()));
  std::printf("decode buffers:      %10llu bytes (%llu buffers)\n",
              static_cast<unsigned long long>(stats.ring_bytes),
              static_cast<unsigned long long>(stats.ring_buffers));
  std::printf("peak ledger:         %10llu bytes\n",
              static_cast<unsigned long long>(stats.peak_ledger_bytes));
  std::printf("baseline peak RSS:   %10llu bytes\n",
              static_cast<unsigned long long>(baseline_peak));
  std::printf("post-ingest peak RSS:%10llu bytes\n",
              static_cast<unsigned long long>(after_peak));
  std::printf("ingest RSS growth:   %10llu bytes (bound %llu)\n",
              static_cast<unsigned long long>(growth),
              static_cast<unsigned long long>(bound));
  std::printf("replication factor:  %.3f\n",
              result.report.replication_factor);

  if (stats.ring_buffers != kLoaders) {
    std::printf("FAIL: expected one decode buffer per loader\n");
    return 1;
  }
  if (growth > bound) {
    std::printf("FAIL: ingest RSS growth exceeds the ledger bound\n");
    return 1;
  }
  std::printf("PASS: streaming ingest stayed within the ledger bound\n");
  return 0;
}
