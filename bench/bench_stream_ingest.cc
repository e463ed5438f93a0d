// Streaming-ingress benchmark (no paper figure): the compressed edge-block
// store and the inline block-decode pipeline in front of the partitioner
// lanes (DESIGN.md §14).
//
// Claims gating this bench:
//  1. Compressed store: >= 2x smaller resident edge bytes than the flat
//     Edge vector on the crawl-ordered UK-web analog (always checked; the
//     shuffled Twitter-like stream's shrink is reported as a metric — a
//     shuffled src column caps fixed-width delta coding near 2x there).
//  2. Bit-identity matrix: flat and block-streamed Ingest() both reproduce
//     IngestReference() exactly — DistributedGraph, IngressReport, and
//     per-machine cluster counters — at 1/2/8 threads for all 13
//     strategies (always checked).
//  3. Byte ledger: one decode buffer per loader (ring_buffers == loaders),
//     ring_bytes == ring_buffers * block_bytes, and peak_ledger_bytes ==
//     ring_bytes + peak_state_bytes (always checked).

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/edge_block_store.h"
#include "partition/ingest.h"
#include "sim/cluster.h"

namespace {

using namespace gdp;

// 7 machines: the largest size every strategy accepts (PDS needs
// p^2+p+1), matching the ingest determinism suite.
constexpr uint32_t kMachines = 7;
constexpr uint32_t kLoaders = 16;

partition::PartitionContext MakeContext(graph::VertexId vertices) {
  partition::PartitionContext context;
  context.num_partitions = kMachines;
  context.num_vertices = vertices;
  context.num_loaders = kLoaders;
  context.seed = 3;
  return context;
}

enum class Path { kReference, kFlat, kBlock };

struct RunSnapshot {
  partition::IngestResult result;
  std::vector<double> busy_seconds;
  std::vector<uint64_t> bytes_sent;
  std::vector<uint64_t> bytes_received;
  std::vector<uint64_t> memory_bytes;
  std::vector<uint64_t> peak_memory_bytes;
  partition::IngestMemoryStats memory;
};

RunSnapshot RunOnce(const graph::EdgeList& edges,
                    const graph::EdgeBlockStore& store,
                    partition::StrategyKind kind, Path path,
                    uint32_t num_threads) {
  auto partitioner =
      partition::MakePartitioner(kind, MakeContext(edges.num_vertices()));
  sim::Cluster cluster(kMachines, sim::CostModel{});
  partition::IngestOptions options;
  options.num_loaders = kLoaders;
  options.exec.num_threads = num_threads;
  RunSnapshot snap;
  options.memory_stats = &snap.memory;
  switch (path) {
    case Path::kReference:
      snap.result = IngestReference(edges, *partitioner, cluster, options);
      break;
    case Path::kFlat:
      snap.result = Ingest(edges, *partitioner, cluster, options);
      break;
    case Path::kBlock:
      snap.result = Ingest(store, *partitioner, cluster, options);
      break;
  }
  for (uint32_t m = 0; m < kMachines; ++m) {
    const sim::Machine& machine = cluster.machine(m);
    snap.busy_seconds.push_back(machine.busy_seconds());
    snap.bytes_sent.push_back(machine.bytes_sent());
    snap.bytes_received.push_back(machine.bytes_received());
    snap.memory_bytes.push_back(machine.memory_bytes());
    snap.peak_memory_bytes.push_back(machine.peak_memory_bytes());
  }
  return snap;
}

bool SnapshotsIdentical(const RunSnapshot& a, const RunSnapshot& b) {
  const partition::IngressReport& ra = a.result.report;
  const partition::IngressReport& rb = b.result.report;
  return a.result.graph.edge_partition == b.result.graph.edge_partition &&
         a.result.graph.master == b.result.graph.master &&
         a.result.graph.partition_edge_count ==
             b.result.graph.partition_edge_count &&
         a.result.graph.edges == b.result.graph.edges &&
         ra.ingress_seconds == rb.ingress_seconds &&
         ra.pass_seconds == rb.pass_seconds &&
         ra.edges_moved == rb.edges_moved &&
         ra.replication_factor == rb.replication_factor &&
         ra.peak_state_bytes == rb.peak_state_bytes &&
         a.busy_seconds == b.busy_seconds && a.bytes_sent == b.bytes_sent &&
         a.bytes_received == b.bytes_received &&
         a.memory_bytes == b.memory_bytes &&
         a.peak_memory_bytes == b.peak_memory_bytes;
}

const std::vector<partition::StrategyKind>& AllThirteen() {
  static const std::vector<partition::StrategyKind> kinds = [] {
    std::vector<partition::StrategyKind> k = partition::AllStrategies();
    k.push_back(partition::StrategyKind::kChunked);
    k.push_back(partition::StrategyKind::kDbh);
    return k;
  }();
  return kinds;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Streaming ingress — compressed edge-block store + inline block "
      "decode",
      "13 strategies, 9 machines, 16 loaders; power-law (Twitter-like) "
      "graph");

  graph::EdgeList twitter = graph::GenerateHeavyTailed(
      {.num_vertices = 20000, .edges_per_vertex = 12, .seed = 0x7F});
  twitter.set_name("Twitter");
  const graph::EdgeBlockStore store = graph::EdgeBlockStore::FromEdges(twitter);

  // ---- Claim 1: resident shrink. -----------------------------------------
  // The UK-web analog is emitted in crawl order (ascending src, sorted
  // adjacency) like real web-graph snapshots, where delta coding shines;
  // the Twitter analog's stream is deliberately shuffled (generators.cc),
  // which caps per-block fixed-width deltas near 2x. Both are reported;
  // the web graph gates.
  graph::EdgeList ukweb = graph::GeneratePowerLawWeb(
      {.num_vertices = 30000, .out_alpha = 1.3, .seed = 0x0B});
  ukweb.set_name("UK-web");
  const graph::EdgeBlockStore web_store =
      graph::EdgeBlockStore::FromEdges(ukweb);
  const double web_shrink =
      static_cast<double>(ukweb.num_edges() * sizeof(graph::Edge)) /
      static_cast<double>(web_store.ResidentBytes());
  const double twitter_shrink =
      static_cast<double>(twitter.num_edges() * sizeof(graph::Edge)) /
      static_cast<double>(store.ResidentBytes());
  bench::Metric("ukweb_flat_edge_bytes",
                static_cast<double>(ukweb.num_edges() * sizeof(graph::Edge)));
  bench::Metric("ukweb_store_resident_bytes",
                static_cast<double>(web_store.ResidentBytes()));
  bench::Metric("ukweb_resident_shrink_x", web_shrink);
  bench::Metric("twitter_resident_shrink_x", twitter_shrink);

  // ---- Claim 2: bit-identity matrix. -------------------------------------
  bool identical = true;
  util::Table matrix({"strategy", "path", "threads", "== reference"});
  for (partition::StrategyKind kind : AllThirteen()) {
    const RunSnapshot reference =
        RunOnce(twitter, store, kind, Path::kReference, 1);
    for (Path path : {Path::kFlat, Path::kBlock}) {
      for (uint32_t threads : {1u, 2u, 8u}) {
        const RunSnapshot run = RunOnce(twitter, store, kind, path, threads);
        const bool same = SnapshotsIdentical(reference, run);
        identical = identical && same;
        matrix.AddRow({partition::StrategyName(kind),
                       path == Path::kFlat ? "flat" : "block",
                       std::to_string(threads), same ? "yes" : "NO"});
      }
    }
  }
  bench::PrintTable(matrix);

  // ---- Claim 3: byte ledger. ---------------------------------------------
  const RunSnapshot ledger =
      RunOnce(twitter, store, partition::StrategyKind::kHdrf, Path::kBlock,
              /*num_threads=*/4);
  const bool ledger_ok =
      ledger.memory.ring_buffers == kLoaders &&
      ledger.memory.ring_bytes ==
          ledger.memory.ring_buffers * ledger.memory.block_bytes &&
      ledger.memory.peak_ledger_bytes ==
          ledger.memory.ring_bytes + ledger.memory.peak_state_bytes;
  bench::Metric("ring_bytes", static_cast<double>(ledger.memory.ring_bytes));

  // ---- Claims ----
  bool ok = true;
  ok &= bench::Claim(
      "compressed edge-block store >= 2x smaller resident edge bytes than "
      "the flat vector on the crawl-ordered UK-web analog (measured " +
          util::Table::Num(web_shrink, 2) + "x; shuffled Twitter stream " +
          util::Table::Num(twitter_shrink, 2) + "x)",
      web_shrink >= 2.0);
  ok &= bench::Claim(
      "flat and block-streamed ingest bit-identical to IngestReference at "
      "1/2/8 threads for all 13 strategies (graph, report, per-machine "
      "cluster counters)",
      identical);
  ok &= bench::Claim(
      "byte ledger conserved: one decode buffer per loader, ring_bytes == "
      "ring_buffers x block_bytes, peak ledger == ring_bytes + peak state",
      ledger_ok);
  return ok ? 0 : 1;
}
