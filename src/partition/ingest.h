#ifndef GDP_PARTITION_INGEST_H_
#define GDP_PARTITION_INGEST_H_

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "obs/exec_context.h"
#include "partition/distributed_graph.h"
#include "partition/partitioner.h"
#include "sim/cluster.h"

namespace gdp {
namespace graph {
class EdgeBlockStore;
}  // namespace graph
}  // namespace gdp

namespace gdp::partition {

/// Exact byte ledger of the streaming-ingress pipeline's resident working
/// memory (the EdgeBlockStore overload of Ingest fills it via
/// IngestOptions::memory_stats). Everything here is host memory the
/// pipeline itself holds — distinct from the simulated cluster memory the
/// IngressReport charges.
struct IngestMemoryStats {
  /// Decoded bytes one decode buffer holds (block_size_edges * sizeof(Edge)).
  uint64_t block_bytes = 0;
  /// Decode buffers across all loaders: each loader decodes inline into
  /// one scratch of its own, so this equals the loader count.
  uint64_t ring_buffers = 0;
  /// ring_buffers * block_bytes — the decoded working set.
  uint64_t ring_bytes = 0;
  /// Partitioner bookkeeping at its largest (== report.peak_state_bytes).
  /// A budget-aware strategy bounds it by
  /// PartitionContext::memory_budget_bytes.
  uint64_t peak_state_bytes = 0;
  /// ring_bytes + peak_state_bytes: the peak of the pipeline's byte ledger.
  uint64_t peak_ledger_bytes = 0;
  /// Compressed store bytes (EdgeBlockStore::ResidentBytes()), reported for
  /// context; the store is caller-owned and not part of the ledger.
  uint64_t store_resident_bytes = 0;
};

/// How masters are placed after partitioning.
enum class MasterPolicy {
  /// PowerGraph: a hash-random member of the vertex's replica set (§5.1.1).
  kRandomReplica,
  /// PowerLyra/GraphX: the vertex's hash location (PowerLyra homes every
  /// vertex at hash(v); GraphX hash-partitions the vertex RDD). Strategies
  /// may override per-vertex via Partitioner::PreferredMaster.
  kVertexHash,
};

struct IngestOptions {
  /// Parallel loaders; 0 means one per machine (the paper splits each
  /// dataset into one block per machine, §5.3).
  uint32_t num_loaders = 0;
  /// Execution context: host thread count driving the loaders/finalize
  /// shards plus the observability sinks (metrics, trace).
  /// exec.num_threads == 0 means util::ThreadPool::DefaultThreadCount(),
  /// clamped to the loader count; 1 runs everything inline. Any value
  /// yields bit-identical results — see the determinism contract on
  /// Ingest().
  obs::ExecContext exec;
  MasterPolicy master_policy = MasterPolicy::kRandomReplica;
  /// Honor Partitioner::PreferredMaster (used with kVertexHash).
  bool use_partitioner_master_preference = false;
  uint64_t seed = 0x9d2c5680;

  // --- Streaming ingress (the EdgeBlockStore overload; the flat EdgeList
  // --- path ignores these) --------------------------------------------------

  /// Build DistributedGraph::edges (the engines need the flat vector).
  /// false keeps the output graph edge-free — ingress-only memory
  /// experiments (the peak-RSS probe) where the whole point is never
  /// materializing 8 bytes/edge; finalize, degree cache, and the report
  /// then stream from the compressed store too.
  bool materialize_edges = true;
  /// When set, the EdgeBlockStore overload writes its exact byte ledger
  /// here. Deliberately NOT part of IngressReport: the report stays
  /// bit-identical across {flat, block} paths.
  IngestMemoryStats* memory_stats = nullptr;

  // --- Convenience-path knobs (IngestWithStrategy only) ---------------------

  /// Route IngestWithStrategy through a compressed EdgeBlockStore built
  /// from the edge list with the default block size (the harness seam:
  /// ExperimentSpec toggles this).
  bool use_block_store = false;
};

/// Per-pass ingress CPU cost (in Partitioner work ticks, 0.05 units each)
/// of reading/deserializing one edge from the input block, independent of
/// strategy: 50 work units. Text edge lists cost tens of simple operations
/// per edge to scan and parse — far more than one hash — which is why hash
/// and greedy strategies have comparable ingress on low-degree graphs
/// (Fig 5.7): parsing dominates until replica sets get large, and why
/// ingress rivals or exceeds compute for short jobs (Table 5.1, and the
/// LFGraph observation cited in Chapter 1).
inline constexpr uint64_t kParseTicksPerEdge =
    50 * Partitioner::kTicksPerWorkUnit;

/// What the ingress phase cost (paper §4.3 "Ingress time" plus phase
/// breakdown).
struct IngressReport {
  double ingress_seconds = 0;
  std::vector<double> pass_seconds;
  uint64_t edges_moved = 0;  ///< reassignment-pass movements
  double replication_factor = 0;
  double edge_balance_ratio = 0;
  uint64_t peak_state_bytes = 0;  ///< partitioner bookkeeping at its largest
};

struct IngestResult {
  DistributedGraph graph;
  IngressReport report;
};

/// Streams `edges` through `partitioner` (one or more passes), charging the
/// cluster for ingress CPU, network, and memory, and produces the
/// DistributedGraph the engines run on.
///
/// The edge stream is split into contiguous per-loader blocks; loader l
/// runs on machine l % num_machines. Greedy strategies therefore see only
/// their own block's history, matching the systems' distributed ingress.
///
/// Loaders execute on a thread pool (options.exec.num_threads) for passes the
/// partitioner declares parallel-safe; the finalize (replica tables,
/// masters, replica memory) is sharded too. Determinism contract: the
/// produced DistributedGraph, IngressReport, and every per-machine cluster
/// counter are bit-identical at any thread count, and bit-identical to
/// IngestReference() run on an equivalent fresh partitioner/cluster. The
/// contract holds because every per-edge cost is an integer (work ticks,
/// bytes) counted in per-loader sim::PhaseAccumulator lanes and flushed
/// once per machine in a canonical order at each pass barrier.
IngestResult Ingest(const graph::EdgeList& edges, Partitioner& partitioner,
                    sim::Cluster& cluster, const IngestOptions& options = {});

/// Streaming overload: same pipeline, fed from a compressed EdgeBlockStore
/// instead of a flat edge vector. Each loader decodes its contiguous edge
/// range block by block, inline, into one decode buffer of its own, and
/// multi-pass strategies re-stream each pass from the compressed store —
/// the flat 8-bytes-per-edge input vector is never resident. Same
/// determinism contract as the EdgeList overload, extended across
/// representations: with materialize_edges set, the DistributedGraph,
/// IngressReport, and every per-machine counter are bit-identical to
/// Ingest()/IngestReference() on the materialized edge list, at any thread
/// count or block size (bench_stream_ingest gates this for all 13
/// strategies).
IngestResult Ingest(const graph::EdgeBlockStore& store,
                    Partitioner& partitioner, sim::Cluster& cluster,
                    const IngestOptions& options = {});

/// Serial reference implementation of Ingest — the oracle for the parallel
/// pipeline's determinism contract. Single-threaded, no thread pool, no
/// per-loader scratch: one accumulator filled in loader order and flushed
/// with the same canonical discipline. Deliberately implemented
/// independently of Ingest() (tests/ingest_determinism_test.cc compares
/// them field by field); options.exec.num_threads is ignored.
IngestResult IngestReference(const graph::EdgeList& edges,
                             Partitioner& partitioner, sim::Cluster& cluster,
                             const IngestOptions& options = {});

/// Convenience: partition `edges` with a fresh partitioner of `kind` using
/// `context` (num_partitions etc. taken from it) on `cluster`.
IngestResult IngestWithStrategy(const graph::EdgeList& edges,
                                StrategyKind kind,
                                const PartitionContext& context,
                                sim::Cluster& cluster,
                                const IngestOptions& options = {});

}  // namespace gdp::partition

#endif  // GDP_PARTITION_INGEST_H_
