#ifndef GDP_HARNESS_EXPERIMENT_H_
#define GDP_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/gas_engine.h"
#include "engine/run_stats.h"
#include "graph/edge_list.h"
#include "obs/exec_context.h"
#include "partition/ingest.h"

namespace gdp::harness {

/// The applications evaluated in the paper (§3.3), in the configurations
/// the experiments use.
enum class AppKind {
  kPageRankFixed,       ///< PageRank(n): fixed iteration count
  kPageRankConvergent,  ///< PageRank(C): run to convergence
  kWcc,
  kSssp,         ///< undirected (the PowerGraph/PowerLyra configuration)
  kSsspDirected, ///< directed = natural variant
  kKCore,        ///< decomposition over [kmin, kmax]
  kColoring,     ///< Simple Coloring (async engine on PowerGraph/PowerLyra)
  // Extension workloads beyond the thesis' five:
  kTriangles,    ///< triangle counting (PowerGraph's flagship)
  kLabelPropagation,  ///< LPA community detection (iteration-capped)
  kMsBfs,        ///< 64-source BFS / diameter probing
};

const char* AppKindName(AppKind app);

/// True for applications that gather from one direction and scatter to the
/// other (§6.1) as configured here.
bool IsNaturalApp(AppKind app);

/// One cell of the paper's experiment grid: a system (engine), a
/// partitioning strategy, a cluster, and an application.
struct ExperimentSpec {
  engine::EngineKind engine = engine::EngineKind::kPowerGraphSync;
  partition::StrategyKind strategy = partition::StrategyKind::kRandom;
  uint32_t num_machines = 9;
  /// Edge partitions per machine. PowerGraph/PowerLyra pin one partition
  /// per machine; GraphX recommends one per core (§7.2).
  uint32_t partitions_per_machine = 1;
  AppKind app = AppKind::kPageRankFixed;
  uint32_t max_iterations = 10;
  double pagerank_tolerance = 1e-3;
  graph::VertexId sssp_source = 0;
  uint32_t kcore_kmin = 10;
  uint32_t kcore_kmax = 20;
  uint64_t seed = 42;
  /// Parallel loaders (0 = one per machine, the paper's setup).
  uint32_t num_loaders = 0;
  /// Streaming ingress: feed the partitioners from a compressed
  /// EdgeBlockStore, each loader decoding one block at a time into its own
  /// buffer, instead of the flat edge vector (partition/ingest.h). Results
  /// are bit-identical either way; this trades a little decode CPU for a
  /// much smaller resident edge working set.
  bool use_block_ingress = false;
  /// Ingress memory budget in bytes (0 = unbounded), passed to the
  /// partitioner as PartitionContext::memory_budget_bytes: budget-aware
  /// strategies (SNE, HEP) bound their resident state by it, and it joins
  /// their PartitionCache key. Other strategies ignore it.
  uint64_t ingress_memory_budget_bytes = 0;
  /// Execution context for this cell: host threads plus caller-owned
  /// observability sinks (metrics registry, trace recorder, trace track).
  /// exec.num_threads drives this cell's engine and ingress internals
  /// (0 = hardware default); results are bit-identical at any setting (the
  /// engine and ingest determinism contracts), and the grid runner pins it
  /// to 1 for cells it already runs concurrently. Attaching sinks never
  /// changes simulated results (the observability determinism contract);
  /// a trace's ingress and superstep spans carry `memory_bytes` args, the
  /// samples behind Fig 6.3.
  obs::ExecContext exec;
};

/// Everything the paper measures for one run (§4.3).
struct ExperimentResult {
  partition::IngressReport ingress;
  engine::RunStats compute;
  double total_seconds = 0;
  double replication_factor = 0;
  /// Mean and max per-machine peak memory (bytes).
  double mean_peak_memory_bytes = 0;
  uint64_t max_peak_memory_bytes = 0;
  /// Per-machine CPU utilization over the whole run, in [0, 1].
  std::vector<double> cpu_utilizations;
  double edge_balance_ratio = 0;
};

/// Runs one experiment cell end to end (ingress + compute) on a fresh
/// simulated cluster and reports the metrics. Deterministic for a given
/// spec and edge list.
ExperimentResult RunExperiment(const graph::EdgeList& edges,
                               const ExperimentSpec& spec);

/// Partition-only variant (the Figs 5.6/5.7/6.4/6.5/8.1/8.2 grids need no
/// compute phase).
ExperimentResult RunIngressOnly(const graph::EdgeList& edges,
                                const ExperimentSpec& spec);

// Cached variants that amortize ingress and plan construction across cells
// live in harness/partition_cache.h; the parallel grid scheduler lives in
// harness/grid.h.

}  // namespace gdp::harness

#endif  // GDP_HARNESS_EXPERIMENT_H_
