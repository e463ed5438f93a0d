#ifndef GDP_HARNESS_GRID_H_
#define GDP_HARNESS_GRID_H_

#include <cstdint>
#include <vector>

#include "graph/edge_list.h"
#include "harness/experiment.h"
#include "harness/partition_cache.h"
#include "obs/exec_context.h"

namespace gdp::harness {

/// One cell of an experiment grid: which edge list to partition, the full
/// spec, and whether the compute phase runs (RunExperiment) or not
/// (RunIngressOnly).
struct GridCell {
  const graph::EdgeList* edges = nullptr;
  ExperimentSpec spec;
  bool ingress_only = false;
};

struct GridOptions {
  /// Grid-level execution context. exec.num_threads is the number of host
  /// threads running cells concurrently (0 = DefaultThreadCount());
  /// exec.metrics / exec.trace are shared across all cells, with every
  /// cell's spans landing on its own track (exec.trace_track + cell index)
  /// so per-track nesting stays consistent under concurrency.
  obs::ExecContext exec;
  /// Shared partition/plan artifact cache. nullptr = every cell ingests
  /// afresh (still parallel). The cache must outlive the RunGrid call.
  PartitionCache* cache = nullptr;
};

/// Runs every cell of the grid, scheduling independent cells onto a
/// util::ThreadPool, and returns results in cell order.
///
/// Determinism contract: each cell owns a private sim::Cluster and its
/// result is a pure function of (edges, spec) — per-cell engine/ingest
/// parallelism is bit-identical at any lane count, and the cache returns
/// bit-identical artifacts to a fresh ingress — so the returned vector is
/// identical at any num_threads, with or without the cache, to the serial
/// loop calling RunExperiment/RunIngressOnly per cell.
///
/// Cells with spec.exec.num_threads == 0 are pinned to 1 engine/ingest lane
/// when the grid itself runs multi-threaded (cell-level parallelism already
/// saturates the host; nesting pools would oversubscribe it).
std::vector<ExperimentResult> RunGrid(const std::vector<GridCell>& cells,
                                      const GridOptions& options = {});

/// Convenience for single-graph grids: every spec runs end-to-end (with
/// compute) against `edges`.
std::vector<ExperimentResult> RunGrid(const graph::EdgeList& edges,
                                      const std::vector<ExperimentSpec>& specs,
                                      const GridOptions& options = {});

}  // namespace gdp::harness

#endif  // GDP_HARNESS_GRID_H_
