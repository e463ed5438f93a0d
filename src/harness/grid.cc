#include "harness/grid.h"

#include <string>

#include "obs/trace.h"
#include "partition/partitioner.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace gdp::harness {

std::vector<ExperimentResult> RunGrid(const std::vector<GridCell>& cells,
                                      const GridOptions& options) {
  std::vector<ExperimentResult> results(cells.size());
  const obs::ExecContext& grid_exec = options.exec;
  util::ThreadPool pool(grid_exec.num_threads);
  const bool pin_cell_lanes = pool.num_threads() > 1;
  pool.ParallelFor(cells.size(), [&](uint64_t i, uint32_t) {
    const GridCell& cell = cells[i];
    GDP_CHECK(cell.edges != nullptr);
    ExperimentSpec spec = cell.spec;
    if (pin_cell_lanes && spec.exec.num_threads == 0) {
      spec.exec.num_threads = 1;
    }
    // Hand the grid's shared sinks to the cell where the cell has none of
    // its own, and give every cell a private trace track so concurrent
    // cells keep consistent per-track span nesting.
    if (spec.exec.metrics == nullptr) spec.exec.metrics = grid_exec.metrics;
    if (spec.exec.trace == nullptr) {
      spec.exec.trace = grid_exec.trace;
      spec.exec.trace_track = grid_exec.trace_track + i;
    }
    obs::ScopedSpan cell_span(
        spec.exec.trace, spec.exec.trace_track,
        "cell " + std::to_string(i) + ": " +
            partition::StrategyName(spec.strategy) + "/" +
            engine::EngineKindName(spec.engine) + "/" +
            AppKindName(spec.app),
        "grid", /*sim_begin_seconds=*/0.0);
    if (options.cache != nullptr) {
      results[i] = cell.ingress_only
                       ? RunIngressOnlyCached(*cell.edges, spec,
                                              *options.cache)
                       : RunExperimentCached(*cell.edges, spec,
                                             *options.cache);
    } else {
      results[i] = cell.ingress_only ? RunIngressOnly(*cell.edges, spec)
                                     : RunExperiment(*cell.edges, spec);
    }
    // The cell's sim clock starts at 0 on its private cluster; the span
    // covers the whole cell in that cell's own simulated time.
    cell_span.End(results[i].total_seconds);
  });
  return results;
}

std::vector<ExperimentResult> RunGrid(const graph::EdgeList& edges,
                                      const std::vector<ExperimentSpec>& specs,
                                      const GridOptions& options) {
  std::vector<GridCell> cells;
  cells.reserve(specs.size());
  for (const ExperimentSpec& spec : specs) {
    cells.push_back(GridCell{&edges, spec, /*ingress_only=*/false});
  }
  return RunGrid(cells, options);
}

}  // namespace gdp::harness
