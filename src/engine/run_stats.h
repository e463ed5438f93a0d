#ifndef GDP_ENGINE_RUN_STATS_H_
#define GDP_ENGINE_RUN_STATS_H_

#include <cstdint>
#include <vector>

#include "obs/exec_context.h"
#include "sim/timeline.h"

namespace gdp::engine {

/// Knobs for one engine run.
struct RunOptions {
  /// Hard iteration cap; convergence may stop the run earlier.
  uint32_t max_iterations = 100;
  /// PowerLyra degree threshold separating its low-/high-degree handling.
  uint64_t high_degree_threshold = 100;
  /// Extra multiplier on per-edge/vertex compute work (GraphX's JVM and
  /// dataflow-join overheads are modeled as a constant factor). Applied
  /// once per machine per phase, to its tick total (Cluster::EndPhase).
  double work_multiplier = 1.0;
  /// Execution context: host thread count plus the observability sinks
  /// (timeline, metrics registry, trace recorder). exec.num_threads is the
  /// real execution lane count for the parallel engine (0 = hardware
  /// default); simulated costs are bit-identical at every setting, and 1
  /// reproduces the original serial engine's execution exactly. When
  /// exec.timeline is set, the engine records a resource sample after
  /// every superstep (the paper's 1 Hz psutil monitors, Fig 6.3).
  obs::ExecContext exec;
};

/// What one application run cost — the paper's "computation time" metric
/// (always excludes ingress, §4.3) plus the series the figures need.
struct RunStats {
  uint32_t iterations = 0;
  bool converged = false;
  double compute_seconds = 0;
  /// Bytes sent across machine boundaries during compute only.
  uint64_t network_bytes = 0;
  /// Mean per-machine *incoming* compute-phase network IO (the paper plots
  /// inbound traffic, §4.3).
  double mean_inbound_bytes_per_machine = 0;
  /// Cumulative seconds at the end of each iteration (Figs 9.1/9.2).
  std::vector<double> cumulative_seconds;
  /// Active vertices at the start of each iteration.
  std::vector<uint64_t> active_counts;
};

}  // namespace gdp::engine

#endif  // GDP_ENGINE_RUN_STATS_H_
