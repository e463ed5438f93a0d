#ifndef GDP_OBS_EXEC_CONTEXT_H_
#define GDP_OBS_EXEC_CONTEXT_H_

#include <cstdint>

namespace gdp::obs {

class MetricsRegistry;
class TraceRecorder;

/// The shared execution context threaded through every subsystem that runs
/// work (ingress pipeline, GAS engines, experiment harness, grid runner).
/// IngestOptions, RunOptions, and ExperimentSpec each carry one, so the
/// host thread count and the observability sinks travel as one field.
///
/// Cost contract: a default-constructed ExecContext ("null context") makes
/// every instrumentation site a branch on a nullptr — no allocation, no
/// lock, no string formatting. Determinism contract: nothing reachable from
/// this struct may influence simulated results; observers only *read*
/// simulated state, so attaching or detaching them leaves every simulated
/// cost bit-identical (asserted by bench_obs_overhead and tests/obs_test).
struct ExecContext {
  /// Host threads driving the parallel internals (0 = hardware default).
  /// Simulated results are bit-identical at every setting — the engine and
  /// ingest determinism contracts (DESIGN.md sections 7-8).
  uint32_t num_threads = 0;
  /// Optional metrics sink (counters/gauges/histograms). Not owned.
  MetricsRegistry* metrics = nullptr;
  /// Optional trace-span sink (phase-scoped spans, two clocks). Not owned.
  TraceRecorder* trace = nullptr;
  /// Trace track ("tid" in the Chrome trace) spans opened through this
  /// context land on. The grid runner gives each concurrent cell its own
  /// track so nesting depths stay per-cell consistent.
  uint64_t trace_track = 0;

  /// True when any observer (metrics, trace) is attached.
  bool HasObservers() const { return metrics != nullptr || trace != nullptr; }
};

}  // namespace gdp::obs

#endif  // GDP_OBS_EXEC_CONTEXT_H_
