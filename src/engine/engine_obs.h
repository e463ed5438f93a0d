#ifndef GDP_ENGINE_ENGINE_OBS_H_
#define GDP_ENGINE_ENGINE_OBS_H_

#include <cstdint>
#include <cstdio>

#include "obs/exec_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/timeline.h"

namespace gdp::engine {

/// Per-superstep observability totals an engine hands to
/// SuperstepObserver::EndSuperstep. All fields are integer sums of the
/// engine's own tick/byte accounting, so they are bit-identical across
/// thread counts — they become the span's deterministic args.
struct SuperstepBreakdown {
  /// Active vertices at the start of the superstep.
  uint64_t frontier = 0;
  /// Vertices whose apply signaled (scatter sources).
  uint64_t signaled = 0;
  /// Gather minor-step compute, in ticks (sim::kWorkPerTick units each).
  uint64_t gather_ticks = 0;
  /// Bytes sent during the gather minor-step.
  uint64_t gather_bytes = 0;
  /// Apply minor-step compute (incl. message serialization and GraphX
  /// shuffle blocks), in ticks.
  uint64_t apply_ticks = 0;
  /// Bytes sent during the apply minor-step (gather + sync messages).
  uint64_t apply_bytes = 0;
  /// Scatter minor-step compute, in ticks.
  uint64_t scatter_ticks = 0;
  /// Bytes sent during the scatter minor-step (0 for the sync engines —
  /// activations piggyback on sync messages).
  uint64_t scatter_bytes = 0;
  /// GraphX only: shuffle blocks serialized during apply (a count; their
  /// sim::kShuffleBlockTicks each are part of apply_ticks).
  uint64_t graphx_blocks = 0;
};

/// The one observability hook shared by all three engines. It owns the
/// per-superstep block the engines used to copy-paste
/// (`if (options.timeline != nullptr) options.timeline->Sample(cluster)`)
/// and extends it with the ExecContext sinks: a run-level trace span, one
/// span per superstep carrying the SuperstepBreakdown as deterministic
/// args, a superstep counter, and a frontier-size histogram.
///
/// Null-context cost: when no observer is attached every method is a
/// branch on a nullptr; enabled() lets engines skip even the breakdown
/// bookkeeping.
class SuperstepObserver {
 public:
  /// Binds to the run's context. Opens the run-level span and registers
  /// the engine metrics when the matching sinks are attached.
  SuperstepObserver(const obs::ExecContext& exec, const sim::Cluster& cluster,
                    const char* engine_name)
      : exec_(exec), cluster_(cluster) {
    if (exec_.trace != nullptr) {
      run_span_id_ = exec_.trace->Begin(exec_.trace_track, engine_name,
                                        "engine", cluster_.now_seconds());
    }
    if (exec_.metrics != nullptr) {
      supersteps_ = exec_.metrics->GetCounter("engine.supersteps");
      frontier_ = exec_.metrics->GetHistogram("engine.frontier");
    }
  }

  SuperstepObserver(const SuperstepObserver&) = delete;
  SuperstepObserver& operator=(const SuperstepObserver&) = delete;

  ~SuperstepObserver() { Finish(); }

  /// True when any sink wants per-superstep data — engines use this to
  /// skip breakdown bookkeeping entirely under a null context.
  bool enabled() const { return exec_.HasObservers(); }

  /// Opens the superstep span at the current simulated clock.
  void BeginSuperstep(uint32_t iteration) {
    if (exec_.trace != nullptr) {
      char name[32];
      std::snprintf(name, sizeof(name), "superstep %u", iteration);
      span_id_ = exec_.trace->Begin(exec_.trace_track, name, "engine",
                                    cluster_.now_seconds());
      span_open_ = true;
    }
  }

  /// Closes the superstep: attaches the breakdown args, bumps the metrics,
  /// samples the timeline (the deduped per-superstep block), and ends the
  /// span at the post-barrier simulated clock.
  void EndSuperstep(const SuperstepBreakdown& b) {
    if (exec_.timeline != nullptr) exec_.timeline->Sample(cluster_);
    if (supersteps_ != nullptr) supersteps_->Increment();
    if (frontier_ != nullptr) frontier_->Observe(b.frontier);
    if (span_open_) {
      obs::TraceRecorder& trace = *exec_.trace;
      trace.Arg(span_id_, "frontier", static_cast<int64_t>(b.frontier));
      trace.Arg(span_id_, "signaled", static_cast<int64_t>(b.signaled));
      trace.Arg(span_id_, "gather_ticks",
                static_cast<int64_t>(b.gather_ticks));
      trace.Arg(span_id_, "gather_bytes",
                static_cast<int64_t>(b.gather_bytes));
      trace.Arg(span_id_, "apply_ticks", static_cast<int64_t>(b.apply_ticks));
      trace.Arg(span_id_, "apply_bytes", static_cast<int64_t>(b.apply_bytes));
      trace.Arg(span_id_, "scatter_ticks",
                static_cast<int64_t>(b.scatter_ticks));
      trace.Arg(span_id_, "scatter_bytes",
                static_cast<int64_t>(b.scatter_bytes));
      if (b.graphx_blocks != 0) {
        trace.Arg(span_id_, "graphx_blocks",
                  static_cast<int64_t>(b.graphx_blocks));
      }
      trace.End(span_id_, cluster_.now_seconds());
      span_open_ = false;
    }
  }

  /// Closes the run-level span at the current simulated clock. Called by
  /// the destructor; engines may call it earlier (idempotent).
  void Finish() {
    if (span_open_) {
      // An engine bailed mid-superstep; close the span where it stands.
      exec_.trace->End(span_id_, cluster_.now_seconds());
      span_open_ = false;
    }
    if (run_span_open()) {
      exec_.trace->End(run_span_id_, cluster_.now_seconds());
      run_done_ = true;
    }
  }

 private:
  bool run_span_open() const { return exec_.trace != nullptr && !run_done_; }

  const obs::ExecContext exec_;
  const sim::Cluster& cluster_;
  obs::TraceRecorder::SpanId run_span_id_ = 0;
  obs::TraceRecorder::SpanId span_id_ = 0;
  bool span_open_ = false;
  bool run_done_ = false;
  obs::Counter* supersteps_ = nullptr;
  obs::Histogram* frontier_ = nullptr;
};

}  // namespace gdp::engine

#endif  // GDP_ENGINE_ENGINE_OBS_H_
