// Observability overhead + determinism (no paper figure): the ExecContext
// observability layer (metrics registry, trace spans, Chrome export) against
// the two contracts it ships under.
//
// Claims gating this bench:
//  1. Observers are invisible to the simulation: a Fig 5-style strategy
//     sweep renders a byte-identical results table with and without
//     metrics/trace sinks attached (the obs-off path is the null-context
//     branch; the obs-on path must not perturb a single simulated value).
//  2. Every simulated-cost span field and counter value is bit-identical
//     across engine/ingest thread counts {1, 2, 8}.
//  3. The cached and fresh grid paths emit bit-identical engine-phase span
//     fields (the cache restores the exact post-ingress cluster state).
//  4. The exported Chrome trace validates against the strict parser.
//
// The wall-clock overhead of enabled observability on the sweep (best-of-5
// on both sides, after a warm-up pair) is reported as a metric, not gated:
// a single ratio on a shared host swings by several percent either way.
// perfbench's obs.trace_overhead_x measures the same cost with a spread.

#include <chrono>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/grid.h"
#include "harness/partition_cache.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace gdp;
using harness::AppKind;
using partition::StrategyKind;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A span with its host-dependent wall-clock fields stripped: exactly the
/// fields the determinism contracts bind.
using SimSpan = std::tuple<std::string, std::string, uint64_t, uint32_t,
                           double, double,
                           std::vector<std::pair<std::string, int64_t>>>;

std::vector<SimSpan> SimSpans(const obs::TraceRecorder& recorder) {
  std::vector<SimSpan> out;
  for (const obs::TraceSpan& s : recorder.SpansByTrack()) {
    out.emplace_back(s.name, s.category, s.track, s.depth,
                     s.sim_begin_seconds, s.sim_end_seconds, s.args);
  }
  return out;
}

std::vector<SimSpan> EngineSimSpans(const obs::TraceRecorder& recorder) {
  std::vector<SimSpan> out;
  for (SimSpan& s : SimSpans(recorder)) {
    if (std::get<1>(s) == "engine") out.push_back(std::move(s));
  }
  return out;
}

/// Renders the Fig 5-style sweep results as the table the figure benches
/// print. Only simulated values appear, so two runs of the same cells must
/// produce byte-identical strings.
util::Table ResultsTable(const std::vector<StrategyKind>& strategies,
                         const std::vector<harness::ExperimentResult>& got) {
  util::Table table({"strategy", "rf", "ingress(s)", "compute(s)",
                     "network(MB)", "peak-mem(MB)"});
  for (size_t i = 0; i < strategies.size(); ++i) {
    const harness::ExperimentResult& r = got[i];
    table.AddRow({partition::StrategyName(strategies[i]),
                  util::Table::Num(r.replication_factor),
                  util::Table::Num(r.ingress.ingress_seconds),
                  util::Table::Num(r.compute.compute_seconds),
                  util::Table::Num(r.compute.network_bytes / 1e6),
                  util::Table::Num(r.mean_peak_memory_bytes / 1e6)});
  }
  return table;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Observability overhead — ExecContext metrics/trace vs the null "
      "context",
      "4 strategies x PageRank(10), 9 machines, heavy-tailed graph; "
      "thread sweep {1,2,8}; cached-vs-fresh grid");

  graph::EdgeList graph = graph::GenerateHeavyTailed(
      {.num_vertices = 20000, .edges_per_vertex = 10, .seed = 0x0B5});
  graph.set_name("obs-bench");

  const std::vector<StrategyKind> strategies = {
      StrategyKind::kRandom, StrategyKind::kGrid, StrategyKind::kOblivious,
      StrategyKind::kHdrf};
  std::vector<harness::ExperimentSpec> specs;
  for (StrategyKind strategy : strategies) {
    harness::ExperimentSpec spec;
    spec.strategy = strategy;
    spec.num_machines = 9;
    spec.app = AppKind::kPageRankFixed;
    spec.max_iterations = 10;
    specs.push_back(spec);
  }

  auto run_sweep = [&](bool observed, obs::MetricsRegistry* metrics,
                       obs::TraceRecorder* trace) {
    std::vector<harness::ExperimentResult> got;
    for (harness::ExperimentSpec spec : specs) {
      if (observed) {
        spec.exec.metrics = metrics;
        spec.exec.trace = trace;
      }
      got.push_back(harness::RunExperiment(graph, spec));
    }
    return got;
  };

  // ---- Claim 1: obs-on results byte-identical to the obs-off path. -------
  const std::vector<harness::ExperimentResult> plain =
      run_sweep(false, nullptr, nullptr);
  obs::MetricsRegistry sweep_metrics;
  obs::TraceRecorder sweep_trace;
  const std::vector<harness::ExperimentResult> observed =
      run_sweep(true, &sweep_metrics, &sweep_trace);
  const std::string plain_table = ResultsTable(strategies, plain).ToAscii();
  const std::string observed_table =
      ResultsTable(strategies, observed).ToAscii();
  const bool tables_identical = plain_table == observed_table;
  std::printf("%s", observed_table.c_str());
  const std::string chrome_json = obs::ToChromeTraceJson(sweep_trace);
  const bool trace_valid =
      obs::ValidateChromeTraceJson(chrome_json).ok() && sweep_trace.size() > 0;

  // ---- Claim 2: span/counter bit-identity across {1,2,8} threads. --------
  bool threads_identical = true;
  std::vector<SimSpan> want_spans;
  std::vector<obs::MetricsRegistry::Sample> want_metrics;
  for (uint32_t threads : {1u, 2u, 8u}) {
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    harness::ExperimentSpec spec = specs.back();  // HDRF cell
    spec.exec.num_threads = threads;
    spec.exec.metrics = &metrics;
    spec.exec.trace = &trace;
    harness::RunExperiment(graph, spec);
    if (threads == 1) {
      want_spans = SimSpans(trace);
      want_metrics = metrics.Snapshot();
    } else {
      threads_identical &= SimSpans(trace) == want_spans;
      threads_identical &= metrics.Snapshot() == want_metrics;
    }
  }

  // ---- Claim 3: cached and fresh grids emit identical engine spans. ------
  std::vector<SimSpan> fresh_spans;
  {
    obs::TraceRecorder trace;
    harness::GridOptions options;
    options.exec.num_threads = 2;
    options.exec.trace = &trace;
    harness::RunGrid(graph, specs, options);
    fresh_spans = EngineSimSpans(trace);
  }
  std::vector<SimSpan> cached_spans;
  {
    obs::TraceRecorder trace;
    harness::PartitionCache cache;
    harness::GridOptions options;
    options.exec.num_threads = 2;
    options.exec.trace = &trace;
    options.cache = &cache;
    harness::RunGrid(graph, specs, options);
    cached_spans = EngineSimSpans(trace);
  }
  const bool cached_identical =
      !fresh_spans.empty() && cached_spans == fresh_spans;

  // ---- Reported, not gated: enabled-observability wall overhead. ---------
  // Best-of-N on both sides, interleaved, with one untimed warm-up pair:
  // the floor of each distribution estimates the true cost with the
  // scheduler/allocator noise stripped out.
  constexpr int kReps = 5;
  run_sweep(false, nullptr, nullptr);
  {
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    run_sweep(true, &metrics, &trace);
  }
  double off_wall = 1e30;
  double on_wall = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    run_sweep(false, nullptr, nullptr);
    off_wall = std::min(off_wall, SecondsSince(start));

    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    start = std::chrono::steady_clock::now();
    run_sweep(true, &metrics, &trace);
    on_wall = std::min(on_wall, SecondsSince(start));
  }
  const double overhead = on_wall / off_wall - 1.0;

  util::Table wall({"path", "best wall(ms)", "overhead"});
  wall.AddRow({"observers off", util::Table::Num(off_wall * 1e3), "-"});
  wall.AddRow({"observers on", util::Table::Num(on_wall * 1e3),
               util::Table::Num(overhead * 100.0, 1) + "%"});
  bench::PrintTable(wall);
  std::printf("trace spans: %zu, metrics: %zu, chrome json bytes: %zu\n",
              sweep_trace.size(), sweep_metrics.size(), chrome_json.size());
  bench::Metric("wall_overhead_pct", overhead * 100.0);

  bool ok = true;
  ok &= bench::Claim(
      "attaching metrics/trace sinks leaves the Fig 5-style results table "
      "byte-identical (observers never perturb the simulation)",
      tables_identical);
  ok &= bench::Claim(
      "exported Chrome trace_event JSON validates against the strict parser",
      trace_valid);
  ok &= bench::Claim(
      "simulated-cost span fields and counter values bit-identical across "
      "engine/ingest threads {1,2,8}",
      threads_identical);
  ok &= bench::Claim(
      "cached and fresh grid paths emit bit-identical engine-phase span "
      "fields",
      cached_identical);
  return ok ? 0 : 1;
}
