// Reproduces Fig 6.3: average per-machine memory utilization over time for
// each PowerLyra strategy running PageRank, with the end of the ingress
// phase marked (the figure's black dots). Paper finding (§6.4.2): peak
// memory is reached during the ingress phase for every strategy, and the
// Hybrid strategies' extra ingress phases give them the highest peaks and
// the latest ingress-end marks. The samples are the `memory_bytes` args of
// the run's trace spans, which close at the phase barriers the paper's
// 1-second psutil monitors would see.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"

namespace {

/// The span's `memory_bytes` arg, or -1 when it carries none.
int64_t MemoryBytes(const gdp::obs::TraceSpan& span) {
  for (const auto& [key, value] : span.args) {
    if (key == "memory_bytes") return value;
  }
  return -1;
}

}  // namespace

int main() {
  using namespace gdp;
  using harness::AppKind;
  using partition::StrategyKind;

  bench::PrintHeader(
      "Fig 6.3 — memory utilization over time, ingress end marked",
      "PowerLyra engine, 25 machines, UK-web analog, PageRank(10)");
  bench::Datasets data = bench::MakeDatasets();

  const std::vector<StrategyKind> strategies = {
      StrategyKind::kRandom, StrategyKind::kOblivious, StrategyKind::kGrid,
      StrategyKind::kHybrid, StrategyKind::kHybridGinger};

  bool peak_always_in_ingress = true;
  std::map<StrategyKind, double> peak_mb, ingress_end;
  for (StrategyKind strategy : strategies) {
    obs::TraceRecorder trace;
    harness::ExperimentSpec spec;
    spec.engine = engine::EngineKind::kPowerLyraHybrid;
    spec.strategy = strategy;
    spec.num_machines = 25;
    spec.app = AppKind::kPageRankFixed;
    spec.max_iterations = 10;
    spec.exec.trace = &trace;
    harness::RunExperiment(data.ukweb, spec);

    // The memory samples are the spans carrying `memory_bytes` (every
    // ingress pass, finalize, ingress, every superstep), in close order:
    // by simulated end time, a child before the parent it closes with.
    std::vector<obs::TraceSpan> samples;
    for (obs::TraceSpan& span : trace.Snapshot()) {
      if (MemoryBytes(span) >= 0) samples.push_back(std::move(span));
    }
    std::stable_sort(samples.begin(), samples.end(),
                     [](const obs::TraceSpan& a, const obs::TraceSpan& b) {
                       if (a.sim_end_seconds != b.sim_end_seconds) {
                         return a.sim_end_seconds < b.sim_end_seconds;
                       }
                       return a.depth > b.depth;
                     });

    double mark = -1.0;
    double peak = 0;
    double peak_at = 0;
    std::vector<double> mean_memory;
    for (const obs::TraceSpan& span : samples) {
      if (span.category == "ingress" && span.name == "ingress") {
        mark = span.sim_end_seconds;  // the black dot
      }
      const double mean =
          static_cast<double>(MemoryBytes(span)) / spec.num_machines;
      mean_memory.push_back(mean);
      if (mean > peak) {
        peak = mean;
        peak_at = span.sim_end_seconds;
      }
    }
    ingress_end[strategy] = mark;
    peak_mb[strategy] = peak / 1e6;
    peak_always_in_ingress &= peak_at <= mark + 1e-9;

    std::printf("\n%s  (ingress ends at %.4fs <- black dot; peak %.2f MB at "
                "%.4fs)\n",
                partition::StrategyName(strategy), mark, peak_mb[strategy],
                peak_at);
    // Render the samples as a sparkline of mean memory.
    std::string line = "  [";
    for (double mean : mean_memory) {
      static const char kLevels[] = " .:-=+*#%@";
      int idx = peak > 0 ? static_cast<int>(mean / peak * 9) : 0;
      line += kLevels[idx];
    }
    line += "]";
    std::printf("%s\n", line.c_str());
  }

  bench::Claim("peak memory is reached during the ingress phase for every "
               "strategy",
               peak_always_in_ingress);
  bench::Claim(
      "Hybrid-Ginger, which has more ingress phases, peaks higher than "
      "Hybrid",
      peak_mb[StrategyKind::kHybridGinger] > peak_mb[StrategyKind::kHybrid]);
  bench::Claim("Hybrid strategies finish ingress later than the single-pass "
               "strategies",
               ingress_end[StrategyKind::kHybrid] >
                       ingress_end[StrategyKind::kGrid] &&
                   ingress_end[StrategyKind::kHybridGinger] >
                       ingress_end[StrategyKind::kHybrid]);
  return 0;
}
