// Serving-layer benchmark (no paper figure): the multi-tenant query
// scheduler over cached partitions — request batching + warm bounded
// caches against one engine run per request (the unbatched path) on the
// same deterministic arrival trace. Both paths take their plans from the
// PlanCache; a batch's simulated cost does not depend on where its plan
// came from.
//
// Claims gating this bench:
//  1. Per-request answers are bit-identical between the batched and
//     unbatched paths (always checked — the multi-source kernels must
//     not change any answer).
//  2. Every simulated figure — responses with latencies, makespan, the
//     serving metrics registry (latency p50/p99 included) — is
//     bit-identical across host thread counts {1, 2, 8} (always checked).
//  3. Batching + warm caches serve >= 2x more requests per simulated
//     second than the unbatched path (always checked: throughput is
//     simulated, so no host-speed gating).
//  4. Byte-budgeted caches: with a budget that cannot hold the fleet,
//     eviction kicks in, resident bytes respect the budget, and every
//     answer still matches the unbounded run.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/export.h"
#include "serving/query_server.h"
#include "serving/request.h"

namespace {

using namespace gdp;

serving::ServerOptions PathOptions(bool batched_warm, uint32_t threads) {
  serving::ServerOptions options;
  options.batching = batched_warm;
  options.num_threads = threads;
  options.queue_capacity = 256;
  return options;
}

bool AllAnswersAgree(const std::vector<serving::Response>& a,
                     const std::vector<serving::Response>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameAnswer(a[i], b[i])) return false;
  }
  return true;
}

/// p50/p99 of serving.latency_us from a server's registry.
void LatencyPercentiles(const obs::MetricsRegistry& registry, uint64_t* p50,
                        uint64_t* p99) {
  for (const obs::MetricsRegistry::Sample& sample : registry.Snapshot()) {
    if (sample.name == "serving.latency_us") {
      *p50 = sample.p50;
      *p99 = sample.p99;
    }
  }
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Serving throughput — batched scheduler + bounded caches vs. "
      "one-query-per-run",
      "2-graph fleet, 8 machines, 256 queries (sssp/bfs/pagerank/kcore), "
      "deterministic arrival trace");

  graph::EdgeList graph_a = graph::GenerateHeavyTailed(
      {.num_vertices = 5000, .edges_per_vertex = 8, .seed = 0xA1});
  graph_a.set_name("fleet-a");
  graph::EdgeList graph_b = graph::GenerateHeavyTailed(
      {.num_vertices = 4000, .edges_per_vertex = 6, .seed = 0xB2});
  graph_b.set_name("fleet-b");

  harness::ExperimentSpec spec;
  spec.num_machines = 8;
  const std::vector<serving::GraphConfig> fleet = {{&graph_a, spec},
                                                   {&graph_b, spec}};

  serving::TraceOptions trace_options;
  trace_options.num_requests = 256;
  trace_options.num_tenants = 6;
  trace_options.mean_interarrival_us = 250;  // saturating: one hot window
  trace_options.seed = 0x5e4;
  const std::vector<serving::Request> trace = serving::GenerateArrivalTrace(
      trace_options, {static_cast<uint32_t>(graph_a.num_vertices()),
                      static_cast<uint32_t>(graph_b.num_vertices())});

  // ---- The two paths on the same trace. ----------------------------------
  serving::QueryServer warm(fleet, PathOptions(/*batched_warm=*/true, 1));
  const serving::ServeResult warm_result = warm.Serve(trace);
  serving::QueryServer cold(fleet, PathOptions(/*batched_warm=*/false, 1));
  const serving::ServeResult cold_result = cold.Serve(trace);

  // ---- Thread-count invariance of the batched path. ----------------------
  bool thread_invariant = true;
  for (uint32_t threads : {2u, 8u}) {
    serving::QueryServer again(fleet, PathOptions(true, threads));
    const serving::ServeResult result = again.Serve(trace);
    thread_invariant &= result.responses == warm_result.responses &&
                        result.makespan_us == warm_result.makespan_us &&
                        again.registry().Snapshot() ==
                            warm.registry().Snapshot();
  }

  // ---- Byte-budgeted rerun: one resident ingress entry at a time. --------
  uint64_t entry_bytes = warm.partition_cache().resident_bytes() / 2;
  serving::ServerOptions budgeted_options = PathOptions(true, 1);
  budgeted_options.partition_cache_budget_bytes = entry_bytes + entry_bytes / 4;
  serving::QueryServer budgeted(fleet, budgeted_options);
  const serving::ServeResult budgeted_result = budgeted.Serve(trace);
  uint64_t evictions = 0;
  for (const obs::MetricsRegistry::Sample& sample :
       budgeted.partition_cache().registry().Snapshot()) {
    if (sample.name == "partition_cache.evictions") {
      evictions = static_cast<uint64_t>(sample.value);
    }
  }
  const bool budget_respected =
      budgeted.partition_cache().resident_bytes() <=
      budgeted_options.partition_cache_budget_bytes;

  // ---- Report. -----------------------------------------------------------
  uint64_t warm_p50 = 0, warm_p99 = 0, cold_p50 = 0, cold_p99 = 0;
  LatencyPercentiles(warm.registry(), &warm_p50, &warm_p99);
  LatencyPercentiles(cold.registry(), &cold_p50, &cold_p99);

  util::Table table({"path", "admitted", "engine runs", "makespan(s)",
                     "req/s", "p50(us)", "p99(us)"});
  auto add_row = [&table](const char* label,
                          const serving::ServeResult& result, uint64_t p50,
                          uint64_t p99) {
    table.AddRow({label, std::to_string(result.admitted),
                  std::to_string(result.batches),
                  util::Table::Num(result.makespan_us * 1e-6),
                  util::Table::Num(result.RequestsPerSecond()),
                  std::to_string(p50), std::to_string(p99)});
  };
  add_row("batched + warm caches", warm_result, warm_p50, warm_p99);
  add_row("unbatched cold path", cold_result, cold_p50, cold_p99);
  bench::PrintTable(table);

  std::printf("\nserving metrics (batched path):\n%s\n",
              obs::MetricsTable(warm.registry()).ToAscii().c_str());

  // ---- Claims. -----------------------------------------------------------
  const double speedup = cold_result.makespan_us == 0
                             ? 0.0
                             : warm_result.RequestsPerSecond() /
                                   cold_result.RequestsPerSecond();
  bench::Metric("serving_batched_warm_speedup_x", speedup);
  bench::Metric("warm_requests_per_second", warm_result.RequestsPerSecond());
  bench::Metric("cold_requests_per_second", cold_result.RequestsPerSecond());

  bool ok = true;
  ok &= bench::Claim(
      "per-request answers bit-identical: batched/warm vs unbatched/cold",
      AllAnswersAgree(warm_result.responses, cold_result.responses));
  ok &= bench::Claim(
      "simulated responses, makespan, and latency percentiles "
      "bit-identical across host threads {1,2,8}",
      thread_invariant);
  ok &= bench::Claim(
      ">= 2x requests per simulated second from batching + warm caches "
      "(measured " + util::Table::Num(speedup, 1) + "x)",
      speedup >= 2.0);
  ok &= bench::Claim(
      "byte-budgeted caches: " + std::to_string(evictions) +
          " evictions, resident bytes within budget, answers unchanged",
      evictions > 0 && budget_respected &&
          AllAnswersAgree(budgeted_result.responses, warm_result.responses));
  return ok ? 0 : 1;
}
