// Reproduces Fig 9.4: effect of the per-executor memory budget on GraphX
// execution time. Paper findings (§9.2.4): three regimes — (1) too little
// memory anywhere: the job fails after repeated placement attempts; (2)
// fits on the cluster but not on the few executors Spark packs first: an
// unpredictable number of redistribution retries, slow; (3) fits in the
// first packed placement: fast, and faster yet with headroom as GC
// overhead shrinks.

#include "bench_common.h"
#include "engine/graphx_memory.h"
#include "partition/ingest.h"

int main() {
  using namespace gdp;

  bench::PrintHeader("Fig 9.4 — executor memory vs execution time",
                     "GraphX placement model, 9 executors, road-net-CA "
                     "analog");
  bench::Datasets data = bench::MakeDatasets();

  sim::Cluster cluster(9, sim::CostModel{});
  partition::PartitionContext context;
  context.num_partitions = 72;
  context.num_vertices = data.road_ca.num_vertices();
  context.num_loaders = 9;
  partition::IngestOptions ingest_options;
  ingest_options.master_policy = partition::MasterPolicy::kVertexHash;
  partition::IngestResult ingest = partition::IngestWithStrategy(
      data.road_ca, partition::StrategyKind::kRandom, context, cluster,
      ingest_options);

  engine::MemoryPressureOptions options;
  options.num_executors = 9;
  options.initial_executors = 2;
  options.base_execution_seconds = 100;
  uint64_t graph_bytes =
      engine::SimulateExecutorMemory(ingest.graph, options).graph_bytes;
  std::printf("cached graph footprint: %.1f MB\n", graph_bytes / 1e6);

  // Sweep the executor memory like the paper's 400..1800 MB x-axis; our
  // x-axis is scaled to the simulated graph's footprint.
  util::Table table({"executor-mem (rel. to graph)", "outcome", "attempts",
                     "gc overhead", "execution(s)"});
  int failures = 0, redistributions = 0, fast_fits = 0;
  double first_fast_fit_time = -1, last_fast_fit_time = -1;
  double worst_redistribution = 0;
  for (int pct = 4; pct <= 120; pct += 4) {
    options.executor_memory_bytes =
        static_cast<uint64_t>(graph_bytes * (pct / 100.0));
    engine::MemoryPressureResult r =
        engine::SimulateExecutorMemory(ingest.graph, options);
    table.AddRow({util::Table::Num(pct / 100.0, 2) + "x",
                  engine::MemoryOutcomeName(r.outcome),
                  std::to_string(r.placement_attempts),
                  util::Table::Num(r.gc_overhead_fraction, 3),
                  util::Table::Num(r.execution_seconds, 1)});
    switch (r.outcome) {
      case engine::MemoryOutcome::kFailed:
        ++failures;
        break;
      case engine::MemoryOutcome::kRedistributed:
        ++redistributions;
        worst_redistribution =
            std::max(worst_redistribution, r.execution_seconds);
        break;
      case engine::MemoryOutcome::kFastFit:
        ++fast_fits;
        if (first_fast_fit_time < 0) {
          first_fast_fit_time = r.execution_seconds;
        }
        last_fast_fit_time = r.execution_seconds;
        break;
    }
  }
  bench::PrintTable(table);

  bench::Claim("all three regimes appear, in order, as memory grows",
               failures > 0 && redistributions > 0 && fast_fits > 0);
  bench::Claim(
      "the redistribution regime is slower than the fast-fit regime",
      worst_redistribution > first_fast_fit_time);
  bench::Claim(
      "within the fast-fit regime, more memory keeps reducing execution "
      "time (GC overhead)",
      last_fast_fit_time < first_fast_fit_time);
  return 0;
}
