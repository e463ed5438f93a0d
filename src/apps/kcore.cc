#include "apps/kcore.h"

#include "engine/gas_engine.h"

namespace gdp::apps {

KCoreResult KCoreDecompose(engine::EngineKind engine_kind,
                           const partition::DistributedGraph& dg,
                           sim::Cluster& cluster, uint32_t kmin,
                           uint32_t kmax, const engine::RunOptions& options) {
  // One plan serves every k-stage: the plan is a pure function of the
  // partitioned graph and KCoreApp's directions.
  const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
      dg, KCoreApp::kGatherDir, KCoreApp::kScatterDir,
      engine_kind == engine::EngineKind::kGraphXPregel,
      options.exec.num_threads);
  return KCoreDecompose(engine_kind, plan, cluster, kmin, kmax, options);
}

KCoreResult KCoreDecompose(engine::EngineKind engine_kind,
                           const engine::ExecutionPlan& plan,
                           sim::Cluster& cluster, uint32_t kmin,
                           uint32_t kmax, const engine::RunOptions& options) {
  const partition::DistributedGraph& dg = *plan.dg;
  KCoreResult result;
  result.core_number.assign(dg.num_vertices, kmin > 0 ? kmin - 1 : 0);
  std::vector<bool> alive(dg.num_vertices, true);
  for (uint32_t k = kmin; k <= kmax; ++k) {
    KCoreApp app;
    app.k = k;
    app.initial_alive = &alive;
    engine::GasRunResult<KCoreApp> run =
        engine::RunGasEngine(engine_kind, plan, cluster, app, options);
    uint64_t survivors = 0;
    for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
      alive[v] = dg.present[v] && run.states[v] != 0;
      if (alive[v]) {
        result.core_number[v] = k;
        ++survivors;
      }
    }
    result.core_sizes.push_back(survivors);
    result.stats.iterations += run.stats.iterations;
    result.stats.compute_seconds += run.stats.compute_seconds;
    result.stats.network_bytes += run.stats.network_bytes;
    result.stats.mean_inbound_bytes_per_machine +=
        run.stats.mean_inbound_bytes_per_machine;
    double base = result.stats.cumulative_seconds.empty()
                      ? 0.0
                      : result.stats.cumulative_seconds.back();
    for (double t : run.stats.cumulative_seconds) {
      result.stats.cumulative_seconds.push_back(base + t);
    }
    for (uint64_t a : run.stats.active_counts) {
      result.stats.active_counts.push_back(a);
    }
    result.stats.converged = run.stats.converged;
    if (survivors == 0) break;  // higher k-cores are empty too
  }
  return result;
}

}  // namespace gdp::apps
