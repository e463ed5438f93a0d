#include "harness/experiment.h"

#include "apps/coloring.h"
#include "apps/kcore.h"
#include "apps/label_propagation.h"
#include "apps/msbfs.h"
#include "apps/pagerank.h"
#include "apps/sssp.h"
#include "apps/triangle_count.h"
#include "apps/wcc.h"
#include "engine/async_coloring.h"
#include "harness/experiment_internal.h"
#include "partition/validate.h"
#include "util/check.h"

namespace gdp::harness {

const char* AppKindName(AppKind app) {
  switch (app) {
    case AppKind::kPageRankFixed:
      return "PageRank(10)";
    case AppKind::kPageRankConvergent:
      return "PageRank(C)";
    case AppKind::kWcc:
      return "WCC";
    case AppKind::kSssp:
      return "SSSP";
    case AppKind::kSsspDirected:
      return "SSSP(dir)";
    case AppKind::kKCore:
      return "K-Core";
    case AppKind::kColoring:
      return "Coloring";
    case AppKind::kTriangles:
      return "Triangles";
    case AppKind::kLabelPropagation:
      return "LabelProp";
    case AppKind::kMsBfs:
      return "MS-BFS";
  }
  return "?";
}

bool IsNaturalApp(AppKind app) {
  switch (app) {
    case AppKind::kPageRankFixed:
    case AppKind::kPageRankConvergent:
    case AppKind::kSsspDirected:
      return true;
    default:
      return false;
  }
}

namespace internal {

partition::PartitionContext PartitionContextFor(const graph::EdgeList& edges,
                                                const ExperimentSpec& spec) {
  partition::PartitionContext context;
  context.num_partitions = spec.num_machines * spec.partitions_per_machine;
  context.num_vertices = edges.num_vertices();
  context.num_loaders =
      spec.num_loaders == 0 ? spec.num_machines : spec.num_loaders;
  context.seed = spec.seed;
  // Budget-aware strategies (SNE, HEP) size their resident state from it.
  context.memory_budget_bytes = spec.ingress_memory_budget_bytes;
  return context;
}

partition::IngestOptions IngestOptionsFor(const ExperimentSpec& spec,
                                          const obs::ExecContext& exec) {
  partition::IngestOptions options;
  options.num_loaders = spec.num_loaders;
  options.exec = exec;
  options.seed = spec.seed ^ 0x51ed2701;
  options.use_block_store = spec.use_block_ingress;
  switch (spec.engine) {
    case engine::EngineKind::kPowerGraphSync:
      options.master_policy = partition::MasterPolicy::kRandomReplica;
      options.use_partitioner_master_preference = false;
      break;
    case engine::EngineKind::kPowerLyraHybrid:
      // PowerLyra homes every vertex at its hash location; hybrid-aware
      // strategies refine that via their master preference.
      options.master_policy = partition::MasterPolicy::kVertexHash;
      options.use_partitioner_master_preference = true;
      break;
    case engine::EngineKind::kGraphXPregel:
      // GraphX hash-partitions the vertex RDD.
      options.master_policy = partition::MasterPolicy::kVertexHash;
      options.use_partitioner_master_preference = false;
      break;
  }
  return options;
}

engine::RunOptions RunOptionsFor(const ExperimentSpec& spec,
                                 const obs::ExecContext& exec) {
  engine::RunOptions options;
  options.max_iterations = spec.max_iterations;
  options.exec = exec;
  if (spec.engine == engine::EngineKind::kGraphXPregel) {
    // Dataflow/JVM overhead: GraphX computation is markedly slower per
    // edge-op than the C++ systems (§7.4 observes compute >> partitioning).
    options.work_multiplier = 4.0;
  }
  return options;
}

void PopulateIngressMetrics(const partition::IngressReport& report,
                            ExperimentResult* out) {
  out->ingress = report;
  out->replication_factor = report.replication_factor;
  out->edge_balance_ratio = report.edge_balance_ratio;
}

void FinalizeClusterMetrics(const sim::Cluster& cluster,
                            ExperimentResult* out) {
  out->total_seconds = cluster.now_seconds();
  out->mean_peak_memory_bytes = cluster.MeanPeakMemoryBytes();
  out->max_peak_memory_bytes = cluster.MaxPeakMemoryBytes();
  out->cpu_utilizations = cluster.CpuUtilizations();
}

namespace {

/// Runs one GAS application on the cache's plan for its direction pair.
template <typename App>
engine::GasRunResult<App> RunGas(const ExperimentSpec& spec,
                                 engine::PlanCache& plans,
                                 sim::Cluster& cluster, App app,
                                 const engine::RunOptions& options) {
  const bool graphx = spec.engine == engine::EngineKind::kGraphXPregel;
  const std::shared_ptr<const engine::ExecutionPlan> plan =
      plans.Get(App::kGatherDir, App::kScatterDir, graphx,
                options.exec.num_threads);
  return engine::RunGasEngine(spec.engine, *plan, cluster, std::move(app),
                              options);
}

}  // namespace

void RunApp(const ExperimentSpec& spec, engine::PlanCache& plans,
            sim::Cluster& cluster, const engine::RunOptions& run_options,
            ExperimentResult* out) {
  const partition::DistributedGraph& dg = plans.dg();
  const bool graphx = spec.engine == engine::EngineKind::kGraphXPregel;
  switch (spec.app) {
    case AppKind::kPageRankFixed: {
      auto r = RunGas(spec, plans, cluster, apps::PageRankFixed(),
                      run_options);
      out->compute = r.stats;
      break;
    }
    case AppKind::kPageRankConvergent: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 500u);
      auto r = RunGas(spec, plans, cluster,
                      apps::PageRankConvergent(spec.pagerank_tolerance), opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kWcc: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      auto r = RunGas(spec, plans, cluster, apps::WccApp{}, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kSssp: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::SsspApp app;
      app.source = spec.sssp_source;
      auto r = RunGas(spec, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kSsspDirected: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::DirectedSsspApp app;
      app.source = spec.sssp_source;
      auto r = RunGas(spec, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kKCore: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      const std::shared_ptr<const engine::ExecutionPlan> plan =
          plans.Get(apps::KCoreApp::kGatherDir, apps::KCoreApp::kScatterDir,
                    graphx, opts.exec.num_threads);
      apps::KCoreResult r =
          apps::KCoreDecompose(spec.engine, *plan, cluster, spec.kcore_kmin,
                               spec.kcore_kmax, opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kColoring: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 1000u);
      if (graphx) {
        auto r = RunGas(spec, plans, cluster, apps::ColoringApp{}, opts);
        out->compute = r.stats;
      } else {
        // PowerGraph/PowerLyra run Simple Coloring on the async engine
        // (§5.3).
        engine::AsyncColoringResult r =
            engine::RunAsyncColoring(dg, cluster, opts);
        out->compute = r.stats;
      }
      break;
    }
    case AppKind::kTriangles: {
      const std::shared_ptr<const engine::ExecutionPlan> plan =
          plans.Get(apps::NeighborListApp::kGatherDir,
                    apps::NeighborListApp::kScatterDir, graphx,
                    run_options.exec.num_threads);
      apps::TriangleCountResult r =
          apps::CountTriangles(spec.engine, *plan, cluster, run_options);
      out->compute = r.stats;
      break;
    }
    case AppKind::kLabelPropagation: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::min(opts.max_iterations, 50u);  // may cycle
      auto r = RunGas(spec, plans, cluster, apps::LabelPropagationApp{},
                      opts);
      out->compute = r.stats;
      break;
    }
    case AppKind::kMsBfs: {
      engine::RunOptions opts = run_options;
      opts.max_iterations = std::max(opts.max_iterations, 2000u);
      apps::MsBfsApp app;
      for (graph::VertexId i = 0; i < 64 && i < dg.num_vertices; ++i) {
        app.sources.push_back(
            (spec.sssp_source + i * 97) % dg.num_vertices);
      }
      auto r = RunGas(spec, plans, cluster, app, opts);
      out->compute = r.stats;
      break;
    }
  }
}

}  // namespace internal

namespace {

/// The shared end-to-end cell runner: ingress always, compute unless
/// `ingress_only`. RunExperiment and RunIngressOnly are thin wrappers.
ExperimentResult RunCell(const graph::EdgeList& edges,
                         const ExperimentSpec& spec, bool ingress_only) {
  GDP_CHECK_GT(spec.num_machines, 0u);
  sim::Cluster cluster(spec.num_machines, sim::CostModel{});
  ExperimentResult result;

  partition::IngestResult ingest = partition::IngestWithStrategy(
      edges, spec.strategy, internal::PartitionContextFor(edges, spec),
      cluster, internal::IngestOptionsFor(spec, spec.exec));
  GDP_DCHECK_OK(partition::ValidateDistributedGraph(ingest.graph));
  internal::PopulateIngressMetrics(ingest.report, &result);

  if (!ingress_only) {
    engine::PlanCache plans(ingest.graph);
    internal::RunApp(spec, plans, cluster,
                     internal::RunOptionsFor(spec, spec.exec), &result);
  }

  internal::FinalizeClusterMetrics(cluster, &result);
  return result;
}

}  // namespace

ExperimentResult RunExperiment(const graph::EdgeList& edges,
                               const ExperimentSpec& spec) {
  return RunCell(edges, spec, /*ingress_only=*/false);
}

ExperimentResult RunIngressOnly(const graph::EdgeList& edges,
                                const ExperimentSpec& spec) {
  return RunCell(edges, spec, /*ingress_only=*/true);
}

}  // namespace gdp::harness
