#ifndef GDP_HARNESS_EXPERIMENT_INTERNAL_H_
#define GDP_HARNESS_EXPERIMENT_INTERNAL_H_

// Shared plumbing between the per-cell runners (experiment.cc) and the
// cached/grid runners (partition_cache.cc, grid.cc): the spec -> options
// projections and the common report-population blocks that used to be
// copy-pasted between RunExperiment and RunIngressOnly. Everything here is
// a pure function of its inputs; keeping one seam guarantees the cached
// path charges and reports exactly what the fresh path does.

#include "engine/plan_cache.h"
#include "engine/run_stats.h"
#include "graph/edge_list.h"
#include "harness/experiment.h"
#include "obs/exec_context.h"
#include "partition/ingest.h"
#include "partition/partitioner.h"
#include "sim/cluster.h"

namespace gdp::harness::internal {

/// Partitioner configuration for one spec (loader resolution included).
partition::PartitionContext PartitionContextFor(const graph::EdgeList& edges,
                                                const ExperimentSpec& spec);

/// Ingest options for one spec: master policy per engine, derived seed,
/// and the resolved execution context (threads + observability sinks).
partition::IngestOptions IngestOptionsFor(const ExperimentSpec& spec,
                                          const obs::ExecContext& exec);

/// Engine options for one spec: iteration cap, GraphX work multiplier,
/// and the resolved execution context (threads + observability sinks).
engine::RunOptions RunOptionsFor(const ExperimentSpec& spec,
                                 const obs::ExecContext& exec);

/// Copies the ingress-side metrics of `report` into `out`.
void PopulateIngressMetrics(const partition::IngressReport& report,
                            ExperimentResult* out);

/// Fills the end-of-run cluster metrics (total time, memory peaks, CPU
/// utilizations) from the cluster's final state.
void FinalizeClusterMetrics(const sim::Cluster& cluster,
                            ExperimentResult* out);

/// Dispatches the spec's application onto the engines over `plans.dg()`
/// and stores its RunStats in out->compute. The GAS apps run on the
/// cache's ExecutionPlan for their direction pair and GraphX flag; a plan
/// is a pure function of those and the graph, so a fresh and a shared
/// cache give bit-identical results.
void RunApp(const ExperimentSpec& spec, engine::PlanCache& plans,
            sim::Cluster& cluster, const engine::RunOptions& run_options,
            ExperimentResult* out);

}  // namespace gdp::harness::internal

#endif  // GDP_HARNESS_EXPERIMENT_INTERNAL_H_
