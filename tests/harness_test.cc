#include <gtest/gtest.h>

#include <memory>

#include "engine/graphx_memory.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "obs/trace.h"

namespace gdp::harness {
namespace {

graph::EdgeList SmallSocial() {
  return graph::GenerateHeavyTailed(
      {.num_vertices = 2000, .edges_per_vertex = 5, .seed = 71});
}

TEST(HarnessTest, AppNamesAndNaturalness) {
  EXPECT_STREQ(AppKindName(AppKind::kPageRankFixed), "PageRank(10)");
  EXPECT_TRUE(IsNaturalApp(AppKind::kPageRankFixed));
  EXPECT_TRUE(IsNaturalApp(AppKind::kSsspDirected));
  EXPECT_FALSE(IsNaturalApp(AppKind::kSssp));
  EXPECT_FALSE(IsNaturalApp(AppKind::kWcc));
  EXPECT_FALSE(IsNaturalApp(AppKind::kKCore));
}

TEST(HarnessTest, RunExperimentPopulatesAllMetrics) {
  ExperimentSpec spec;
  spec.num_machines = 9;
  spec.app = AppKind::kPageRankFixed;
  spec.max_iterations = 5;
  ExperimentResult r = RunExperiment(SmallSocial(), spec);
  EXPECT_GT(r.ingress.ingress_seconds, 0.0);
  EXPECT_GT(r.compute.compute_seconds, 0.0);
  EXPECT_NEAR(r.total_seconds,
              r.ingress.ingress_seconds + r.compute.compute_seconds, 1e-9);
  EXPECT_GT(r.replication_factor, 1.0);
  EXPECT_GT(r.mean_peak_memory_bytes, 0.0);
  EXPECT_GE(r.max_peak_memory_bytes, r.mean_peak_memory_bytes);
  EXPECT_EQ(r.cpu_utilizations.size(), 9u);
  EXPECT_GE(r.edge_balance_ratio, 1.0);
}

TEST(HarnessTest, RunIngressOnlySkipsCompute) {
  ExperimentSpec spec;
  spec.num_machines = 9;
  ExperimentResult r = RunIngressOnly(SmallSocial(), spec);
  EXPECT_GT(r.ingress.ingress_seconds, 0.0);
  EXPECT_EQ(r.compute.iterations, 0u);
  EXPECT_DOUBLE_EQ(r.total_seconds, r.ingress.ingress_seconds);
}

TEST(HarnessTest, DeterministicForSameSpec) {
  ExperimentSpec spec;
  spec.num_machines = 5;
  spec.app = AppKind::kWcc;
  graph::EdgeList edges = SmallSocial();
  ExperimentResult a = RunExperiment(edges, spec);
  ExperimentResult b = RunExperiment(edges, spec);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_DOUBLE_EQ(a.replication_factor, b.replication_factor);
  EXPECT_EQ(a.compute.network_bytes, b.compute.network_bytes);
}

TEST(HarnessTest, EveryAppRunsOnEverySystem) {
  graph::EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 600, .edges_per_vertex = 4, .seed = 72});
  for (auto engine_kind :
       {engine::EngineKind::kPowerGraphSync,
        engine::EngineKind::kPowerLyraHybrid,
        engine::EngineKind::kGraphXPregel}) {
    for (auto app : {AppKind::kPageRankFixed, AppKind::kPageRankConvergent,
                     AppKind::kWcc, AppKind::kSssp, AppKind::kSsspDirected,
                     AppKind::kKCore, AppKind::kColoring}) {
      ExperimentSpec spec;
      spec.engine = engine_kind;
      spec.strategy = partition::StrategyKind::kGrid;
      spec.num_machines = 4;
      spec.app = app;
      spec.max_iterations = 5;
      spec.kcore_kmin = 2;
      spec.kcore_kmax = 4;
      ExperimentResult r = RunExperiment(edges, spec);
      EXPECT_GT(r.compute.compute_seconds, 0.0)
          << engine::EngineKindName(engine_kind) << "/" << AppKindName(app);
    }
  }
}

// A traced cell's memory samples (the `memory_bytes` span args) cover the
// ingress passes, finalize, the end of ingress and every superstep.
TEST(HarnessTest, TraceSamplesMemoryAcrossIngressAndCompute) {
  obs::TraceRecorder trace;
  ExperimentSpec spec;
  spec.num_machines = 4;
  spec.app = AppKind::kPageRankFixed;
  spec.max_iterations = 3;
  spec.exec.trace = &trace;
  ExperimentResult r = RunExperiment(SmallSocial(), spec);

  size_t samples = 0;
  double ingress_end = -1.0;
  double last_superstep_end = -1.0;
  for (const obs::TraceSpan& span : trace.Snapshot()) {
    bool sampled = false;
    for (const auto& [key, value] : span.args) {
      sampled |= key == "memory_bytes" && value > 0;
    }
    if (!sampled) continue;
    ++samples;
    if (span.name == "ingress") ingress_end = span.sim_end_seconds;
    if (span.category == "engine") last_superstep_end = span.sim_end_seconds;
  }
  EXPECT_GE(samples, 5u);
  EXPECT_GE(ingress_end, 0.0);
  EXPECT_GT(last_superstep_end, ingress_end);
  EXPECT_EQ(last_superstep_end, r.total_seconds);
}

TEST(HarnessTest, GraphXPartitionsPerMachine) {
  ExperimentSpec spec;
  spec.engine = engine::EngineKind::kGraphXPregel;
  spec.strategy = partition::StrategyKind::kTwoD;
  spec.num_machines = 9;
  spec.partitions_per_machine = 8;  // one per core
  spec.app = AppKind::kPageRankFixed;
  spec.max_iterations = 3;
  ExperimentResult r = RunExperiment(SmallSocial(), spec);
  EXPECT_GT(r.replication_factor, 1.0);
  EXPECT_GT(r.compute.compute_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// GraphX executor-memory model (Fig 9.4 regimes)
// ---------------------------------------------------------------------------

class MemoryPressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::EdgeList edges = SmallSocial();
    ExperimentSpec spec;
    spec.engine = engine::EngineKind::kGraphXPregel;
    spec.num_machines = 9;
    sim::Cluster cluster(9, sim::CostModel{});
    partition::PartitionContext context;
    context.num_partitions = 9;
    context.num_vertices = edges.num_vertices();
    context.num_loaders = 9;
    ingest_ = std::make_unique<partition::IngestResult>(
        partition::IngestWithStrategy(edges,
                                      partition::StrategyKind::kRandom,
                                      context, cluster));
  }

  engine::MemoryPressureOptions BaseOptions() {
    engine::MemoryPressureOptions options;
    options.num_executors = 9;
    options.initial_executors = 2;
    options.base_execution_seconds = 100;
    return options;
  }

  std::unique_ptr<partition::IngestResult> ingest_;
};

TEST_F(MemoryPressureTest, ThreeRegimesAppearInOrder) {
  engine::MemoryPressureOptions options = BaseOptions();
  uint64_t graph_bytes =
      engine::SimulateExecutorMemory(ingest_->graph, options).graph_bytes;
  // Tiny budget: fails.
  options.executor_memory_bytes = graph_bytes / 20;
  auto fail = engine::SimulateExecutorMemory(ingest_->graph, options);
  EXPECT_EQ(fail.outcome, engine::MemoryOutcome::kFailed);
  // Mid budget: fits on the cluster, not on 2 executors.
  options.executor_memory_bytes = graph_bytes / 4;
  auto mid = engine::SimulateExecutorMemory(ingest_->graph, options);
  EXPECT_EQ(mid.outcome, engine::MemoryOutcome::kRedistributed);
  EXPECT_GE(mid.placement_attempts, 2u);
  // Ample budget: first placement fits.
  options.executor_memory_bytes = graph_bytes;
  auto fit = engine::SimulateExecutorMemory(ingest_->graph, options);
  EXPECT_EQ(fit.outcome, engine::MemoryOutcome::kFastFit);
  EXPECT_EQ(fit.placement_attempts, 1u);
  // Fast-fit is fastest.
  EXPECT_LT(fit.execution_seconds, mid.execution_seconds);
}

TEST_F(MemoryPressureTest, MoreMemoryReducesGcOverhead) {
  engine::MemoryPressureOptions options = BaseOptions();
  uint64_t graph_bytes =
      engine::SimulateExecutorMemory(ingest_->graph, options).graph_bytes;
  options.executor_memory_bytes = graph_bytes;
  auto tight = engine::SimulateExecutorMemory(ingest_->graph, options);
  options.executor_memory_bytes = graph_bytes * 4;
  auto roomy = engine::SimulateExecutorMemory(ingest_->graph, options);
  ASSERT_EQ(tight.outcome, engine::MemoryOutcome::kFastFit);
  ASSERT_EQ(roomy.outcome, engine::MemoryOutcome::kFastFit);
  EXPECT_LT(roomy.execution_seconds, tight.execution_seconds);
  EXPECT_LT(roomy.gc_overhead_fraction, tight.gc_overhead_fraction);
}

TEST_F(MemoryPressureTest, OutcomeNamesDistinct) {
  EXPECT_STRNE(engine::MemoryOutcomeName(engine::MemoryOutcome::kFailed),
               engine::MemoryOutcomeName(engine::MemoryOutcome::kFastFit));
}

}  // namespace
}  // namespace gdp::harness
