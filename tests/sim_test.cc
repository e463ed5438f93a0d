#include <gtest/gtest.h>

#include "sim/cluster.h"
#include "sim/phase_accumulator.h"
#include "sim/cost_model.h"

namespace gdp::sim {
namespace {

TEST(CostModelTest, TransferAndWorkSeconds) {
  CostModel model;
  model.bandwidth_bytes_per_second = 100;
  model.seconds_per_work = 2.0;
  EXPECT_DOUBLE_EQ(model.TransferSeconds(50), 0.5);
  EXPECT_DOUBLE_EQ(model.WorkSeconds(3), 6.0);
}

TEST(MachineTest, MemoryPeakTracking) {
  Machine m;
  m.Allocate(100);
  m.Allocate(200);
  m.Free(250);
  EXPECT_EQ(m.memory_bytes(), 50u);
  EXPECT_EQ(m.peak_memory_bytes(), 300u);
}

TEST(MachineTest, FreeClampsAtZero) {
  Machine m;
  m.Allocate(10);
  m.Free(100);
  EXPECT_EQ(m.memory_bytes(), 0u);
}

TEST(ClusterTest, EndPhaseAdvancesByMaxPlusBarrier) {
  CostModel model;
  model.seconds_per_work = 1.0;
  model.barrier_latency_seconds = 0.5;
  Cluster cluster(3, model);
  cluster.machine(0).AddTicks(20);
  cluster.machine(1).AddTicks(100);  // straggler
  cluster.machine(2).AddTicks(40);
  double dt = cluster.EndPhase();
  EXPECT_DOUBLE_EQ(dt, 5.5);
  EXPECT_DOUBLE_EQ(cluster.now_seconds(), 5.5);
}

TEST(ClusterTest, EndPhaseAsyncAdvancesByMean) {
  CostModel model;
  model.seconds_per_work = 1.0;
  model.barrier_latency_seconds = 0.5;
  Cluster cluster(2, model);
  cluster.machine(0).AddTicks(40);
  cluster.machine(1).AddTicks(80);
  double dt = cluster.EndPhaseAsync();
  EXPECT_DOUBLE_EQ(dt, 3.0);  // mean, no barrier
}

TEST(ClusterTest, PhaseChargesResetBetweenPhases) {
  CostModel model;
  model.seconds_per_work = 1.0;
  model.barrier_latency_seconds = 0;
  Cluster cluster(1, model);
  cluster.machine(0).AddTicks(60);
  cluster.EndPhase();
  double dt = cluster.EndPhase();  // nothing charged this phase
  EXPECT_DOUBLE_EQ(dt, 0.0);
}

TEST(ClusterTest, PhaseBytesContributeTransferTime) {
  CostModel model;
  model.bandwidth_bytes_per_second = 10;
  model.barrier_latency_seconds = 0;
  Cluster cluster(1, model);
  cluster.machine(0).ChargePhaseBytes(20);
  EXPECT_DOUBLE_EQ(cluster.EndPhase(), 2.0);
  EXPECT_EQ(cluster.machine(0).bytes_sent(), 20u);
}

TEST(ClusterTest, BusySecondsAccumulatePerMachine) {
  CostModel model;
  model.seconds_per_work = 1.0;
  model.barrier_latency_seconds = 0;
  Cluster cluster(2, model);
  cluster.machine(0).AddTicks(20);
  cluster.machine(1).AddTicks(80);
  cluster.EndPhase();
  EXPECT_DOUBLE_EQ(cluster.machine(0).busy_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(cluster.machine(1).busy_seconds(), 4.0);
}

TEST(ClusterTest, CpuUtilizationReflectsImbalance) {
  CostModel model;
  model.seconds_per_work = 1.0;
  model.barrier_latency_seconds = 0;
  Cluster cluster(2, model);
  cluster.machine(0).AddTicks(20);
  cluster.machine(1).AddTicks(80);
  cluster.EndPhase();
  std::vector<double> utils = cluster.CpuUtilizations();
  EXPECT_DOUBLE_EQ(utils[0], 0.25);  // idle while waiting at the barrier
  EXPECT_DOUBLE_EQ(utils[1], 1.0);
}

TEST(ClusterTest, Aggregates) {
  Cluster cluster(2, CostModel{});
  cluster.machine(0).SendBytes(10);
  cluster.machine(1).SendBytes(30);
  cluster.machine(0).Allocate(100);
  cluster.machine(1).Allocate(300);
  EXPECT_EQ(cluster.TotalBytesSent(), 40u);
  EXPECT_EQ(cluster.TotalMemoryBytes(), 400u);
  EXPECT_EQ(cluster.MaxPeakMemoryBytes(), 300u);
  EXPECT_DOUBLE_EQ(cluster.MeanPeakMemoryBytes(), 200.0);
}

// ---------------------------------------------------------------------------
// Machine allocate/free symmetry
// ---------------------------------------------------------------------------

TEST(MachineTest, FreeOfExactAllocationReturnsToZero) {
  Machine m;
  m.Allocate(4096);
  m.Free(4096);  // an exact refund must not leave a stuck byte
  EXPECT_EQ(m.memory_bytes(), 0u);
  EXPECT_EQ(m.peak_memory_bytes(), 4096u);
}

TEST(MachineTest, InterleavedAllocateFreePairsBalance) {
  Machine m;
  for (uint64_t bytes : {64u, 48u, 16u, 24u}) m.Allocate(bytes);
  for (uint64_t bytes : {24u, 16u, 48u, 64u}) m.Free(bytes);
  EXPECT_EQ(m.memory_bytes(), 0u);
  m.Allocate(100);
  EXPECT_EQ(m.memory_bytes(), 100u);
  EXPECT_EQ(m.peak_memory_bytes(), 152u);
}

// ---------------------------------------------------------------------------
// PhaseAccumulator
// ---------------------------------------------------------------------------

TEST(PhaseAccumulatorTest, MergeIsOrderFree) {
  PhaseAccumulator a, b;
  a.Reset(2);
  b.Reset(2);
  a.AddTicks(0, 5);
  a.ChargeSendBytes(1, 100);
  b.AddTicks(0, 7);
  b.ChargeReceiveBytes(0, 30);
  PhaseAccumulator a2 = a, b2 = b;
  a.Merge(b);
  b2.Merge(a2);
  for (MachineId m = 0; m < 2; ++m) {
    EXPECT_EQ(a.ticks(m), b2.ticks(m));
    EXPECT_EQ(a.sent_bytes(m), b2.sent_bytes(m));
    EXPECT_EQ(a.recv_bytes(m), b2.recv_bytes(m));
  }
}

TEST(PhaseAccumulatorTest, FlushToChargesClusterOnce) {
  Cluster cluster(2, CostModel{});
  PhaseAccumulator acc;
  acc.Reset(2);
  acc.AddTicks(0, 40);  // 2.0 work units
  acc.ChargeSendBytes(0, 1000);
  acc.ChargeReceiveBytes(1, 1000);
  acc.FlushTo(cluster);
  EXPECT_EQ(cluster.machine(0).phase_ticks(), 40u);
  EXPECT_EQ(cluster.machine(0).phase_bytes(), 1000u);
  EXPECT_EQ(cluster.machine(0).bytes_sent(), 1000u);
  EXPECT_EQ(cluster.machine(1).bytes_received(), 1000u);
}

// ---------------------------------------------------------------------------
// Tick-to-seconds conversion
// ---------------------------------------------------------------------------

TEST(ClusterTest, EndPhaseAppliesWorkMultiplierOnce) {
  // The multiplier scales the machine's tick total once at the barrier,
  // not each charge: 3 ticks at 0.3 convert as (3 * kWorkPerTick) * 0.3.
  CostModel model;
  model.barrier_latency_seconds = 0;
  Cluster cluster(1, model);
  cluster.machine(0).AddTicks(1);
  cluster.machine(0).AddTicks(2);
  const double want = model.WorkSeconds(3 * kWorkPerTick * 0.3);
  EXPECT_EQ(cluster.EndPhase(0.3), want);
  EXPECT_EQ(cluster.machine(0).busy_seconds(), want);
  EXPECT_EQ(cluster.machine(0).phase_ticks(), 0u);
}

TEST(ClusterTest, FiveTickMultiplesConvertExactly) {
  // PowerGraph, PowerLyra and the async engines charge only multiples of 5
  // ticks (a quarter work unit); 5u ticks must convert to exactly u quarter
  // units — with and without a dyadic work multiplier — for their simulated
  // costs to keep their bits.
  for (uint64_t u : {uint64_t{1}, uint64_t{3}, (uint64_t{1} << 20) + 1,
                     (uint64_t{1} << 40) + 7, (uint64_t{1} << 50) - 1}) {
    SCOPED_TRACE(u);
    const double quarters = static_cast<double>(u) * 0.25;
    const double converted = static_cast<double>(5 * u) * kWorkPerTick;
    EXPECT_EQ(converted, quarters);
    EXPECT_EQ(converted * 4.0, quarters * 4.0);
  }
}

}  // namespace
}  // namespace gdp::sim
