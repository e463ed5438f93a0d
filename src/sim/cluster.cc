#include "sim/cluster.h"

#include <algorithm>

#include "util/check.h"

namespace gdp::sim {

Cluster::Cluster(uint32_t num_machines, CostModel cost_model)
    : machines_(num_machines), cost_model_(cost_model) {}

std::pair<double, double> Cluster::ClosePhases(double work_multiplier) {
  double slowest = 0;
  double total = 0;
  for (Machine& machine : machines_) {
    const double t =
        cost_model_.WorkSeconds(static_cast<double>(machine.phase_ticks()) *
                                kWorkPerTick * work_multiplier) +
        cost_model_.TransferSeconds(machine.phase_bytes());
    slowest = std::max(slowest, t);
    total += t;
    machine.ClosePhase(t);
  }
  return {slowest, total};
}

double Cluster::EndPhase(double work_multiplier) {
  const double duration =
      ClosePhases(work_multiplier).first + cost_model_.barrier_latency_seconds;
  // Serial barrier-point advance (EndPhase runs on one thread).
  now_seconds_ += duration;  // NOLINT(no-float-accumulate)
  return duration;
}

double Cluster::EndPhaseAsync(double work_multiplier) {
  const double total = ClosePhases(work_multiplier).second;
  const double duration = machines_.empty()
                              ? 0.0
                              : total / static_cast<double>(machines_.size());
  // Serial barrier-point advance (EndPhase runs on one thread).
  now_seconds_ += duration;  // NOLINT(no-float-accumulate)
  return duration;
}

uint64_t Cluster::TotalBytesSent() const {
  uint64_t total = 0;
  for (const Machine& m : machines_) total += m.bytes_sent();
  return total;
}

uint64_t Cluster::TotalMemoryBytes() const {
  uint64_t total = 0;
  for (const Machine& m : machines_) total += m.memory_bytes();
  return total;
}

uint64_t Cluster::MaxPeakMemoryBytes() const {
  uint64_t peak = 0;
  for (const Machine& m : machines_) {
    peak = std::max(peak, m.peak_memory_bytes());
  }
  return peak;
}

double Cluster::MeanPeakMemoryBytes() const {
  if (machines_.empty()) return 0;
  double total = 0;
  for (const Machine& m : machines_) {
    total += static_cast<double>(m.peak_memory_bytes());
  }
  return total / static_cast<double>(machines_.size());
}

ClusterSnapshot Cluster::Snapshot() const {
  return ClusterSnapshot{machines_, now_seconds_};
}

void Cluster::Restore(const ClusterSnapshot& snapshot) {
  GDP_DCHECK_EQ(machines_.size(), snapshot.machines.size());
  machines_ = snapshot.machines;
  now_seconds_ = snapshot.now_seconds;
}

std::vector<double> Cluster::CpuUtilizations() const {
  std::vector<double> utils(machines_.size(), 0.0);
  if (now_seconds_ <= 0) return utils;
  for (size_t m = 0; m < machines_.size(); ++m) {
    utils[m] = machines_[m].busy_seconds() / now_seconds_;
  }
  return utils;
}

}  // namespace gdp::sim
