#ifndef GDP_SIM_CLUSTER_H_
#define GDP_SIM_CLUSTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/cost_model.h"

namespace gdp::sim {

/// Identifies a simulated machine (a partition host) within a Cluster.
using MachineId = uint32_t;

/// Per-machine accounting. The simulator never moves real bytes; engines and
/// ingestors *charge* machines, and the cost model turns charges into time.
class Machine {
 public:
  /// Network accounting (cumulative over the run).
  void SendBytes(uint64_t bytes) { bytes_sent_ += bytes; }
  void ReceiveBytes(uint64_t bytes) { bytes_received_ += bytes; }

  /// Charges `ticks` of compute (kWorkPerTick work units each) to this
  /// machine's current phase. An integer sum, so charges commute.
  void AddTicks(uint64_t ticks) { phase_ticks_ += ticks; }

  /// Memory accounting with peak tracking.
  void Allocate(uint64_t bytes) {
    memory_bytes_ += bytes;
    if (memory_bytes_ > peak_memory_bytes_) {
      peak_memory_bytes_ = memory_bytes_;
    }
  }
  void Free(uint64_t bytes) {
    memory_bytes_ -= bytes <= memory_bytes_ ? bytes : memory_bytes_;
  }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t memory_bytes() const { return memory_bytes_; }
  uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  double busy_seconds() const { return busy_seconds_; }

  /// Phase protocol (used by Cluster::EndPhase): compute ticks charged and
  /// bytes sent since the last barrier.
  uint64_t phase_ticks() const { return phase_ticks_; }
  uint64_t phase_bytes() const { return phase_bytes_; }
  void ChargePhaseBytes(uint64_t bytes) {
    phase_bytes_ += bytes;
    SendBytes(bytes);
  }
  void ClosePhase(double busy) {
    busy_seconds_ += busy;  // NOLINT(no-float-accumulate): serial barrier
    phase_ticks_ = 0;
    phase_bytes_ = 0;
  }

 private:
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t memory_bytes_ = 0;
  uint64_t peak_memory_bytes_ = 0;
  double busy_seconds_ = 0;
  uint64_t phase_ticks_ = 0;
  uint64_t phase_bytes_ = 0;
};

/// A verbatim copy of a Cluster's mutable state (per-machine counters plus
/// the simulated clock), taken with Cluster::Snapshot() and reinstated with
/// Cluster::Restore(). Machine is a plain value type of integer counters
/// and a busy-seconds total, so a snapshot/restore round trip is exact: a
/// compute phase started from a restored post-ingress snapshot charges the
/// cluster bit-identically to one continuing on the original cluster. The
/// harness partition cache (harness/partition_cache.h) relies on this to
/// replay one ingress under many compute phases.
struct ClusterSnapshot {
  std::vector<Machine> machines;
  double now_seconds = 0;
};

/// A set of simulated machines plus a simulated clock. Bulk-synchronous
/// phases are modeled with EndPhase(): each machine's phase time is its
/// compute time plus its transfer time; the cluster clock advances by the
/// *maximum* (the barrier), which is how stragglers and load imbalance
/// manifest, exactly as in the real systems.
class Cluster {
 public:
  Cluster(uint32_t num_machines, CostModel cost_model);

  uint32_t num_machines() const {
    return static_cast<uint32_t>(machines_.size());
  }
  Machine& machine(MachineId m) { return machines_[m]; }
  const Machine& machine(MachineId m) const { return machines_[m]; }
  const CostModel& cost_model() const { return cost_model_; }

  /// Simulated wall-clock time elapsed since construction/Reset.
  double now_seconds() const { return now_seconds_; }

  /// Ends a bulk-synchronous phase: converts each machine's phase charges to
  /// seconds, advances the clock by the slowest machine plus one barrier
  /// latency, accumulates busy time, and returns the phase duration. A
  /// machine's ticks become `ticks * kWorkPerTick * work_multiplier` work
  /// units (evaluated left to right): the run's multiplier is applied here,
  /// once per machine per phase, never per charge.
  double EndPhase(double work_multiplier = 1.0);

  /// Ends an asynchronous round: same accounting, but the clock advances by
  /// the *mean* machine time (no global barrier; fast machines keep
  /// working). Used by the asynchronous engine (§5.1.2).
  double EndPhaseAsync(double work_multiplier = 1.0);

  /// Advances the clock without a barrier (e.g., purely local phases).
  // Serial barrier-point advance: one add per phase, fixed order.
  void AdvanceSeconds(double seconds) { now_seconds_ += seconds; }  // NOLINT(no-float-accumulate)

  /// Aggregates.
  uint64_t TotalBytesSent() const;
  uint64_t TotalMemoryBytes() const;
  uint64_t MaxPeakMemoryBytes() const;
  double MeanPeakMemoryBytes() const;

  /// Per-machine CPU utilization in [0, 1]: busy seconds / elapsed seconds.
  std::vector<double> CpuUtilizations() const;

  /// Captures the full mutable state (all machine counters + clock).
  ClusterSnapshot Snapshot() const;

  /// Reinstates a snapshot taken from a cluster with the same machine
  /// count; every counter and the clock match the snapshot exactly.
  void Restore(const ClusterSnapshot& snapshot);

 private:
  /// Closes every machine's phase; returns the slowest and the summed
  /// machine times.
  std::pair<double, double> ClosePhases(double work_multiplier);

  std::vector<Machine> machines_;
  CostModel cost_model_;
  double now_seconds_ = 0;
};

}  // namespace gdp::sim

#endif  // GDP_SIM_CLUSTER_H_
