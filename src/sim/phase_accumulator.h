#ifndef GDP_SIM_PHASE_ACCUMULATOR_H_
#define GDP_SIM_PHASE_ACCUMULATOR_H_

#include <cstdint>

#include "sim/cluster.h"
#include "util/cache_line.h"

namespace gdp::sim {

/// Per-lane accounting scratch for one parallel minor-step: each engine
/// lane (or ingress loader) counts compute ticks and sent/received bytes
/// per machine here, and the owner merges the lanes and flushes them to the
/// cluster on one thread at the end of the minor-step.
///
/// Each counter array sits on whole cache lines of its own
/// (util::LineVector), so lanes whose accumulators were allocated back to
/// back never write a shared line.
///
/// Every count is an integer, so merge order — and therefore the lane
/// count — never changes a flushed total. That is the whole of the
/// bit-identical-at-any-thread-count cost contract: Cluster::EndPhase then
/// turns each machine's ticks into seconds once, applying the run's work
/// multiplier there.
class PhaseAccumulator {
 public:
  /// Prepares the accumulator for `num_machines` machines, zeroing it.
  void Reset(uint32_t num_machines);

  /// Charges `ticks` of compute (Machine::AddTicks).
  void AddTicks(MachineId m, uint64_t ticks) { ticks_[m] += ticks; }
  /// Counts bytes the machine sends this phase (Machine::ChargePhaseBytes).
  void ChargeSendBytes(MachineId m, uint64_t bytes) {
    sent_bytes_[m] += bytes;
  }
  /// Counts bytes the machine receives (Machine::ReceiveBytes).
  void ChargeReceiveBytes(MachineId m, uint64_t bytes) {
    recv_bytes_[m] += bytes;
  }

  /// Adds another lane's counts into this one. Integer sums, so merge order
  /// never affects the flushed result.
  void Merge(const PhaseAccumulator& other);

  /// Adds every machine's counts to the cluster's current phase.
  void FlushTo(Cluster& cluster) const;

  /// Per-machine counters, by reference so their layout can be checked.
  const uint64_t& ticks(MachineId m) const { return ticks_[m]; }
  const uint64_t& sent_bytes(MachineId m) const { return sent_bytes_[m]; }
  const uint64_t& recv_bytes(MachineId m) const { return recv_bytes_[m]; }

  /// Sum of ticks over all machines — the simulated-cost breakdown the
  /// observability spans attach (an integer, so identical at any thread
  /// count).
  uint64_t TotalTicks() const;
  /// Sum of sent bytes over all machines (same determinism argument).
  uint64_t TotalSentBytes() const;

 private:
  util::LineVector<uint64_t> ticks_;
  util::LineVector<uint64_t> sent_bytes_;
  util::LineVector<uint64_t> recv_bytes_;
};

}  // namespace gdp::sim

#endif  // GDP_SIM_PHASE_ACCUMULATOR_H_
