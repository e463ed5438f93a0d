#include "sim/phase_accumulator.h"

#include "util/check.h"

namespace gdp::sim {

void PhaseAccumulator::Reset(uint32_t num_machines) {
  ticks_.assign(num_machines, 0);
  sent_bytes_.assign(num_machines, 0);
  recv_bytes_.assign(num_machines, 0);
}

void PhaseAccumulator::Merge(const PhaseAccumulator& other) {
  GDP_CHECK_EQ(ticks_.size(), other.ticks_.size());
  for (size_t m = 0; m < ticks_.size(); ++m) {
    ticks_[m] += other.ticks_[m];
    sent_bytes_[m] += other.sent_bytes_[m];
    recv_bytes_[m] += other.recv_bytes_[m];
  }
}

void PhaseAccumulator::FlushTo(Cluster& cluster) const {
  for (size_t m = 0; m < ticks_.size(); ++m) {
    Machine& machine = cluster.machine(static_cast<MachineId>(m));
    if (sent_bytes_[m] != 0) machine.ChargePhaseBytes(sent_bytes_[m]);
    if (recv_bytes_[m] != 0) machine.ReceiveBytes(recv_bytes_[m]);
    machine.AddTicks(ticks_[m]);
  }
}

uint64_t PhaseAccumulator::TotalTicks() const {
  uint64_t total = 0;
  for (uint64_t t : ticks_) total += t;
  return total;
}

uint64_t PhaseAccumulator::TotalSentBytes() const {
  uint64_t total = 0;
  for (uint64_t b : sent_bytes_) total += b;
  return total;
}

}  // namespace gdp::sim
