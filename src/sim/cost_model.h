#ifndef GDP_SIM_COST_MODEL_H_
#define GDP_SIM_COST_MODEL_H_

#include <cstdint>

namespace gdp::sim {

/// The simulated clock's integer unit: one tick is 1/20 of a work unit.
/// Every compute charge is a whole number of ticks, so per-machine phase
/// charges are exact uint64 sums in any order; Cluster::EndPhase converts
/// them to seconds once per machine per phase.
inline constexpr uint64_t kTicksPerWorkUnit = 20;
/// Work units per tick. The double nearest 0.05 is 0.05 * (1 + 2^-54), so
/// any multiple of 5 ticks converts exactly: double(5 * u) * kWorkPerTick
/// == u * 0.25 for every u below 2^50.
inline constexpr double kWorkPerTick = 0.05;
/// One message serialization: a quarter work unit.
inline constexpr uint64_t kSerializeTicks = 5;
/// One GraphX shuffle block: 0.8 work units.
inline constexpr uint64_t kShuffleBlockTicks = 16;

/// Converts abstract counters (work units, bytes, messages) into simulated
/// seconds. All conversions are monotone, so orderings and crossover points
/// between partitioning strategies — the paper's actual findings — are
/// preserved regardless of the constants chosen; the defaults are picked to
/// give time scales of the same order as the paper's clusters (Gbit-class
/// links, ~10^8 simple edge operations/second per machine).
struct CostModel {
  /// Seconds per unit of compute work. One "work unit" is one simple
  /// per-edge or per-vertex operation (a gather contribution, an apply, a
  /// hash during ingress).
  double seconds_per_work = 1e-8;

  /// Per-machine network bandwidth (bytes/second, full duplex).
  double bandwidth_bytes_per_second = 125.0e6;  // ~1 Gbit/s

  /// Fixed per-synchronization-round latency (one barrier / round trip).
  double barrier_latency_seconds = 2e-4;

  /// Seconds to transmit `bytes` from one machine.
  double TransferSeconds(uint64_t bytes) const {
    return static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }

  /// Seconds to execute `work` units of computation on one machine.
  double WorkSeconds(double work) const { return work * seconds_per_work; }
};

/// Sizes (bytes) of the simulated runtime objects, used for memory and
/// network accounting. Chosen to match a C++ system storing 8-byte vertex
/// data plus bookkeeping, so absolute memory numbers land in a plausible
/// range; only relative differences matter for the reproduction.
struct ObjectSizes {
  uint64_t vertex_record = 64;    ///< master vertex record incl. program state
  uint64_t mirror_record = 48;    ///< mirror replica record
  uint64_t edge_record = 16;      ///< one stored edge (two ids + data)
  uint64_t gather_message = 24;   ///< partial aggregate mirror -> master
  uint64_t sync_message = 24;     ///< master -> mirror state update
  uint64_t scatter_message = 24;  ///< Pregel-style message along an edge
  uint64_t control_message = 8;   ///< activation signal
};

}  // namespace gdp::sim

#endif  // GDP_SIM_COST_MODEL_H_
