#ifndef GDP_PARTITION_PARTITIONER_H_
#define GDP_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.h"
#include "sim/cluster.h"
#include "util/status.h"

namespace gdp::partition {

using sim::MachineId;

/// Sentinel returned from reassignment passes meaning "keep the placement
/// from the previous pass".
inline constexpr MachineId kKeepPlacement = static_cast<MachineId>(-1);

/// Every partitioning strategy evaluated in the paper (Table 1.1 plus the
/// thesis' own 1D-Target variant and PDS, which the paper describes but
/// could not run for cluster-size reasons).
enum class StrategyKind {
  kRandom,            ///< PowerGraph/PowerLyra Random == GraphX Canonical Random
  kAsymmetricRandom,  ///< GraphX "Random": direction-sensitive hash
  kGrid,              ///< constrained: row+column of a machine matrix
  kPds,               ///< constrained: perfect difference sets (p^2+p+1)
  kOblivious,         ///< greedy, loader-local state
  kHdrf,              ///< greedy, degree-aware (High-Degree Replicated First)
  kHybrid,            ///< PowerLyra: edge-cut low-degree, vertex-cut high-degree
  kHybridGinger,      ///< Hybrid + Fennel-style low-degree refinement
  kOneD,              ///< GraphX 1D: hash by source
  kOneDTarget,        ///< thesis variant: hash by target
  kTwoD,              ///< GraphX 2D: source column x destination row
  /// Extension beyond the paper: Gemini-style contiguous vertex ranges
  /// balanced by edge mass (§2.2 related work). Not part of AllStrategies
  /// — the paper's experiment grids exclude it; see
  /// bench_ablation_chunked.
  kChunked,
  /// Extension beyond the paper: Degree-Based Hashing (Xie et al. 2014),
  /// a one-pass degree-aware hash. Not part of AllStrategies; see
  /// bench_ablation_dbh.
  kDbh,
  /// Post-paper neighbourhood-expansion family (not in AllStrategies —
  /// the paper's grids exclude them; see bench_ne_family):
  /// NE: in-memory core-set expansion (Zhang et al., KDD'17).
  kNe,
  /// SNE: streaming NE over bounded-memory chunks.
  kSne,
  /// 2PS: two-phase streaming — clustering pass + cluster-aware greedy.
  kTwoPs,
  /// HEP-style hybrid: in-memory NE for low-degree vertices' edges,
  /// degree-based hashing for the high-degree remainder, split threshold
  /// derived from the memory budget (Mayer & Jacobsen, 2021).
  kHep,
};

/// All strategies, in a stable display order.
const std::vector<StrategyKind>& AllStrategies();

/// Short display name ("Grid", "HDRF", "H-Ginger", ...).
const char* StrategyName(StrategyKind kind);

/// Parses a display name back to a kind.
util::StatusOr<StrategyKind> StrategyFromName(const std::string& name);

/// Strategy sets shipped by each system (paper Table 1.1, minus PDS where
/// the paper also excluded it — we keep it since the simulator has no
/// cluster-size constraint).
std::vector<StrategyKind> PowerGraphStrategies();
std::vector<StrategyKind> PowerLyraStrategies();
std::vector<StrategyKind> GraphXStrategies();

/// Configuration handed to every partitioner.
struct PartitionContext {
  uint32_t num_partitions = 1;
  /// Upper bound on vertex ids; needed by degree-tracking strategies.
  graph::VertexId num_vertices = 0;
  /// Number of parallel loaders (the paper splits each dataset into one
  /// block per machine); greedy strategies keep *per-loader* state.
  uint32_t num_loaders = 1;
  uint64_t seed = 0;
  /// Hybrid / Hybrid-Ginger in-degree threshold (PowerLyra default 100).
  uint64_t hybrid_threshold = 100;
  /// HDRF balance weight (PowerGraph hardcodes lambda = 1).
  double hdrf_lambda = 1.0;
  /// HDRF uses partial degrees when true (the shipped behaviour); exact
  /// degrees when false (the ablation the HDRF authors discuss).
  bool hdrf_partial_degrees = true;
  /// Ingress memory budget in bytes (0 = unbounded). Strategies whose
  /// StrategyTraits declare memory_budget_aware condition their *results*
  /// on it: SNE sizes its resident expansion chunk from it, HEP derives
  /// its low/high-degree split threshold from it. Mirrors
  /// IngestOptions::memory_budget_bytes (which bounds only the decode
  /// ring and never changes results); IngestWithStrategy copies the
  /// option in when the context leaves this 0.
  uint64_t memory_budget_bytes = 0;
};

/// Streaming edge-partitioner interface. The Ingestor drives one or more
/// passes over the edge stream; pass 0 must return a machine for every
/// edge, later (reassignment) passes may return kKeepPlacement.
///
/// Contract: Assign is called for every edge of the stream, in stream
/// order, once per pass; `loader` identifies which parallel loader is
/// processing the edge (constant for a given edge across passes).
///
/// Thread-safety contract (the parallel ingress pipeline relies on this):
///  - Before the first pass the ingestor calls PrepareForIngest(L) with the
///    loader count it will drive, on one thread.
///  - During a pass for which PassIsParallelSafe(pass) is true, Assign may
///    be called concurrently from different threads for *different* loader
///    indices. Calls for the same loader are always serial and in stream
///    order. Implementations must therefore shard every mutable member by
///    loader (GreedyPartitionerBase's LoaderState, Hybrid's degree-counter
///    shards) or be read-only during that pass; work accounting is already
///    per-loader (AddWorkTicks). Passes that mutate shared state in stream
///    order (Hybrid-Ginger's refinement, DBH's global degree counters)
///    return false and are run serially by the ingestor.
///  - EndPass(pass) is called on one thread after every loader finished the
///    pass; shard merges belong there.
///  - After the last pass, ApproxStateBytes() and PreferredMaster() must be
///    safe to call concurrently with each other (const, no caching).
class Partitioner {
 public:
  explicit Partitioner(const PartitionContext& context)
      : context_(context),
        work_ticks_(context.num_loaders > 0 ? context.num_loaders : 1, 0) {}
  virtual ~Partitioner() = default;

  const PartitionContext& context() const { return context_; }
  uint32_t num_partitions() const { return context_.num_partitions; }

  virtual StrategyKind kind() const = 0;

  /// Number of passes over the edge stream (1 for streaming strategies,
  /// 2 for Hybrid, 3 for Hybrid-Ginger).
  virtual uint32_t num_passes() const { return 1; }

  /// Notifies the start of a pass.
  virtual void BeginPass(uint32_t pass) { (void)pass; }

  /// Notifies that every loader finished `pass` (single-threaded). Sharded
  /// strategies merge their per-loader counters here; see the thread-safety
  /// contract above.
  virtual void EndPass(uint32_t pass) { (void)pass; }

  /// True when Assign may be called concurrently for different loaders on
  /// `pass`. The default suits stateless (hash/constrained) and
  /// loader-sharded (greedy) strategies; strategies with stream-order
  /// shared state override per pass.
  virtual bool PassIsParallelSafe(uint32_t pass) const {
    (void)pass;
    return true;
  }

  /// Sizes per-loader scratch (work-tick lanes, degree-counter shards) for
  /// the `num_loaders` the ingestor will drive. Called once, before the
  /// first BeginPass, on one thread. Overrides must call the base.
  virtual void PrepareForIngest(uint32_t num_loaders) {
    if (work_ticks_.size() < num_loaders) work_ticks_.resize(num_loaders, 0);
  }

  /// Assigns edge `e` on `pass`; see class contract. Implementations must
  /// record their per-edge CPU cost with AddWorkTicks(); hash strategies
  /// charge ~1 work unit (20 ticks), greedy heuristics charge more (they
  /// score each candidate machine and probe replica sets), which is what
  /// makes their ingress slower on skewed graphs (Fig 5.7).
  virtual MachineId Assign(const graph::Edge& e, uint32_t pass,
                           uint32_t loader) = 0;

  /// Work accounting is in simulated-clock ticks (1/20 of a work unit,
  /// sim::kWorkPerTick). Every modeled Assign cost is an integer tick
  /// count, so per-loader accounting lanes sum exactly (uint64) in any
  /// order — the basis of the parallel pipeline's bit-identical cost
  /// contract.
  static constexpr uint64_t kTicksPerWorkUnit = sim::kTicksPerWorkUnit;

  /// Returns the work ticks accumulated by `loader`'s Assign() calls since
  /// the last call, and resets that lane. Consumed by the Ingestor after
  /// each edge to charge the loading machine.
  uint64_t TakeAssignWorkTicks(uint32_t loader) {
    uint64_t t = work_ticks_[loader];
    work_ticks_[loader] = 0;
    return t;
  }

  /// Approximate bytes of partitioner state currently held (degree
  /// counters, replica bitsets, Ginger's neighbour-count matrix). Charged
  /// to the cluster as ingress memory; this is what makes Hybrid/H-Ginger
  /// peak memory land above the replication-factor trend line (Fig 6.2).
  virtual uint64_t ApproxStateBytes() const { return 0; }

  /// Master placement preference: the machine a vertex's master replica
  /// should live on, or kKeepPlacement for "engine default" (hash-random
  /// among replicas). PowerLyra-style strategies use this to colocate
  /// low-degree masters with their in-edges.
  virtual MachineId PreferredMaster(graph::VertexId v) const {
    (void)v;
    return kKeepPlacement;
  }

 protected:
  /// Charges `ticks` simulated-clock ticks to `loader`'s accounting lane.
  /// Safe to call concurrently for different loaders.
  void AddWorkTicks(uint32_t loader, uint64_t ticks) {
    work_ticks_[loader] += ticks;
  }

 private:
  PartitionContext context_;
  /// Per-loader work-tick lanes; sized by the context's loader count and
  /// grown by PrepareForIngest.
  std::vector<uint64_t> work_ticks_;
};

/// Factory for any strategy. A thin wrapper over
/// StrategyRegistry::Instance().Find(kind)->factory (strategy_registry.h);
/// dies on an unregistered kind.
std::unique_ptr<Partitioner> MakePartitioner(StrategyKind kind,
                                             const PartitionContext& context);

}  // namespace gdp::partition

#endif  // GDP_PARTITION_PARTITIONER_H_
