#ifndef GDP_PARTITION_GREEDY_H_
#define GDP_PARTITION_GREEDY_H_

#include <vector>

#include "partition/partitioner.h"
#include "partition/replica_table.h"
#include "util/cache_line.h"
#include "util/random.h"

namespace gdp::partition {

/// State one parallel loader keeps for the greedy strategies. PowerGraph's
/// Oblivious deliberately does *not* share assignment state between loading
/// machines ("each machine is oblivious to the assignments made by the
/// other machines", §5.2.2), so each loader has its own replica view, load
/// counters, and — for HDRF — partial-degree counters. A loader updates its
/// state on every edge, so the struct and its load array own whole cache
/// lines.
struct alignas(util::kCacheLineBytes) LoaderState {
  LoaderState(graph::VertexId num_vertices, uint32_t num_partitions,
              uint64_t seed, bool track_degrees);

  ReplicaTable replicas;
  util::LineVector<uint64_t> machine_load;  ///< edges sent per machine
  std::vector<uint32_t> partial_degree;
  util::SplitMix64 rng;
  /// Distinct vertices this loader has placed so far; the real systems keep
  /// their loader-local replica views in hash tables, so modeled state
  /// memory scales with touched vertices, not with |V|.
  uint64_t touched_vertices = 0;

  /// Incrementally maintained min/max of machine_load, so HDRF's balance
  /// term needs no per-edge O(P) scan. min_count tracks how many machines
  /// sit at min_load; when the last one is incremented the minimum bumps by
  /// exactly one (loads grow by single edges) and only then is an O(P)
  /// recount paid — amortized O(1) per edge.
  uint64_t min_load = 0;
  uint64_t max_load = 0;
  uint32_t min_count = 0;

  /// Records one edge placed on `m`, keeping min/max in sync.
  void AddEdgeTo(sim::MachineId m) {
    uint64_t now = ++machine_load[m];
    if (now > max_load) max_load = now;
    if (now - 1 == min_load && --min_count == 0) {
      ++min_load;  // every machine is >= old min + 1, and m sits exactly there
      for (uint64_t load : machine_load) min_count += load == min_load;
    }
  }

  uint64_t ApproxBytes() const;
};
static_assert(alignof(LoaderState) >= util::kCacheLineBytes);

/// Base for Oblivious and HDRF: owns per-loader state and the shared
/// tie-breaking helpers.
class GreedyPartitionerBase : public Partitioner {
 public:
  GreedyPartitionerBase(const PartitionContext& context, bool track_degrees);

  uint64_t ApproxStateBytes() const override;

  /// Grows the per-loader state array when the ingestor drives more loaders
  /// than the context anticipated (deterministic: loader l is always seeded
  /// from Mix64(seed ^ (l + 1)) regardless of when it is created).
  void PrepareForIngest(uint32_t num_loaders) override;

 protected:
  uint32_t num_partitions() const { return num_partitions_; }
  LoaderState& loader_state(uint32_t loader);

  /// Charges the modelled greedy cost for one edge: a constant scoring term
  /// plus a term proportional to the endpoint replica-set sizes (probing
  /// A(u) and A(v)), which the caller has already counted. On skewed graphs
  /// replica sets are large, which slows greedy ingress relative to hashing
  /// — the Fig 5.7 effect.
  void ChargeGreedyWork(uint32_t loader, LoaderState& state,
                        const graph::Edge& e, uint32_t count_src,
                        uint32_t count_dst);

 private:
  uint32_t num_partitions_;
  graph::VertexId num_vertices_;
  uint64_t seed_;
  bool track_degrees_;
  std::vector<LoaderState> loaders_;
};

/// Oblivious greedy vertex-cut (PowerGraph §5.2.2, Appendix A): place each
/// edge to minimize new replicas, tie-breaking by least-loaded machine and
/// then randomly.
class ObliviousPartitioner final : public GreedyPartitionerBase {
 public:
  explicit ObliviousPartitioner(const PartitionContext& context)
      : GreedyPartitionerBase(context, /*track_degrees=*/false) {}

  StrategyKind kind() const override { return StrategyKind::kOblivious; }
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;
};

/// HDRF — High-Degree Replicated First (Petroni et al., §5.2.4,
/// Appendix B): like Oblivious, but scores machines with a degree-aware
/// replication term so the *lower*-degree endpoint avoids new replicas and
/// high-degree vertices absorb the replication.
class HdrfPartitioner final : public GreedyPartitionerBase {
 public:
  explicit HdrfPartitioner(const PartitionContext& context)
      : GreedyPartitionerBase(context, /*track_degrees=*/true),
        lambda_(context.hdrf_lambda),
        use_partial_degrees_(context.hdrf_partial_degrees) {}

  StrategyKind kind() const override { return StrategyKind::kHdrf; }
  MachineId Assign(const graph::Edge& e, uint32_t pass,
                   uint32_t loader) override;

  /// Supplies exact degrees for the ablation with
  /// PartitionContext::hdrf_partial_degrees == false (HDRF normally uses
  /// streaming partial degrees to stay single-pass).
  void SetExactDegrees(std::vector<uint32_t> degrees) {
    exact_degrees_ = std::move(degrees);
  }

 private:
  double lambda_;
  bool use_partial_degrees_;
  std::vector<uint32_t> exact_degrees_;
};

}  // namespace gdp::partition

#endif  // GDP_PARTITION_GREEDY_H_
