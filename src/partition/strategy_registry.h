#ifndef GDP_PARTITION_STRATEGY_REGISTRY_H_
#define GDP_PARTITION_STRATEGY_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "partition/partitioner.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gdp::partition {

/// Which system shipped (or would naturally host) a strategy — the paper's
/// Table 1.1 roster structure, kept as a bitmask so one strategy can belong
/// to several systems (Random ships in all three).
enum SystemFamily : uint32_t {
  kFamilyPowerGraph = 1u << 0,
  kFamilyPowerLyra = 1u << 1,
  kFamilyGraphX = 1u << 2,
};

/// Capability descriptor a strategy registers alongside its factory. The
/// harness and advisor consult these instead of switch-ing on StrategyKind:
/// the cache key only folds the ingress memory budget in for
/// memory_budget_aware strategies, the advisor's budget rule enumerates the
/// expansion family by trait, and docs/tests iterate the registry for the
/// roster tables.
struct StrategyTraits {
  /// Passes over the edge stream the strategy drives (1 for pure
  /// streaming, 2 for count+reassign, 3 for Hybrid-Ginger/HEP).
  uint32_t passes_required = 1;
  /// True when *every* pass is parallel-safe (Assign may run concurrently
  /// for different loaders); false when at least one pass needs the serial
  /// stream (DBH's global degree counters, H-Ginger's refinement, the
  /// chunk expansion of SNE/2PS).
  bool parallel_safe = true;
  /// True when the strategy needs a full degree (or clustering) pass
  /// before it can place edges finally.
  bool needs_degree_precompute = false;
  /// True when PartitionContext::memory_budget_bytes changes the *result*
  /// (SNE's chunk size, HEP's split threshold) — such strategies get the
  /// budget folded into ingress cache keys.
  bool memory_budget_aware = false;
  /// SystemFamily bitmask: which systems' rosters include the strategy.
  uint32_t system_families = 0;
  /// Order within each family roster (ignored unless the family bit is
  /// set). Preserves the paper's table ordering exactly.
  int power_graph_rank = 0;
  int power_lyra_rank = 0;
  int graphx_rank = 0;
  /// Membership + order in AllStrategies(), the paper's display roster.
  /// Extensions beyond the paper (Chunked, DBH, the expansion family) stay
  /// out so the paper's experiment grids are unchanged by registration.
  bool in_paper_roster = false;
  int paper_roster_rank = 0;
};

/// One registered strategy: identity, traits, and how to build one.
struct StrategyInfo {
  StrategyKind kind = StrategyKind::kRandom;
  /// Canonical display name ("Grid", "HDRF", "NE", ...).
  std::string name;
  /// Extra names StrategyFromName accepts ("Canonical Random", ...).
  std::vector<std::string> aliases = {};
  StrategyTraits traits;
  std::unique_ptr<Partitioner> (*factory)(const PartitionContext&) = nullptr;
};

/// The open strategy catalogue. Every built-in registers itself through the
/// manifest in strategy_registration.h (called once, in a fixed order, so
/// registration order is deterministic and no static-initializer tricks are
/// needed to survive archive linking); external code may Register() more at
/// runtime before first use. AllStrategies(), StrategyFromName(), the
/// system roster helpers, and MakePartitioner() are all thin queries over
/// this registry — adding a strategy touches no core header.
class StrategyRegistry {
 public:
  /// The process-wide registry, with built-ins already registered.
  static StrategyRegistry& Instance();

  /// Registers a strategy. Dies on a duplicate kind, name, or alias —
  /// names are parse keys, so collisions would be silent misroutes.
  void Register(StrategyInfo info);

  /// Looks up by kind; nullptr when unregistered. The pointer stays valid
  /// for the registry's lifetime (entries are never removed).
  const StrategyInfo* Find(StrategyKind kind) const;

  /// Looks up by canonical name or alias; nullptr when unknown.
  const StrategyInfo* FindByName(const std::string& name) const;

  /// Every registered strategy, in registration order (deterministic:
  /// manifest order, then runtime Register() order).
  std::vector<const StrategyInfo*> All() const;

  /// Registered strategies whose traits pass `pred`, in registration
  /// order.
  template <typename Pred>
  std::vector<StrategyKind> KindsWhere(Pred pred) const {
    std::vector<StrategyKind> kinds;
    for (const StrategyInfo* info : All()) {
      if (pred(info->traits)) kinds.push_back(info->kind);
    }
    return kinds;
  }

 private:
  StrategyRegistry() = default;

  mutable util::Mutex mu_;
  /// unique_ptr gives every StrategyInfo a stable address across growth,
  /// so Find() results stay valid without holding the lock.
  std::vector<std::unique_ptr<StrategyInfo>> entries_ GDP_GUARDED_BY(mu_);
};

/// Roster of the neighbourhood-expansion family (NE, SNE, 2PS, HEP), in
/// registration order — the candidate set for the memory-budget bench grid
/// and the advisor's budget rule.
std::vector<StrategyKind> ExpansionFamilyStrategies();

/// Strategies whose results depend on PartitionContext::memory_budget_bytes
/// (trait query; SNE and HEP today).
std::vector<StrategyKind> MemoryBudgetAwareStrategies();

}  // namespace gdp::partition

#endif  // GDP_PARTITION_STRATEGY_REGISTRY_H_
