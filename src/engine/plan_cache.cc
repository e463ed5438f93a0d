#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

namespace gdp::engine {

std::shared_ptr<const ExecutionPlan> PlanCache::Get(
    EdgeDirection gather_dir, EdgeDirection scatter_dir, bool graphx_counts,
    uint32_t num_threads) {
  const Key key{gather_dir, scatter_dir, graphx_counts};
  std::shared_ptr<Slot> slot;
  bool inserted = false;
  {
    util::MutexLock lock(mu_);
    std::shared_ptr<Slot>& entry = slots_[key];
    if (entry == nullptr) {
      entry = std::make_shared<Slot>();
      inserted = true;
      misses_->Increment();
    } else {
      hits_->Increment();
    }
    slot = entry;
  }
  // Build outside the map lock so unrelated keys construct concurrently;
  // call_once serializes callers racing on the *same* key.
  std::call_once(slot->once, [&] {
    auto plan = std::make_shared<ExecutionPlan>(ExecutionPlan::Build(
        *dg_, gather_dir, scatter_dir, graphx_counts, num_threads));
    slot->bytes = plan->AdjacencyBytes();
    slot->plan = std::move(plan);
  });
  if (inserted) {
    // Admit into the byte ledger and evict oldest plans past the budget.
    // Only the slot's creator admits, so each build is accounted once even
    // if the slot was concurrently evicted and a new slot re-admitted.
    util::MutexLock lock(mu_);
    slot->admitted = true;
    resident_bytes_ += slot->bytes;
    admission_order_.push_back(key);
    EvictToBudgetLocked(key);
    resident_gauge_->Set(static_cast<int64_t>(resident_bytes_));
  }
  return slot->plan;
}

void PlanCache::EvictToBudgetLocked(const Key& protect) {
  if (budget_bytes_ == 0) return;
  // Walk oldest-first; stop at the protected newcomer (always last, but a
  // racing admission may have appended behind it).
  size_t scan = 0;
  while (resident_bytes_ > budget_bytes_ && scan < admission_order_.size()) {
    const Key victim = admission_order_[scan];
    if (victim == protect) {
      ++scan;
      continue;
    }
    auto it = slots_.find(victim);
    if (it == slots_.end() || !it->second->admitted) {
      // Already gone, or not yet admitted by its creator — skip; it will
      // account itself (and face the budget) on its own admission.
      ++scan;
      continue;
    }
    const uint64_t bytes = it->second->bytes;
    slots_.erase(it);
    admission_order_.erase(admission_order_.begin() +
                           static_cast<ptrdiff_t>(scan));
    resident_bytes_ -= std::min(resident_bytes_, bytes);
    evictions_->Increment();
    evicted_bytes_->Add(bytes);
  }
}

void PlanCache::set_byte_budget(uint64_t bytes) {
  util::MutexLock lock(mu_);
  budget_bytes_ = bytes;
}

uint64_t PlanCache::byte_budget() const {
  util::MutexLock lock(mu_);
  return budget_bytes_;
}

uint64_t PlanCache::resident_bytes() const {
  util::MutexLock lock(mu_);
  return resident_bytes_;
}

size_t PlanCache::num_plans() const {
  util::MutexLock lock(mu_);
  return slots_.size();
}

obs::CacheStats PlanCache::stats() const {
  return obs::CacheStats{hits_->Value(), misses_->Value()};
}

}  // namespace gdp::engine
