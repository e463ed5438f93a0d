#include "partition/expansion.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "partition/strategy_registration.h"
#include "partition/strategy_registry.h"
#include "util/check.h"
#include "util/hash.h"

namespace gdp::partition {

using util::Mix64;

MachineId ProvisionalPlacement(const graph::Edge& e, uint64_t seed,
                               uint32_t num_partitions) {
  return static_cast<MachineId>(
      Mix64(util::HashDirectedEdge(e.src, e.dst) ^ seed) % num_partitions);
}

AmortizedTicks AmortizedTicks::Of(uint64_t total_ticks, uint64_t num_items) {
  if (num_items == 0) return {};
  return {total_ticks / num_items, total_ticks % num_items};
}

// ---------------------------------------------------------------------------
// NeExpander

namespace {
// Modeled tick costs of the expansion's unit operations. Integers, so the
// amortized per-Assign charges sum exactly across accounting lanes.
constexpr uint64_t kTicksHeapPush = 2;
constexpr uint64_t kTicksHeapPop = 2;
constexpr uint64_t kTicksHeapDecrease = 1;
constexpr uint64_t kTicksAdjVisit = 1;
constexpr uint64_t kTicksEdgePlace = 3;
}  // namespace

NeExpander::NeExpander(graph::VertexId num_vertices, uint32_t num_partitions)
    : num_vertices_(num_vertices),
      num_partitions_(num_partitions),
      core_of_(num_vertices, kKeepPlacement) {
  GDP_CHECK_GE(num_partitions_, 1u);
}

uint64_t NeExpander::TakeTicks() {
  uint64_t t = ticks_;
  ticks_ = 0;
  return t;
}

uint64_t NeExpander::ApproxBytes() const {
  return core_of_.size() * sizeof(MachineId) +
         adj_offset_.size() * sizeof(uint64_t) +
         adj_.size() * sizeof(AdjEntry) +
         remaining_.size() * sizeof(uint32_t) +
         chunk_vertices_.size() * sizeof(graph::VertexId) +
         edge_assigned_.num_words() * sizeof(uint64_t) + heap_.ApproxBytes();
}

void NeExpander::ReleaseScratch() {
  adj_offset_ = {};
  adj_ = {};
  remaining_ = {};
  chunk_vertices_ = {};
  edge_assigned_ = util::DenseBitset();
  heap_ = util::MinHeap<uint32_t, graph::VertexId>();
}

void NeExpander::ExpandChunk(const std::vector<graph::Edge>& edges,
                             const std::vector<uint64_t>& plan_index,
                             uint64_t capacity,
                             std::vector<MachineId>* plan) {
  const uint64_t num_chunk_edges = edges.size();
  GDP_CHECK_EQ(plan_index.size(), num_chunk_edges);
  if (num_chunk_edges == 0) return;
  GDP_CHECK_LE(num_chunk_edges,
               static_cast<uint64_t>(std::numeric_limits<uint32_t>::max()));

  // Chunk CSR, both directions: remaining_[v] counts v's unassigned chunk
  // edges and doubles as the degree counter during the build.
  remaining_.assign(num_vertices_, 0);
  for (const graph::Edge& e : edges) {
    ++remaining_[e.src];
    ++remaining_[e.dst];
  }
  adj_offset_.assign(num_vertices_ + 1, 0);
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    adj_offset_[v + 1] = adj_offset_[v] + remaining_[v];
  }
  adj_.resize(2 * num_chunk_edges);
  {
    std::vector<uint64_t> cursor(adj_offset_.begin(), adj_offset_.end() - 1);
    for (uint32_t i = 0; i < num_chunk_edges; ++i) {
      const graph::Edge& e = edges[i];
      adj_[cursor[e.src]++] = AdjEntry{e.dst, i};
      adj_[cursor[e.dst]++] = AdjEntry{e.src, i};
    }
  }
  chunk_vertices_.clear();
  for (graph::VertexId v = 0; v < num_vertices_; ++v) {
    if (remaining_[v] != 0) chunk_vertices_.push_back(v);
  }
  edge_assigned_.Resize(num_chunk_edges);
  heap_.Reset(num_vertices_);
  ticks_ += num_chunk_edges * 2;  // CSR build: touch each edge twice

  // `touched` = has entered the current partition's heap (seed, boundary,
  // or free-vertex pick); the free scan skips touched vertices so a
  // fully-expanded vertex is never re-queued.
  util::DenseBitset touched(num_vertices_);

  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const bool last = p + 1 == num_partitions_;
    const uint64_t target =
        last ? std::numeric_limits<uint64_t>::max() : capacity;
    uint64_t count = 0;
    heap_.Clear();
    touched.ClearAll();

    // Continuity across chunks: this partition's existing core members
    // seed the boundary, so SNE's clusters keep growing chunk to chunk.
    for (graph::VertexId v : chunk_vertices_) {
      if (core_of_[v] == p && remaining_[v] != 0) {
        heap_.Insert(v, remaining_[v]);
        touched.Set(v);
        ticks_ += kTicksHeapPush;
      }
    }

    uint64_t free_scan = 0;
    bool partition_full = false;
    while (!partition_full) {
      if (heap_.empty()) {
        // No boundary left: restart expansion from the lowest-id vertex
        // that still has unassigned edges and was not queued yet. For
        // non-last partitions, vertices expanded into another core are
        // skipped (their leftovers belong to that cluster); the last
        // partition sweeps everything so the chunk ends fully assigned.
        while (free_scan < chunk_vertices_.size()) {
          const graph::VertexId v = chunk_vertices_[free_scan];
          ticks_ += kTicksAdjVisit;
          if (remaining_[v] != 0 && !touched.Test(v) &&
              (last || core_of_[v] == kKeepPlacement)) {
            break;
          }
          ++free_scan;
        }
        if (free_scan == chunk_vertices_.size()) break;
        const graph::VertexId v = chunk_vertices_[free_scan];
        heap_.Insert(v, remaining_[v]);
        touched.Set(v);
        ticks_ += kTicksHeapPush;
        continue;
      }
      const graph::VertexId v = heap_.PopMin().second;
      ticks_ += kTicksHeapPop;
      if (remaining_[v] == 0) continue;
      // v joins this partition's core (unless it already expanded into an
      // earlier one — then this is a cross-cluster cleanup pop).
      if (core_of_[v] == kKeepPlacement) core_of_[v] = p;
      for (uint64_t a = adj_offset_[v]; a < adj_offset_[v + 1]; ++a) {
        ticks_ += kTicksAdjVisit;
        const AdjEntry entry = adj_[a];
        if (edge_assigned_.Test(entry.edge)) continue;
        if (count >= target) {
          partition_full = true;
          break;
        }
        edge_assigned_.Set(entry.edge);
        (*plan)[plan_index[entry.edge]] = p;
        ++count;
        ticks_ += kTicksEdgePlace;
        --remaining_[v];
        const graph::VertexId u = entry.neighbor;
        if (u != v) --remaining_[u];
        if (heap_.Contains(u)) {
          heap_.DecreaseKey(u, remaining_[u]);
          ticks_ += kTicksHeapDecrease;
        } else if (!touched.Test(u) && remaining_[u] != 0) {
          heap_.Insert(u, remaining_[u]);
          touched.Set(u);
          ticks_ += kTicksHeapPush;
        }
      }
      if (count >= target) partition_full = true;
    }
  }
  // The last partition's sweep terminates only when every chunk edge is
  // assigned: an unassigned edge keeps remaining_ > 0 at both endpoints.
  GDP_DCHECK_EQ(edge_assigned_.CountSet(), num_chunk_edges);
}

// ---------------------------------------------------------------------------
// NE

NePartitioner::NePartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      expander_(context.num_vertices, context.num_partitions) {
  GDP_CHECK_GT(context.num_vertices, 0u);
}

void NePartitioner::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  if (buffers_.size() < num_loaders) {
    buffers_.resize(num_loaders);
    counts_.resize(num_loaders);
    cursors_.resize(num_loaders);
  }
}

MachineId NePartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                uint32_t loader) {
  if (pass == 0) {
    buffers_[loader].value.push_back(e);
    ++counts_[loader].value;
    AddWorkTicks(loader, kTicksPerWorkUnit);
    return ProvisionalPlacement(e, seed_, num_partitions_);
  }
  const uint64_t idx = cursors_[loader].value++;
  AddWorkTicks(loader, kTicksPerWorkUnit + amort_quot_ +
                           (idx < amort_rem_ ? 1 : 0));
  return plan_[idx];
}

void NePartitioner::EndPass(uint32_t pass) {
  if (pass == 0) {
    num_edges_ = 0;
    for (const auto& c : counts_) num_edges_ += c.value;
    std::vector<graph::Edge> all;
    all.reserve(num_edges_);
    uint64_t start = 0;
    for (uint32_t l = 0; l < buffers_.size(); ++l) {
      // Loader blocks are contiguous and ascending, so loader-order
      // concatenation reproduces global stream order exactly — and the
      // replay cursor of loader l starts at its block's prefix sum.
      cursors_[l].value = start;
      start += counts_[l].value;
      all.insert(all.end(), buffers_[l].value.begin(),
                 buffers_[l].value.end());
      buffers_[l].value = {};
    }
    plan_.assign(num_edges_, 0);
    std::vector<uint64_t> identity(num_edges_);
    for (uint64_t i = 0; i < num_edges_; ++i) identity[i] = i;
    expander_.ExpandChunk(all, identity, num_edges_ / num_partitions_ + 1,
                          &plan_);
    const AmortizedTicks amort =
        AmortizedTicks::Of(expander_.TakeTicks(), num_edges_);
    amort_quot_ = amort.quotient;
    amort_rem_ = amort.remainder;
    return;
  }
  // Pass 1 replayed the plan; only the core map (master preferences)
  // stays resident.
  expander_.ReleaseScratch();
  plan_ = {};
}

uint64_t NePartitioner::ApproxStateBytes() const {
  uint64_t buffered = 0;
  for (const auto& b : buffers_) {
    buffered += b.value.size() * sizeof(graph::Edge);
  }
  return buffered + plan_.size() * sizeof(MachineId) +
         expander_.ApproxBytes() +
         (counts_.size() + cursors_.size()) * sizeof(uint64_t);
}

MachineId NePartitioner::PreferredMaster(graph::VertexId v) const {
  return expander_.CoreOf(v);
}

// ---------------------------------------------------------------------------
// SNE

namespace {
/// Resident bytes one buffered chunk edge costs during expansion: the edge
/// record, its two CSR adjacency entries, its stream position, and the
/// assigned-bit/offset overheads.
constexpr uint64_t kSneBytesPerChunkEdge = 40;
/// Default chunk when the context leaves the budget unbounded.
constexpr uint64_t kSneDefaultChunkEdges = 1u << 16;
constexpr uint64_t kSneMinChunkEdges = 1024;
}  // namespace

SnePartitioner::SnePartitioner(const PartitionContext& context)
    : Partitioner(context),
      num_partitions_(context.num_partitions),
      seed_(context.seed),
      chunk_capacity_edges_(
          context.memory_budget_bytes == 0
              ? kSneDefaultChunkEdges
              : std::max<uint64_t>(kSneMinChunkEdges,
                                   context.memory_budget_bytes /
                                       kSneBytesPerChunkEdge)),
      expander_(context.num_vertices, context.num_partitions) {
  GDP_CHECK_GT(context.num_vertices, 0u);
}

void SnePartitioner::PrepareForIngest(uint32_t num_loaders) {
  Partitioner::PrepareForIngest(num_loaders);
  if (counts_.size() < num_loaders) {
    counts_.resize(num_loaders);
    cursors_.resize(num_loaders);
  }
}

void SnePartitioner::FlushChunk(uint32_t loader_for_ticks, bool at_barrier) {
  if (chunk_edges_.empty()) return;
  plan_.resize(stream_pos_, 0);
  expander_.ExpandChunk(chunk_edges_, chunk_index_,
                        chunk_edges_.size() / num_partitions_ + 1, &plan_);
  const uint64_t ticks = expander_.TakeTicks();
  if (at_barrier) {
    // Barrier flushes have no Assign call left to collect the ticks, so
    // they are amortized into the replay pass (EndPass(0) computes the
    // split once num_edges_ is final).
    barrier_ticks_ += ticks;
  } else {
    AddWorkTicks(loader_for_ticks, ticks);
  }
  chunk_edges_.clear();
  chunk_index_.clear();
}

MachineId SnePartitioner::Assign(const graph::Edge& e, uint32_t pass,
                                 uint32_t loader) {
  if (pass == 0) {
    chunk_edges_.push_back(e);
    chunk_index_.push_back(stream_pos_++);
    ++counts_[loader].value;
    AddWorkTicks(loader, kTicksPerWorkUnit);
    if (chunk_edges_.size() >= chunk_capacity_edges_) {
      FlushChunk(loader, /*at_barrier=*/false);
    }
    return ProvisionalPlacement(e, seed_, num_partitions_);
  }
  const uint64_t idx = cursors_[loader].value++;
  AddWorkTicks(loader, kTicksPerWorkUnit + amort_quot_ +
                           (idx < amort_rem_ ? 1 : 0));
  return plan_[idx];
}

void SnePartitioner::EndPass(uint32_t pass) {
  if (pass == 0) {
    FlushChunk(0, /*at_barrier=*/true);
    num_edges_ = stream_pos_;
    const AmortizedTicks amort =
        AmortizedTicks::Of(barrier_ticks_, num_edges_);
    barrier_ticks_ = 0;
    amort_quot_ = amort.quotient;
    amort_rem_ = amort.remainder;
    uint64_t start = 0;
    for (uint32_t l = 0; l < counts_.size(); ++l) {
      cursors_[l].value = start;
      start += counts_[l].value;
    }
    chunk_edges_ = {};
    chunk_index_ = {};
    // Bounded-memory contract: between passes only the core map and the
    // (spilled) plan survive — the chunk scratch is gone.
    expander_.ReleaseScratch();
    return;
  }
  plan_ = {};
}

uint64_t SnePartitioner::ApproxStateBytes() const {
  // The plan is excluded: the real SNE appends each chunk's placements to
  // an out-of-core placement log (it never holds a dense |E| map), and our
  // in-RAM copy is harness scratch in the same sense as the loader shards
  // of Hybrid. What is modeled is the resident expansion state: the
  // bounded chunk plus the 2|V|-style core cache.
  return chunk_edges_.size() * sizeof(graph::Edge) +
         chunk_index_.size() * sizeof(uint64_t) + expander_.ApproxBytes() +
         (counts_.size() + cursors_.size()) * sizeof(uint64_t);
}

MachineId SnePartitioner::PreferredMaster(graph::VertexId v) const {
  return expander_.CoreOf(v);
}

// ---------------------------------------------------------------------------
// Registration

void RegisterExpansionStrategies() {
  StrategyRegistry& registry = StrategyRegistry::Instance();
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kNe,
      .name = "NE",
      .traits = {.passes_required = 2},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<NePartitioner>(context);
      }});
  registry.Register(StrategyInfo{
      .kind = StrategyKind::kSne,
      .name = "SNE",
      .traits = {.passes_required = 2,
                 .parallel_safe = false,
                 .memory_budget_aware = true},
      .factory = [](const PartitionContext& context)
          -> std::unique_ptr<Partitioner> {
        return std::make_unique<SnePartitioner>(context);
      }});
}

}  // namespace gdp::partition
