#include "partition/ingest.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_block_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/phase_accumulator.h"
#include "util/hash.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace gdp::partition {

namespace {

/// Accounting scratch one loader fills during one pass. Indexed by loader
/// (not by pool lane): which lane runs a loader is scheduling-dependent,
/// the loader index is not. All counters are integers, so the pass-barrier
/// merge (in loader order) is independent of execution interleaving —
/// the basis of the bit-identical-at-any-thread-count contract.
struct LoaderScratch {
  sim::PhaseAccumulator acc;                 ///< work ticks + send/recv bytes
  std::vector<uint64_t> alloc_bytes;         ///< edge-record allocations
  std::vector<uint64_t> deferred_free_bytes; ///< moved edges' old copies
  uint64_t edges_moved = 0;

  void Reset(uint32_t num_machines) {
    acc.Reset(num_machines);
    alloc_bytes.assign(num_machines, 0);
    deferred_free_bytes.assign(num_machines, 0);
    edges_moved = 0;
  }
};

/// Finalize scratch for one contiguous edge-range shard. Bitset OR and
/// integer addition commute, so the merged tables/counters are independent
/// of the shard count and merge order.
struct TableShard {
  ReplicaTable replicas;
  ReplicaTable in_parts;
  ReplicaTable out_parts;
  std::vector<uint64_t> edge_count;
};

/// Vertices per master-selection stripe. Stripes write disjoint vertex
/// ranges (dg.master entries and ReplicaTable words are per-vertex), so
/// they run concurrently without synchronization.
constexpr uint64_t kMasterStripe = 4096;

/// DistributedGraph::EdgeBalanceRatio with the edge count supplied
/// explicitly — the same arithmetic in the same order, for graphs whose
/// flat edge vector was never materialized.
double EdgeBalanceFromCounts(const std::vector<uint64_t>& partition_edge_count,
                             uint64_t num_edges) {
  if (partition_edge_count.empty() || num_edges == 0) return 1.0;
  uint64_t max_count = *std::max_element(partition_edge_count.begin(),
                                         partition_edge_count.end());
  double mean = static_cast<double>(num_edges) /
                static_cast<double>(partition_edge_count.size());
  return mean > 0 ? static_cast<double>(max_count) / mean : 1.0;
}

/// Loader count: explicit option first, then the partitioner's configured
/// loaders (greedy strategies size their per-loader state from it), then
/// one loader per machine (the paper's setup).
uint32_t ResolveNumLoaders(const IngestOptions& options,
                           const Partitioner& partitioner,
                           uint32_t num_machines) {
  uint32_t num_loaders = options.num_loaders;
  if (num_loaders == 0) num_loaders = partitioner.context().num_loaders;
  if (num_loaders == 0) num_loaders = num_machines;
  return num_loaders;
}

uint32_t ResolveNumThreads(const IngestOptions& options,
                           uint32_t num_loaders) {
  uint32_t num_threads = options.exec.num_threads;
  if (num_threads == 0) num_threads = util::ThreadPool::DefaultThreadCount();
  return std::min(num_threads, num_loaders);
}

// ---------------------------------------------------------------------------
// Edge sources
// ---------------------------------------------------------------------------
// The pass loop and finalize are written against a Source: something that
// streams global edge positions [begin, end) in order, calling
// fn(i, edge_i). FlatSource is the original single-span path over the
// materialized vector; BlockSource feeds the same positions from the
// compressed EdgeBlockStore through a bounded ring of decoded blocks. The
// per-edge costs charged downstream are identical by construction, which is
// what makes the two paths bit-identical.

/// The flat path: edges live in one contiguous vector (copied into
/// dg.edges up front, exactly the pre-streaming behavior).
class FlatSource {
 public:
  explicit FlatSource(const graph::EdgeList& edges) : edges_(edges) {}

  uint64_t num_edges() const { return edges_.num_edges(); }
  graph::VertexId num_vertices() const { return edges_.num_vertices(); }
  bool Materialized() const { return true; }

  void InitEdges(std::vector<graph::Edge>* out) { *out = edges_.edges(); }
  void BeginStreamPass(uint32_t /*pass*/) {}
  void EndStreamPass() {}

  template <typename Fn>
  void StreamRange(uint32_t /*pass*/, uint32_t /*loader*/, uint64_t begin,
                   uint64_t end, Fn&& fn) const {
    const std::vector<graph::Edge>& edges = edges_.edges();
    for (uint64_t i = begin; i < end; ++i) fn(i, edges[i]);
  }

  template <typename Fn>
  void StreamShard(uint64_t begin, uint64_t end, Fn&& fn) const {
    StreamRange(0, 0, begin, end, fn);
  }

 private:
  const graph::EdgeList& edges_;
};

/// The streaming path: loaders consume their contiguous edge range block by
/// block from the compressed store. Each loader owns a small ring of
/// decoded-block buffers (slot for block sequence s = s mod depth). With
/// decode overlap, a crew of decoder threads fills ring slots ahead of the
/// consumers — double-buffering block decode against the partition kernels,
/// and running ahead of the single live consumer during serialized passes;
/// without it, each consumer decodes its next block inline into its own
/// scratch (same buffers, no overlap — the bench baseline).
///
/// Ownership protocol for a slot's buffer (why `buf` itself needs no
/// GDP_GUARDED_BY): after claiming sequence s under the mutex, exactly one
/// decoder writes slot s%depth until it marks it full; the consumer reads
/// it only after observing full under the mutex, and no decoder may reclaim
/// the slot until the consumer releases it (claims require
/// next_decode < consumed + depth). The mutex hand-offs order the accesses.
///
/// Determinism: the ring changes only *when* a block is decoded, never what
/// a consumer sees — loader l still visits positions [begin_l, end_l) in
/// exact stream order, so everything downstream is bit-identical to the
/// flat path.
class BlockSource {
 public:
  BlockSource(const graph::EdgeBlockStore& store, const IngestOptions& options,
              uint32_t num_loaders, uint32_t num_threads)
      : store_(store), num_loaders_(num_loaders) {
    block_bytes_ = static_cast<uint64_t>(store.block_size_edges()) *
                   sizeof(graph::Edge);
    overlap_ = options.overlap_decode && num_threads > 1;
    // Ring depth: the budget (covering all loaders' decoded buffers) sized
    // down, floored at one buffer per loader — the streaming minimum — and
    // capped where deeper look-ahead stops paying. Without a budget,
    // classic double buffering.
    uint64_t depth = 2;
    if (options.memory_budget_bytes != 0) {
      depth = options.memory_budget_bytes /
              (static_cast<uint64_t>(num_loaders) * block_bytes_);
      depth = std::clamp<uint64_t>(depth, 1, 8);
    }
    if (!overlap_) depth = 1;  // inline decode: one scratch per loader
    depth_ = static_cast<uint32_t>(depth);
    crew_size_ = overlap_ ? std::min(num_threads, 4u) : 0;
    rings_.resize(num_loaders);
    const uint64_t num_edges = store.num_edges();
    for (uint32_t l = 0; l < num_loaders; ++l) {
      const uint64_t begin = num_edges * l / num_loaders;
      const uint64_t end = num_edges * (l + 1) / num_loaders;
      Ring& r = rings_[l];
      if (begin < end) {
        r.first_block = begin / store.block_size_edges();
        r.num_blocks = (end - 1) / store.block_size_edges() - r.first_block + 1;
      }
      r.slots.resize(depth_);
    }
  }

  uint64_t num_edges() const { return store_.num_edges(); }
  graph::VertexId num_vertices() const { return store_.num_vertices(); }
  bool Materialized() const { return materialize_target_ != nullptr; }

  void set_materialize(bool materialize) { materialize_ = materialize; }

  void InitEdges(std::vector<graph::Edge>* out) {
    if (!materialize_) return;
    out->assign(store_.num_edges(), graph::Edge{});
    materialize_target_ = out;
  }

  /// Ring buffers the ledger accounts for: depth per loader with overlap,
  /// one inline scratch per loader without.
  uint64_t RingBuffers() const {
    return static_cast<uint64_t>(num_loaders_) * depth_;
  }
  uint64_t BlockBytes() const { return block_bytes_; }

  void BeginStreamPass(uint32_t /*pass*/) {
    if (!overlap_) return;
    {
      util::MutexLock lock(mu_);
      for (Ring& r : rings_) {
        r.next_decode = 0;
        r.consumed = 0;
        for (Slot& s : r.slots) {
          s.full = false;
          s.seq = 0;
        }
      }
    }
    crew_.reserve(crew_size_);
    for (uint32_t t = 0; t < crew_size_; ++t) {
      crew_.emplace_back([this, t] { DecodeLoop(t); });
    }
  }

  void EndStreamPass() {
    if (!overlap_) return;
    for (std::thread& t : crew_) t.join();
    crew_.clear();
    // Ledger conservation: every decoded buffer was handed back — the ring
    // drained, no slot still charged to a consumer.
    util::MutexLock lock(mu_);
    for (const Ring& r : rings_) {
      GDP_DCHECK_EQ(r.next_decode, r.num_blocks);
      GDP_DCHECK_EQ(r.consumed, r.num_blocks);
      for (const Slot& s : r.slots) {
        GDP_DCHECK(!s.full);
        GDP_DCHECK_LE(s.buf.size(), store_.block_size_edges());
      }
    }
  }

  template <typename Fn>
  void StreamRange(uint32_t pass, uint32_t l, uint64_t begin, uint64_t end,
                   Fn&& fn) {
    if (begin >= end) return;
    const uint64_t first = begin / store_.block_size_edges();
    const uint64_t last = (end - 1) / store_.block_size_edges();
    for (uint64_t b = first; b <= last; ++b) {
      const uint64_t seq = b - first;
      const std::vector<graph::Edge>& buf =
          overlap_ ? AcquireSlot(l, seq) : DecodeInline(l, b);
      const uint64_t block_begin = store_.BlockBegin(b);
      const uint64_t lo = std::max(begin, block_begin);
      const uint64_t hi = std::min(end, store_.BlockEnd(b));
      if (pass == 0 && materialize_target_ != nullptr) {
        // Loaders own disjoint position ranges, so these writes never
        // overlap; boundary blocks are decoded by both neighbors but each
        // copies only its own clip.
        std::copy(buf.begin() + static_cast<ptrdiff_t>(lo - block_begin),
                  buf.begin() + static_cast<ptrdiff_t>(hi - block_begin),
                  materialize_target_->begin() + static_cast<ptrdiff_t>(lo));
      }
      for (uint64_t i = lo; i < hi; ++i) fn(i, buf[i - block_begin]);
      if (overlap_) ReleaseSlot(l, seq);
    }
  }

  /// Finalize-shard streaming (no ring, no crew): decodes the blocks
  /// overlapping [begin, end) into a local buffer. Safe to call from
  /// concurrent shards — DecodeBlock is const and the buffer is local.
  template <typename Fn>
  void StreamShard(uint64_t begin, uint64_t end, Fn&& fn) const {
    if (begin >= end) return;
    std::vector<graph::Edge> buf;
    const uint64_t first = begin / store_.block_size_edges();
    const uint64_t last = (end - 1) / store_.block_size_edges();
    for (uint64_t b = first; b <= last; ++b) {
      store_.DecodeBlock(b, &buf);
      const uint64_t block_begin = store_.BlockBegin(b);
      const uint64_t lo = std::max(begin, block_begin);
      const uint64_t hi = std::min(end, store_.BlockEnd(b));
      for (uint64_t i = lo; i < hi; ++i) fn(i, buf[i - block_begin]);
    }
  }

 private:
  struct Slot {
    /// Decoded block contents. Unguarded by design: see the ownership
    /// protocol in the class comment.
    std::vector<graph::Edge> buf;
    uint64_t seq GDP_GUARDED_BY(mu_) = 0;  ///< which sequence fills the slot
    bool full GDP_GUARDED_BY(mu_) = false;
  };

  /// One loader's view of the store: its block range and decoded-slot ring.
  struct Ring {
    uint64_t first_block = 0;
    uint64_t num_blocks = 0;
    std::vector<Slot> slots;  ///< fixed layout; per-slot state guarded
    uint64_t next_decode GDP_GUARDED_BY(mu_) = 0;  ///< sequences claimed
    uint64_t consumed GDP_GUARDED_BY(mu_) = 0;     ///< sequences released
  };

  const std::vector<graph::Edge>& AcquireSlot(uint32_t l, uint64_t seq) {
    Ring& r = rings_[l];
    Slot& slot = r.slots[seq % depth_];
    util::MutexLock lock(mu_);
    while (!(slot.full && slot.seq == seq)) consume_cv_.Wait(mu_);
    return slot.buf;
  }

  void ReleaseSlot(uint32_t l, uint64_t seq) {
    Ring& r = rings_[l];
    util::MutexLock lock(mu_);
    r.slots[seq % depth_].full = false;
    ++r.consumed;
    decode_cv_.NotifyAll();
  }

  const std::vector<graph::Edge>& DecodeInline(uint32_t l, uint64_t block) {
    Slot& slot = rings_[l].slots[0];
    store_.DecodeBlock(block, &slot.buf);
    return slot.buf;
  }

  /// Picks the next decodable (loader, sequence): lowest unclaimed sequence
  /// of some loader whose ring has a free slot for it. Scans loaders
  /// round-robin from a caller-supplied start so crew threads spread across
  /// loaders instead of piling onto loader 0.
  bool FindDecodable(uint32_t start, uint32_t* l_out, uint64_t* seq_out)
      GDP_REQUIRES(mu_) {
    for (uint32_t k = 0; k < num_loaders_; ++k) {
      const uint32_t l = (start + k) % num_loaders_;
      Ring& r = rings_[l];
      if (r.next_decode < r.num_blocks && r.next_decode < r.consumed + depth_) {
        *l_out = l;
        *seq_out = r.next_decode;
        return true;
      }
    }
    return false;
  }

  bool AllClaimed() GDP_REQUIRES(mu_) {
    for (const Ring& r : rings_) {
      if (r.next_decode < r.num_blocks) return false;
    }
    return true;
  }

  void DecodeLoop(uint32_t thread_index) {
    for (;;) {
      uint32_t l = 0;
      uint64_t seq = 0;
      {
        util::MutexLock lock(mu_);
        for (;;) {
          if (FindDecodable(thread_index, &l, &seq)) break;
          if (AllClaimed()) return;
          // Nothing decodable: every incomplete ring is depth slots ahead
          // of its consumer. A consumer release reopens work.
          decode_cv_.Wait(mu_);
        }
        ++rings_[l].next_decode;  // claim (l, seq) exclusively
      }
      Ring& r = rings_[l];
      Slot& slot = r.slots[seq % depth_];
      store_.DecodeBlock(r.first_block + seq, &slot.buf);
      {
        util::MutexLock lock(mu_);
        slot.seq = seq;
        slot.full = true;
        consume_cv_.NotifyAll();
      }
    }
  }

  const graph::EdgeBlockStore& store_;
  uint32_t num_loaders_;
  uint64_t block_bytes_ = 0;
  bool overlap_ = false;
  uint32_t depth_ = 1;
  uint32_t crew_size_ = 0;
  bool materialize_ = true;
  std::vector<graph::Edge>* materialize_target_ = nullptr;
  std::vector<Ring> rings_;
  std::vector<std::thread> crew_;
  util::Mutex mu_;
  util::CondVar decode_cv_;   ///< consumers freed a slot
  util::CondVar consume_cv_;  ///< decoders filled a slot
};

// ---------------------------------------------------------------------------
// The pipeline, parameterized over the edge source
// ---------------------------------------------------------------------------

template <typename Source>
IngestResult IngestImpl(Source& source, Partitioner& partitioner,
                        sim::Cluster& cluster, const IngestOptions& options) {
  const uint64_t num_edges = source.num_edges();
  const uint32_t num_machines = cluster.num_machines();
  GDP_CHECK_GT(num_machines, 0u);
  const uint32_t num_loaders =
      ResolveNumLoaders(options, partitioner, num_machines);
  const uint32_t num_threads = ResolveNumThreads(options, num_loaders);

  // Resolved execution context (thread count + observability sinks). The
  // sinks only read simulated state, so attaching them cannot perturb the
  // bit-identical determinism contract.
  const obs::ExecContext& exec = options.exec;
  sim::Timeline* const timeline = exec.timeline;

  util::ThreadPool pool(num_threads);

  // Per-loader tick counters, registered upfront in loader order so the
  // registry's registration order is deterministic; fed at each pass
  // barrier from the loaders' integer accumulator totals.
  std::vector<obs::Counter*> loader_ticks;
  obs::Counter* edges_moved_counter = nullptr;
  obs::Counter* passes_counter = nullptr;
  if (exec.metrics != nullptr) {
    loader_ticks.reserve(num_loaders);
    for (uint32_t l = 0; l < num_loaders; ++l) {
      loader_ticks.push_back(exec.metrics->GetCounter(
          "ingress.loader" + std::to_string(l) + ".ticks"));
    }
    edges_moved_counter = exec.metrics->GetCounter("ingress.edges_moved");
    passes_counter = exec.metrics->GetCounter("ingress.passes");
  }
  obs::ScopedSpan ingress_span(exec.trace, exec.trace_track, "ingress",
                               "ingress", cluster.now_seconds());

  IngestResult result;
  DistributedGraph& dg = result.graph;
  dg.num_machines = num_machines;
  dg.num_vertices = source.num_vertices();
  source.InitEdges(&dg.edges);
  dg.edge_partition.assign(num_edges, 0);
  // The partition count is authoritative from the partitioner's context —
  // not rediscovered from assignments, which under-counts whenever a hash
  // strategy never emits the last partition id on a tiny input.
  const uint32_t num_partitions = partitioner.num_partitions();
  GDP_CHECK_GE(num_partitions, 1u);
  dg.num_partitions = num_partitions;

  const sim::ObjectSizes sizes;
  IngressReport& report = result.report;
  const double start_time = cluster.now_seconds();

  partitioner.PrepareForIngest(num_loaders);

  // Loader l handles the contiguous block [block_start(l), block_start(l+1)).
  auto block_start = [&](uint32_t l) -> uint64_t {
    return num_edges * l / num_loaders;
  };

  // Partitioner bookkeeping bytes currently charged to each machine. The
  // state is spread across loader machines (that is where degree counters
  // and replica views physically live during ingress) with the remainder
  // going to the lowest-indexed machines, so the charges conserve the total
  // exactly — num_machines need not divide the state size.
  std::vector<uint64_t> state_held(num_machines, 0);
  auto charge_state_delta = [&]() {
    const uint64_t state = partitioner.ApproxStateBytes();
    report.peak_state_bytes = std::max(report.peak_state_bytes, state);
    const uint64_t base = state / num_machines;
    const uint64_t remainder = state % num_machines;
    uint64_t distributed = 0;
    for (uint32_t m = 0; m < num_machines; ++m) {
      const uint64_t target = base + (m < remainder ? 1 : 0);
      if (target > state_held[m]) {
        cluster.machine(m).Allocate(target - state_held[m]);
      } else if (target < state_held[m]) {
        cluster.machine(m).Free(state_held[m] - target);
      }
      state_held[m] = target;
      distributed += target;
    }
    GDP_DCHECK_EQ(distributed, state);
  };

  std::vector<LoaderScratch> scratch(num_loaders);

  const uint32_t passes = partitioner.num_passes();
  for (uint32_t pass = 0; pass < passes; ++pass) {
    obs::ScopedSpan pass_span(exec.trace, exec.trace_track,
                              "pass " + std::to_string(pass), "ingress",
                              cluster.now_seconds());
    partitioner.BeginPass(pass);
    for (LoaderScratch& s : scratch) s.Reset(num_machines);
    source.BeginStreamPass(pass);

    auto run_loader = [&](uint32_t l) {
      LoaderScratch& s = scratch[l];
      const sim::MachineId loader_machine = l % num_machines;
      source.StreamRange(
          pass, l, block_start(l), block_start(l + 1),
          [&](uint64_t i, graph::Edge e) {
            MachineId assigned = partitioner.Assign(e, pass, l);
            s.acc.AddTicks(
                loader_machine,
                kParseTicksPerEdge + partitioner.TakeAssignWorkTicks(l));
            if (pass == 0) {
              GDP_CHECK_NE(assigned, kKeepPlacement);
              GDP_DCHECK_LT(assigned, num_partitions);
              dg.edge_partition[i] = assigned;
              const sim::MachineId target = assigned % num_machines;
              s.alloc_bytes[target] += sizes.edge_record;
              if (target != loader_machine) {
                s.acc.ChargeSendBytes(loader_machine, sizes.edge_record);
                s.acc.ChargeReceiveBytes(target, sizes.edge_record);
              }
            } else if (assigned != kKeepPlacement &&
                       assigned != dg.edge_partition[i]) {
              // Reassignment: the edge moves between partitions. The copy at
              // the old machine (and the in-flight transfer buffer) is only
              // released when the pass completes, so multi-pass strategies
              // pay a transient memory overhead proportional to the edges
              // they move — the §6.4.2 effect.
              GDP_DCHECK_LT(assigned, num_partitions);
              const sim::MachineId old_machine =
                  dg.edge_partition[i] % num_machines;
              const sim::MachineId new_machine = assigned % num_machines;
              dg.edge_partition[i] = assigned;
              ++s.edges_moved;
              if (old_machine != new_machine) {
                s.acc.ChargeSendBytes(old_machine, sizes.edge_record);
                s.acc.ChargeReceiveBytes(new_machine, sizes.edge_record);
                s.alloc_bytes[new_machine] += sizes.edge_record;
                s.deferred_free_bytes[old_machine] += sizes.edge_record;
              }
            }
          });
    };

    if (num_threads > 1 && partitioner.PassIsParallelSafe(pass)) {
      pool.ParallelFor(num_loaders, [&](uint64_t chunk, uint32_t lane) {
        (void)lane;
        run_loader(static_cast<uint32_t>(chunk));
      });
    } else {
      for (uint32_t l = 0; l < num_loaders; ++l) run_loader(l);
    }
    source.EndStreamPass();
    partitioner.EndPass(pass);

    // Pass barrier: merge the loader scratches (loader order — integer
    // counters, so any order gives the same totals) and apply them in the
    // canonical order: allocations, then bytes + one tick charge per
    // machine, then partitioner-state deltas, then the phase
    // barrier, then the deferred frees. Memory only grows within a pass
    // (frees are deferred), so the bulk allocations reproduce the same
    // per-machine peaks as per-edge allocation would.
    sim::PhaseAccumulator merged;
    merged.Reset(num_machines);
    std::vector<uint64_t> alloc(num_machines, 0);
    std::vector<uint64_t> frees(num_machines, 0);
    uint64_t pass_moved = 0;
    for (const LoaderScratch& s : scratch) {
      merged.Merge(s.acc);
      for (uint32_t m = 0; m < num_machines; ++m) {
        alloc[m] += s.alloc_bytes[m];
        frees[m] += s.deferred_free_bytes[m];
      }
      pass_moved += s.edges_moved;
    }
    report.edges_moved += pass_moved;
    if (exec.metrics != nullptr) {
      // Per-loader tick totals are integer sums inside one loader's lane —
      // identical at any thread count.
      for (uint32_t l = 0; l < num_loaders; ++l) {
        loader_ticks[l]->Add(scratch[l].acc.TotalTicks());
      }
      edges_moved_counter->Add(pass_moved);
      passes_counter->Increment();
    }
    for (uint32_t m = 0; m < num_machines; ++m) {
      if (alloc[m] != 0) cluster.machine(m).Allocate(alloc[m]);
    }
    merged.FlushTo(cluster);
    charge_state_delta();
    report.pass_seconds.push_back(cluster.EndPhase());
    if (timeline != nullptr) timeline->Sample(cluster);
    // Pass complete: release the moved edges' old copies.
    for (uint32_t m = 0; m < num_machines; ++m) {
      if (frees[m] != 0) cluster.machine(m).Free(frees[m]);
    }
    pass_span.Arg("ticks", static_cast<int64_t>(merged.TotalTicks()));
    pass_span.Arg("sent_bytes",
                  static_cast<int64_t>(merged.TotalSentBytes()));
    pass_span.Arg("edges_moved", static_cast<int64_t>(pass_moved));
    pass_span.End(cluster.now_seconds());
  }

  // ---- Finalize: replica tables, masters, per-partition counts. ----------
  obs::ScopedSpan finalize_span(exec.trace, exec.trace_track, "finalize",
                                "ingress", cluster.now_seconds());
  dg.replicas = ReplicaTable(dg.num_vertices, num_partitions);
  dg.in_edge_partitions = ReplicaTable(dg.num_vertices, num_partitions);
  dg.out_edge_partitions = ReplicaTable(dg.num_vertices, num_partitions);
  dg.present.assign(dg.num_vertices, false);
  dg.partition_edge_count.assign(num_partitions, 0);

  // One table-building visit per edge. Reads the materialized vector when
  // it exists (the common case); otherwise streams the shard's range back
  // out of the compressed store.
  auto visit_shard = [&](TableShard& s, uint64_t begin, uint64_t end) {
    auto add = [&](uint64_t i, graph::Edge e) {
      const MachineId p = dg.edge_partition[i];
      s.replicas.Add(e.src, p);
      s.replicas.Add(e.dst, p);
      s.out_parts.Add(e.src, p);
      s.in_parts.Add(e.dst, p);
      ++s.edge_count[p];
    };
    if (source.Materialized()) {
      for (uint64_t i = begin; i < end; ++i) add(i, dg.edges[i]);
    } else {
      source.StreamShard(begin, end, add);
    }
  };

  if (num_threads > 1 && num_edges > 0) {
    // Edge-range shards build private tables, OR-merged word-wise.
    const uint32_t num_shards = num_threads;
    std::vector<TableShard> shards(num_shards);
    for (TableShard& s : shards) {
      s.replicas = ReplicaTable(dg.num_vertices, num_partitions);
      s.in_parts = ReplicaTable(dg.num_vertices, num_partitions);
      s.out_parts = ReplicaTable(dg.num_vertices, num_partitions);
      s.edge_count.assign(num_partitions, 0);
    }
    pool.ParallelFor(num_shards, [&](uint64_t shard, uint32_t lane) {
      (void)lane;
      visit_shard(shards[shard], num_edges * shard / num_shards,
                  num_edges * (shard + 1) / num_shards);
    });
    for (const TableShard& s : shards) {
      dg.replicas.MergeFrom(s.replicas);
      dg.in_edge_partitions.MergeFrom(s.in_parts);
      dg.out_edge_partitions.MergeFrom(s.out_parts);
      for (uint32_t p = 0; p < num_partitions; ++p) {
        dg.partition_edge_count[p] += s.edge_count[p];
      }
    }
  } else if (num_edges > 0) {
    TableShard whole;
    whole.replicas = ReplicaTable(dg.num_vertices, num_partitions);
    whole.in_parts = ReplicaTable(dg.num_vertices, num_partitions);
    whole.out_parts = ReplicaTable(dg.num_vertices, num_partitions);
    whole.edge_count.assign(num_partitions, 0);
    visit_shard(whole, 0, num_edges);
    dg.replicas.MergeFrom(whole.replicas);
    dg.in_edge_partitions.MergeFrom(whole.in_parts);
    dg.out_edge_partitions.MergeFrom(whole.out_parts);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      dg.partition_edge_count[p] += whole.edge_count[p];
    }
  }
  // A vertex is present exactly when some partition got one of its edges.
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    dg.present[v] = dg.replicas.First(v) != ReplicaTable::kInvalid;
  }

  // Master selection + replica-memory accounting, striped over vertices.
  // Each stripe owns a disjoint vertex range: the master array entries and
  // the replica-bitset words it touches belong to its own vertices, and the
  // cross-stripe aggregates (replica/present counts, per-machine replica
  // bytes) are integers summed at the join.
  dg.master.assign(dg.num_vertices, ReplicaTable::kInvalid);
  const uint64_t num_stripes =
      (static_cast<uint64_t>(dg.num_vertices) + kMasterStripe - 1) /
      kMasterStripe;
  std::vector<uint64_t> stripe_replica_total(num_stripes, 0);
  std::vector<uint64_t> stripe_present_count(num_stripes, 0);
  std::vector<std::vector<uint64_t>> stripe_replica_bytes(
      num_stripes, std::vector<uint64_t>(num_machines, 0));
  auto run_stripe = [&](uint64_t stripe) {
    uint64_t replica_total = 0;
    uint64_t present_count = 0;
    std::vector<uint64_t>& replica_bytes = stripe_replica_bytes[stripe];
    const graph::VertexId begin =
        static_cast<graph::VertexId>(stripe * kMasterStripe);
    const graph::VertexId end = static_cast<graph::VertexId>(
        std::min<uint64_t>(dg.num_vertices, (stripe + 1) * kMasterStripe));
    for (graph::VertexId v = begin; v < end; ++v) {
      if (!dg.present[v]) continue;
      ++present_count;
      MachineId m = ReplicaTable::kInvalid;
      if (options.use_partitioner_master_preference) {
        MachineId pref = partitioner.PreferredMaster(v);
        if (pref != kKeepPlacement) m = pref % num_partitions;
      }
      if (m == ReplicaTable::kInvalid) {
        if (options.master_policy == MasterPolicy::kVertexHash) {
          m = static_cast<MachineId>(util::Mix64(v ^ options.seed) %
                                     num_partitions);
        } else {
          uint32_t count = dg.replicas.Count(v);
          m = dg.replicas.Select(
              v,
              static_cast<uint32_t>(util::Mix64(v ^ options.seed) % count));
        }
      }
      dg.master[v] = m;
      dg.replicas.Add(v, m);  // ensure the master location holds a replica
      replica_total += dg.replicas.Count(v);
      // Replica memory: one vertex record per master, one mirror record per
      // additional replica, charged to the hosting machines.
      dg.replicas.ForEach(v, [&](MachineId p) {
        const uint64_t bytes =
            p == m ? sizes.vertex_record : sizes.mirror_record;
        replica_bytes[dg.MachineOfPartition(p)] += bytes;
      });
    }
    stripe_replica_total[stripe] = replica_total;
    stripe_present_count[stripe] = present_count;
  };
  if (num_threads > 1) {
    pool.ParallelFor(num_stripes, [&](uint64_t stripe, uint32_t lane) {
      (void)lane;
      run_stripe(stripe);
    });
  } else {
    for (uint64_t stripe = 0; stripe < num_stripes; ++stripe) {
      run_stripe(stripe);
    }
  }

  uint64_t replica_total = 0;
  uint64_t present_count = 0;
  std::vector<uint64_t> replica_bytes(num_machines, 0);
  for (uint64_t stripe = 0; stripe < num_stripes; ++stripe) {
    replica_total += stripe_replica_total[stripe];
    present_count += stripe_present_count[stripe];
    for (uint32_t m = 0; m < num_machines; ++m) {
      replica_bytes[m] += stripe_replica_bytes[stripe][m];
    }
  }
  dg.num_present_vertices = present_count;
  if (source.Materialized()) {
    dg.BuildDegreeCache();
  } else {
    // Same integer counts, streamed from the store instead of dg.edges.
    dg.out_degree.assign(dg.num_vertices, 0);
    dg.in_degree.assign(dg.num_vertices, 0);
    source.StreamShard(0, num_edges, [&](uint64_t, graph::Edge e) {
      ++dg.out_degree[e.src];
      ++dg.in_degree[e.dst];
    });
  }
  dg.replication_factor =
      present_count > 0
          ? static_cast<double>(replica_total) / present_count
          : 0.0;

  for (uint32_t m = 0; m < num_machines; ++m) {
    if (replica_bytes[m] != 0) cluster.machine(m).Allocate(replica_bytes[m]);
  }
  // Per-vertex finalize work (building routing tables): one work unit per
  // present vertex, split evenly in ticks with the remainder on the
  // lowest-indexed machines, like the partitioner-state bytes.
  const uint64_t finalize_ticks = sim::kTicksPerWorkUnit * present_count;
  for (uint32_t m = 0; m < num_machines; ++m) {
    cluster.machine(m).AddTicks(finalize_ticks / num_machines +
                                (m < finalize_ticks % num_machines ? 1 : 0));
  }
  report.pass_seconds.push_back(cluster.EndPhase());
  if (timeline != nullptr) timeline->Sample(cluster);
  finalize_span.Arg("present_vertices",
                    static_cast<int64_t>(present_count));
  finalize_span.Arg("replica_total", static_cast<int64_t>(replica_total));
  finalize_span.End(cluster.now_seconds());

  // Ingress done: the partitioner's transient state is released — exactly
  // the bytes each machine holds, so nothing leaks into steady state.
  for (uint32_t m = 0; m < num_machines; ++m) {
    if (state_held[m] != 0) cluster.machine(m).Free(state_held[m]);
    state_held[m] = 0;
  }
  if (timeline != nullptr) {
    timeline->Sample(cluster);
    timeline->Mark(cluster, "ingress-end");
  }

  report.ingress_seconds = cluster.now_seconds() - start_time;
  report.replication_factor = dg.replication_factor;
  report.edge_balance_ratio =
      source.Materialized()
          ? dg.EdgeBalanceRatio()
          : EdgeBalanceFromCounts(dg.partition_edge_count, num_edges);
  ingress_span.Arg("edges", static_cast<int64_t>(num_edges));
  ingress_span.Arg("edges_moved", static_cast<int64_t>(report.edges_moved));
  ingress_span.End(cluster.now_seconds());
  return result;
}

}  // namespace

IngestResult Ingest(const graph::EdgeList& edges, Partitioner& partitioner,
                    sim::Cluster& cluster, const IngestOptions& options) {
  FlatSource source(edges);
  return IngestImpl(source, partitioner, cluster, options);
}

IngestResult Ingest(const graph::EdgeBlockStore& store,
                    Partitioner& partitioner, sim::Cluster& cluster,
                    const IngestOptions& options) {
  const uint32_t num_machines = cluster.num_machines();
  GDP_CHECK_GT(num_machines, 0u);
  const uint32_t num_loaders =
      ResolveNumLoaders(options, partitioner, num_machines);
  const uint32_t num_threads = ResolveNumThreads(options, num_loaders);
  BlockSource source(store, options, num_loaders, num_threads);
  source.set_materialize(options.materialize_edges);
  IngestResult result = IngestImpl(source, partitioner, cluster, options);
  if (options.memory_stats != nullptr) {
    IngestMemoryStats& stats = *options.memory_stats;
    stats.block_bytes = source.BlockBytes();
    stats.ring_buffers = source.RingBuffers();
    stats.ring_bytes = stats.ring_buffers * stats.block_bytes;
    stats.peak_state_bytes = result.report.peak_state_bytes;
    stats.peak_ledger_bytes = stats.ring_bytes + stats.peak_state_bytes;
    stats.store_resident_bytes = store.ResidentBytes();
  }
  return result;
}

IngestResult IngestWithStrategy(const graph::EdgeList& edges,
                                StrategyKind kind,
                                const PartitionContext& context,
                                sim::Cluster& cluster,
                                const IngestOptions& options) {
  PartitionContext ctx = context;
  if (ctx.num_vertices == 0) ctx.num_vertices = edges.num_vertices();
  // Budget-aware strategies read the same knob the streaming pipeline
  // honors; a context that already carries a budget wins.
  if (ctx.memory_budget_bytes == 0) {
    ctx.memory_budget_bytes = options.memory_budget_bytes;
  }
  std::unique_ptr<Partitioner> partitioner = MakePartitioner(kind, ctx);
  if (options.use_block_store) {
    graph::EdgeBlockStore::Options store_options;
    if (options.block_size_edges != 0) {
      store_options.block_size_edges = options.block_size_edges;
    }
    const graph::EdgeBlockStore store =
        graph::EdgeBlockStore::FromEdges(edges, store_options);
    return Ingest(store, *partitioner, cluster, options);
  }
  return Ingest(edges, *partitioner, cluster, options);
}

}  // namespace gdp::partition
