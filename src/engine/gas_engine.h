#ifndef GDP_ENGINE_GAS_ENGINE_H_
#define GDP_ENGINE_GAS_ENGINE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/engine_obs.h"
#include "engine/gas_app.h"
#include "engine/plan.h"
#include "engine/run_stats.h"
#include "partition/distributed_graph.h"
#include "partition/validate.h"
#include "sim/cluster.h"
#include "sim/phase_accumulator.h"
#include "util/cache_line.h"
#include "util/check.h"
#include "util/dense_bitset.h"
#include "util/thread_pool.h"

namespace gdp::engine {

/// Which system's communication discipline to simulate. The engines run the
/// same bulk-synchronous loop and compute identical application results;
/// they differ in *who sends what to whom*, which is exactly the difference
/// the paper measures:
///
/// - kPowerGraphSync (§5.1.2): every mirror sends a partial aggregate to
///   the master each gather step, and the master pushes its updated state
///   to every mirror after apply — 2*(replicas-1) messages per vertex per
///   superstep, the source of the linear RF/IO relation in Fig 5.3.
/// - kPowerLyraHybrid (§6.1): gather messages only from machines actually
///   holding gather-direction edges; state sync to all mirrors for
///   high-degree vertices but only to scatter-direction machines for
///   low-degree ones. With a natural application and a partitioner that
///   colocates gather-edges with the master (Hybrid, 1D-Target), the
///   low-degree traffic vanishes — the below-trend points of Figs 6.1/8.3.
/// - kGraphXPregel (§7.1): vertices live in a hash-partitioned vertex RDD
///   ("home" = master here); homes ship attributes to edge partitions in
///   the scatter direction and edge partitions return partial aggregates
///   from the gather direction. Partitions outnumber machines; traffic
///   between partitions colocated on a machine is free.
enum class EngineKind { kPowerGraphSync, kPowerLyraHybrid, kGraphXPregel };

/// Display name of an engine kind.
inline const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kPowerGraphSync:
      return "PowerGraph";
    case EngineKind::kPowerLyraHybrid:
      return "PowerLyra";
    case EngineKind::kGraphXPregel:
      return "GraphX";
  }
  return "?";
}

template <GasApplication App>
struct GasRunResult {
  std::vector<typename App::State> states;
  RunStats stats;
};

/// Runs `app` over the partitioned graph on the simulated cluster and
/// returns final vertex states plus cost statistics.
///
/// This is the parallel, frontier-aware engine. Real computation runs on
/// `options.exec.num_threads` lanes (0 = hardware default) and gather/scatter
/// traverse precomputed adjacency restricted to the active frontier, so a
/// sparse superstep costs O(frontier edges) instead of O(|E|) on all three
/// engine kinds. Simulated distribution costs charged to `cluster` are
/// *bit-identical* to the serial oracle (reference_engine.h) at every
/// thread count — see sim::PhaseAccumulator for the mechanism. Requires
/// cluster.num_machines() == dg.num_machines and at most 64 machines
/// (partitions may exceed 64).
template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind,
                               const partition::DistributedGraph& dg,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options = {});

/// Same, over a prebuilt ExecutionPlan (amortizes plan construction across
/// runs — e.g. k-core's per-k sweeps). The plan must have been built from
/// `dg` with this App's gather/scatter directions, and with GraphX fan-out
/// counts when `kind` is kGraphXPregel.
template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind, const ExecutionPlan& plan,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options = {});

// ---------------------------------------------------------------------------
// Implementation details only below here.
// ---------------------------------------------------------------------------

template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind, const ExecutionPlan& plan,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options) {
  using State = typename App::State;
  using Gather = typename App::Gather;

  const partition::DistributedGraph& dg = *plan.dg;
  GDP_CHECK_EQ(cluster.num_machines(), dg.num_machines);
  GDP_CHECK_LE(dg.num_machines, 64u);
  GDP_CHECK(plan.gather_dir == App::kGatherDir &&
            plan.scatter_dir == App::kScatterDir);
  // Debug builds re-verify the placement/replica invariants every run; the
  // engines' message accounting silently miscounts on a corrupt structure.
  GDP_DCHECK_OK(partition::ValidateDistributedGraph(dg));
  const graph::VertexId n = dg.num_vertices;
  const sim::ObjectSizes sizes;
  const double work_mul = options.work_multiplier;

  const std::vector<uint64_t>& out_degree = dg.out_degree;
  const std::vector<uint64_t>& in_degree = dg.in_degree;
  AppContext ctx{&out_degree, &in_degree};

  const internal::MachineMasks& masks = plan.masks;
  if (kind == EngineKind::kGraphXPregel) {
    GDP_CHECK_EQ(plan.gather_partition_count.size(), n);
  }

  // Resolved execution context: thread count + observability sinks. The
  // observer owns the per-superstep span; when no sink is attached
  // (`!observed`) every instrumentation site below is skipped.
  const obs::ExecContext& exec = options.exec;
  SuperstepObserver observer(exec, cluster, EngineKindName(kind));
  const bool observed = observer.enabled();

  util::ThreadPool pool(exec.num_threads);
  // Every charge is an integer tick count on a lane's accumulator; the
  // lanes merge and flush once per minor-step, and EndPhase converts each
  // machine's ticks to seconds with the run's work multiplier. Apply and
  // scatter run in one pass, so each lane charges them to two accumulators
  // (`accs` and `scatter_accs`) that flush separately, keeping the span's
  // per-minor-step totals. Lanes write these on every vertex, so each
  // lane's counters own whole cache lines (PhaseAccumulator's arrays, one
  // padded slot per lane).
  std::vector<sim::PhaseAccumulator> accs(pool.num_threads());
  std::vector<sim::PhaseAccumulator> scatter_accs(pool.num_threads());
  for (sim::PhaseAccumulator& acc : accs) acc.Reset(dg.num_machines);
  for (sim::PhaseAccumulator& acc : scatter_accs) acc.Reset(dg.num_machines);
  // Counts one lane takes from its own work in the apply+scatter pass:
  // signaled vertices, bits it turned on in the next frontier (sparse
  // supersteps) and GraphX shuffle blocks. Integer sums over lanes, so
  // their totals are identical at every lane count.
  struct LaneCounts {
    uint64_t signaled = 0;
    uint64_t woken = 0;
    uint64_t graphx_blocks = 0;
  };
  std::vector<util::CacheLinePadded<LaneCounts>> lane_counts(
      pool.num_threads());
  // Flushes the lanes' counts to the cluster; returns this minor-step's
  // {ticks, sent bytes} totals when observed (integer sums over machines —
  // identical at every lane count).
  auto flush = [&](std::vector<sim::PhaseAccumulator>& lanes)
      -> std::pair<uint64_t, uint64_t> {
    for (size_t i = 1; i < lanes.size(); ++i) lanes[0].Merge(lanes[i]);
    std::pair<uint64_t, uint64_t> totals{0, 0};
    if (observed) totals = {lanes[0].TotalTicks(), lanes[0].TotalSentBytes()};
    lanes[0].FlushTo(cluster);
    for (sim::PhaseAccumulator& acc : lanes) acc.Reset(dg.num_machines);
    return totals;
  };

  GasRunResult<App> result;
  RunStats& stats = result.stats;
  std::vector<State>& state = result.states;
  state.reserve(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    state.push_back(app.InitState(v, ctx));
  }

  util::DenseBitset active(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (dg.present[v] && app.InitiallyActive(v)) active.Set(v);
  }
  // The one sweep that counts a frontier: every later count comes from the
  // work that built the frontier.
  uint64_t active_count = active.CountSet();

  const double compute_start = cluster.now_seconds();
  uint64_t bytes_sent_start = cluster.TotalBytesSent();
  std::vector<uint64_t> inbound_start(dg.num_machines);
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_start[m] = cluster.machine(m).bytes_received();
  }

  util::DenseBitset next_active(n);

  // --- Frontier iteration --------------------------------------------------
  // A sparse frontier (fewer than 1/32 of the vertices) is materialized once
  // per superstep as a sorted index list, which gather and the
  // apply+scatter pass both shard in 1024-entry chunks; a dense frontier is
  // scanned in place in word-aligned 4096-vertex blocks (so block-local
  // non-atomic writes never share a word across lanes). Chunk decomposition
  // depends only on sizes, never on the lane count, and a single chunk runs
  // inline on the calling thread (util::ThreadPool).
  std::vector<graph::VertexId> frontier_list;
  // Decides from the frontier's size alone whether it is sparse, and if so
  // fills frontier_list from `active` — the one O(n/64) sweep of a sparse
  // superstep.
  auto prepare_frontier = [&](uint64_t count) {
    const bool sparse = count * 32 < static_cast<uint64_t>(n);
    if (sparse) {
      frontier_list.clear();
      active.AppendSetBits(&frontier_list);
    }
    return sparse;
  };
  // Calls per_vertex(v, lane) for every vertex of `active`, through
  // frontier_list when prepare_frontier found it `sparse`.
  auto for_each_frontier = [&](bool sparse, auto&& per_vertex) {
    if (sparse) {
      constexpr uint64_t kChunk = 1024;
      const uint64_t total = frontier_list.size();
      pool.ParallelFor((total + kChunk - 1) / kChunk,
                       [&](uint64_t chunk, uint32_t lane) {
                         const uint64_t begin = chunk * kChunk;
                         const uint64_t end =
                             std::min(begin + kChunk, total);
                         for (uint64_t i = begin; i < end; ++i) {
                           per_vertex(frontier_list[i], lane);
                         }
                       });
    } else {
      constexpr uint64_t kWords = 64;  // 4096 vertices per chunk
      const uint64_t num_words = active.num_words();
      pool.ParallelFor(
          (num_words + kWords - 1) / kWords,
          [&](uint64_t chunk, uint32_t lane) {
            active.ForEachSetInWordRange(
                chunk * kWords, std::min(num_words, (chunk + 1) * kWords),
                [&](uint64_t v) {
                  per_vertex(static_cast<graph::VertexId>(v), lane);
                });
          });
    }
  };

  // Activation (scatter control) messages: signaled center v notifies the
  // machines holding its scatter-direction edges. Byte counts only —
  // integer sums, safe to accumulate on any lane in any order.
  auto charge_activation = [&](graph::VertexId v, uint32_t lane) {
    uint64_t mask = internal::DirectionMask(masks, App::kScatterDir, v);
    sim::MachineId master = masks.master_machine[v];
    mask &= ~(1ULL << master);
    while (mask != 0) {
      sim::MachineId m = static_cast<sim::MachineId>(std::countr_zero(mask));
      mask &= mask - 1;
      scatter_accs[lane].ChargeSendBytes(master, sizes.control_message);
      scatter_accs[lane].ChargeReceiveBytes(m, sizes.control_message);
    }
  };

  // Wakes the scatter-direction neighbors of one signaled center through
  // `wake` and charges its scatter work through the plan's (machine, count)
  // run tables — one multiply per distinct machine — to the lane's scatter
  // accumulator. Wakeups are idempotent ORs and charges are integer sums,
  // so neither depends on entry order. Scatter reads only the plan and
  // writes only next_active, which apply never reads, so it runs in the
  // apply pass as soon as its center signals.
  const std::vector<uint64_t>& scatter_offsets = plan.scatter_offsets();
  const std::vector<graph::VertexId>& scatter_target = plan.scatter_target();
  const std::vector<uint64_t>& scatter_run_offsets =
      plan.scatter_run_offsets();
  const std::vector<uint32_t>& scatter_runs = plan.scatter_runs();
  auto scatter_vertex = [&](graph::VertexId v, uint32_t lane, auto&& wake) {
    for (uint64_t s = scatter_offsets[v]; s < scatter_offsets[v + 1]; ++s) {
      wake(scatter_target[s]);
    }
    for (uint64_t r = scatter_run_offsets[v]; r < scatter_run_offsets[v + 1];
         ++r) {
      const uint32_t run = scatter_runs[r];
      scatter_accs[lane].AddTicks(
          ExecutionPlan::RunMachine(run),
          sim::kTicksPerWorkUnit * ExecutionPlan::RunCount(run));
    }
  };

  // Runs visit(v, lane, wake) over the frontier in `active`, where wake(t)
  // puts t into next_active (clear on entry), and returns the size of
  // next_active — taken from the work, never from a sweep. A sparse
  // frontier wakes through SetAtomic, and each lane counts the bits it
  // turned on. A dense one has each lane collect wakeups in its own bitset
  // (plain single-writer stores, no lock-prefixed RMW in the hot loop),
  // merged afterwards with one word-parallel OrWith per lane and counted
  // once; a sparse one skips that, since merging whole-size bitsets would
  // cost O(n/64) per lane to publish a handful of bits.
  std::vector<util::DenseBitset> wake_local;
  auto wake_pass = [&](bool sparse, auto&& visit) -> uint64_t {
    if (sparse) {
      for_each_frontier(true, [&](graph::VertexId v, uint32_t lane) {
        uint64_t& woken = lane_counts[lane].value.woken;
        visit(v, lane, [&](graph::VertexId t) {
          woken += next_active.SetAtomic(t) ? 1 : 0;
        });
      });
      uint64_t total = 0;
      for (util::CacheLinePadded<LaneCounts>& lane : lane_counts) {
        total += lane.value.woken;
        lane.value.woken = 0;
      }
      return total;
    }
    if (wake_local.empty()) {
      for (uint32_t t = 0; t < pool.num_threads(); ++t) {
        wake_local.emplace_back(n);
      }
    } else {
      for (util::DenseBitset& local : wake_local) local.ClearAll();
    }
    for_each_frontier(false, [&](graph::VertexId v, uint32_t lane) {
      util::DenseBitset& local = wake_local[lane];
      visit(v, lane, [&](graph::VertexId t) { local.Set(t); });
    });
    for (const util::DenseBitset& local : wake_local) {
      next_active.OrWith(local);
    }
    return next_active.CountSet();
  };

  // Optional bootstrap: initially active vertices announce themselves;
  // with no apply/sync step yet, these activations do cross the wire.
  if (App::kBootstrapScatter) {
    obs::ScopedSpan bootstrap_span(exec.trace, exec.trace_track, "bootstrap",
                                   "engine", cluster.now_seconds());
    const uint64_t init_count = active_count;
    active_count = wake_pass(
        prepare_frontier(init_count),
        [&](graph::VertexId v, uint32_t lane, auto&& wake) {
          scatter_vertex(v, lane, wake);
          charge_activation(v, lane);
        });
    const auto [scatter_ticks, scatter_bytes] = flush(scatter_accs);
    cluster.EndPhase(work_mul);
    std::swap(active, next_active);
    bootstrap_span.Arg("frontier", static_cast<int64_t>(init_count));
    bootstrap_span.Arg("scatter_ticks", static_cast<int64_t>(scatter_ticks));
    bootstrap_span.Arg("scatter_bytes", static_cast<int64_t>(scatter_bytes));
    bootstrap_span.End(cluster.now_seconds());
  }

  std::vector<Gather> acc(n, app.GatherInit());
  std::vector<uint8_t> has_gather(n, 0);

  const Gather gather_identity = app.GatherInit();
  // Plain-sum contribution cache (HasGatherContribution apps): one value per
  // vertex per superstep, refreshed by a strided sweep before dense gathers.
  constexpr bool kHasContribution = HasGatherContribution<App>;
  std::vector<Gather> contrib;
  uint32_t iteration = 0;
  for (; iteration < options.max_iterations; ++iteration) {
    stats.active_counts.push_back(active_count);
    if (active_count == 0) {
      stats.converged = true;
      break;
    }
    observer.BeginSuperstep(iteration);
    SuperstepBreakdown breakdown;
    breakdown.frontier = active_count;
    // Every per-superstep decision below depends only on this count.
    const bool sparse = prepare_frontier(active_count);

    // ---- Gather minor-step ------------------------------------------------
    // Each active center folds its gather-direction neighbors through the
    // plan's CSR. Adjacency order per center equals the serial engine's
    // edge-scan order restricted to that center (plan.h), and only the
    // center's lane touches acc[v]/has_gather[v], so gather results are
    // bit-identical to the serial engine at any lane count.

    // Refresh the contribution cache on dense frontiers: a strided sweep
    // with no adjacency indirection (auto-vectorizable) hoists the per-edge
    // arithmetic out of the gather loop. Sparse frontiers skip it — an O(n)
    // sweep serving few centers costs more than it saves. The gate depends
    // only on active_count, so the decision is identical at every thread
    // count; either path folds identical bits (see HasGatherContribution).
    bool use_contrib = false;
    if constexpr (kHasContribution) {
      use_contrib = active_count * 4 >= static_cast<uint64_t>(n);
      if (use_contrib) {
        if (contrib.empty()) contrib.resize(n, gather_identity);
        constexpr uint64_t kBlock = 4096;
        pool.ParallelFor(
            (static_cast<uint64_t>(n) + kBlock - 1) / kBlock,
            [&](uint64_t chunk, uint32_t) {
              const graph::VertexId first =
                  static_cast<graph::VertexId>(chunk * kBlock);
              const graph::VertexId last = static_cast<graph::VertexId>(
                  std::min<uint64_t>(n, (chunk + 1) * kBlock));
              for (graph::VertexId u = first; u < last; ++u) {
                contrib[u] = app.GatherContribution(u, state[u], ctx);
              }
            });
      }
    }

    for_each_frontier(
        sparse, [&](graph::VertexId v, uint32_t lane) {
          const uint64_t begin = plan.gather_offsets[v];
          const uint64_t end = plan.gather_offsets[v + 1];
          Gather folded = gather_identity;
          // Folds v's neighbors, via the cached contributions when active.
          auto fold_entries = [&] {
            if constexpr (kHasContribution) {
              if (use_contrib) {
                for (uint64_t s = begin; s < end; ++s) {
                  folded += contrib[plan.gather_nbr[s]];
                }
                return;
              }
            }
            for (uint64_t s = begin; s < end; ++s) {
              const graph::VertexId nbr = plan.gather_nbr[s];
              app.GatherEdge(v, nbr, state[nbr], ctx, &folded);
            }
          };
          fold_entries();
          for (uint64_t r = plan.gather_run_offsets[v];
               r < plan.gather_run_offsets[v + 1]; ++r) {
            const uint32_t run = plan.gather_runs[r];
            accs[lane].AddTicks(
                ExecutionPlan::RunMachine(run),
                sim::kTicksPerWorkUnit * ExecutionPlan::RunCount(run));
          }
          acc[v] = std::move(folded);
          has_gather[v] = begin != end;
        });
    std::tie(breakdown.gather_ticks, breakdown.gather_bytes) = flush(accs);

    // ---- Apply + scatter minor-steps, one pass ----------------------------
    // Apply charges its compute and messages to `accs`; a center that
    // signals scatters at once, charging `scatter_accs`.
    next_active.ClearAll();
    const uint64_t next_count = wake_pass(
        sparse, [&](graph::VertexId v, uint32_t lane, auto&& wake) {
          sim::PhaseAccumulator& a = accs[lane];
          LaneCounts& counts = lane_counts[lane].value;
          const sim::MachineId master = masks.master_machine[v];
          a.AddTicks(master, sim::kTicksPerWorkUnit);
          const bool signal =
              app.Apply(v, acc[v], has_gather[v] != 0, ctx, &state[v]);

          const uint64_t master_bit = 1ULL << master;

          if (kind == EngineKind::kGraphXPregel) {
            // Shuffle-block serialization per edge-partition touched (see
            // the ExecutionPlan fan-out comment).
            const uint64_t blocks =
                plan.gather_partition_count[v] +
                (signal ? plan.scatter_partition_count()[v] : 0u);
            a.AddTicks(master, sim::kShuffleBlockTicks * blocks);
            if (observed) counts.graphx_blocks += blocks;
          }

          // Gather messages: mirrors -> master, a round trip each (the
          // master activates the mirror, the mirror returns its partial
          // aggregate and pays serialization work).
          uint64_t gm =
              kind == EngineKind::kPowerGraphSync
                  ? masks.replicas[v] & ~master_bit
                  : internal::DirectionMask(masks, App::kGatherDir, v) &
                        ~master_bit;
          while (gm != 0) {
            sim::MachineId src =
                static_cast<sim::MachineId>(std::countr_zero(gm));
            gm &= gm - 1;
            a.ChargeSendBytes(master, sizes.control_message);
            a.ChargeReceiveBytes(src, sizes.control_message);
            a.ChargeSendBytes(src, sizes.gather_message);
            a.ChargeReceiveBytes(master, sizes.gather_message);
            a.AddTicks(src, sim::kSerializeTicks);
          }

          // State synchronization: master -> mirrors (only when state
          // changed; always for always-signaling apps like PageRank).
          // PowerGraph syncs every mirror; GraphX ships to the machines
          // holding scatter-direction edges, and PowerLyra does too for
          // low-degree vertices. Activation signals piggyback on these
          // messages (the real engines coalesce them), so scatter itself
          // only charges compute work.
          if (signal) {
            ++counts.signaled;
            const bool low_degree = (in_degree[v] + out_degree[v]) <=
                                    options.high_degree_threshold;
            const bool all_mirrors =
                kind == EngineKind::kPowerGraphSync ||
                (kind == EngineKind::kPowerLyraHybrid && !low_degree);
            uint64_t sm =
                (all_mirrors
                     ? masks.replicas[v]
                     : internal::DirectionMask(masks, App::kScatterDir, v)) &
                ~master_bit;
            while (sm != 0) {
              sim::MachineId dst =
                  static_cast<sim::MachineId>(std::countr_zero(sm));
              sm &= sm - 1;
              a.ChargeSendBytes(master, sizes.sync_message);
              a.ChargeReceiveBytes(dst, sizes.sync_message);
              a.AddTicks(master, sim::kSerializeTicks);
            }
            scatter_vertex(v, lane, wake);
          }
        });
    std::tie(breakdown.apply_ticks, breakdown.apply_bytes) = flush(accs);
    std::tie(breakdown.scatter_ticks, breakdown.scatter_bytes) =
        flush(scatter_accs);
    for (util::CacheLinePadded<LaneCounts>& lane : lane_counts) {
      breakdown.signaled += lane.value.signaled;
      breakdown.graphx_blocks += lane.value.graphx_blocks;
      lane.value.signaled = 0;
      lane.value.graphx_blocks = 0;
    }

    // Three minor-step barriers per superstep (§5.1.2).
    cluster.EndPhase(work_mul);
    cluster.AdvanceSeconds(2 * cluster.cost_model().barrier_latency_seconds);
    stats.cumulative_seconds.push_back(cluster.now_seconds() -
                                       compute_start);
    observer.EndSuperstep(breakdown);
    std::swap(active, next_active);
    active_count = next_count;
  }

  observer.Finish();
  stats.iterations = iteration;
  if (!stats.converged && iteration == options.max_iterations) {
    // Ran to the iteration cap; report whether anything is still active.
    stats.converged = active_count == 0;
  }
  stats.compute_seconds = cluster.now_seconds() - compute_start;
  stats.network_bytes = cluster.TotalBytesSent() - bytes_sent_start;
  double inbound_total = 0;
  for (uint32_t m = 0; m < dg.num_machines; ++m) {
    inbound_total += static_cast<double>(
        cluster.machine(m).bytes_received() - inbound_start[m]);
  }
  stats.mean_inbound_bytes_per_machine = inbound_total / dg.num_machines;
  return result;
}

template <GasApplication App>
GasRunResult<App> RunGasEngine(EngineKind kind,
                               const partition::DistributedGraph& dg,
                               sim::Cluster& cluster, App app,
                               const RunOptions& options) {
  const ExecutionPlan plan =
      ExecutionPlan::Build(dg, App::kGatherDir, App::kScatterDir,
                           kind == EngineKind::kGraphXPregel,
                           options.exec.num_threads);
  return RunGasEngine(kind, plan, cluster, std::move(app), options);
}

}  // namespace gdp::engine

#endif  // GDP_ENGINE_GAS_ENGINE_H_
