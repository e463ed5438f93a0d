// Layered pipeline benchmark: drives the real pipeline through its public
// functions — EdgeBlockStore::LoadFrom + Validate, partition::Ingest,
// engine::ExecutionPlan::Build, engine::RunGasEngine and
// serving::QueryServer::Serve — timing every call from outside, and checks
// every answer. One workload per process; see README.md for the workloads,
// the metrics and the layer -> end-to-end map.
//
//   perfbench_pipeline --workload heavy-pagerank --seed 1 --seconds 10
//       --trace 0 --threads 4 --scale full --scratch DIR --results DIR
//       --digests perfbench/digests.txt
//
// The last line of standard output is one JSON object with every metric
// this run measured (perfbench/run.py maps it onto BENCHMARK.json). The
// exit code is non-zero when any answer check failed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/reference.h"
#include "apps/sssp.h"
#include "engine/gas_engine.h"
#include "engine/plan.h"
#include "graph/edge_block_store.h"
#include "graph/generators.h"
#include "harness/experiment.h"
#include "harness/experiment_internal.h"
#include "obs/chrome_trace.h"
#include "obs/exec_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "partition/partitioner.h"
#include "serving/query_server.h"
#include "serving/request.h"
#include "sim/cluster.h"
#include "util/hash.h"
#include "util/stats.h"

namespace {

using namespace gdp;
using Clock = std::chrono::steady_clock;

/// The seed whose answers are pinned in digests.txt.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint32_t kMachines = 9;
/// Timed setups (generate + encode + save) of the reference graphs repeat for
/// at least this long, and at least kMinSetups times, both before and after
/// the measurement window; setup_s is the median of all. A shared host's
/// speed drifts over tens of seconds, so setups at both ends of a run see
/// more than one of its states.
constexpr double kSetupSeconds = 2.0;
constexpr size_t kMinSetups = 3;
/// Fewest timed repetitions per run, whatever --seconds says.
constexpr int kMinReps = 3;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(const std::vector<double>& values) {
  return util::Percentile(values, 50);
}

/// Heap bytes in use across all malloc arenas, mmapped chunks included.
uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over raw bytes; the answer and simulated-cost digests.
class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&value, sizeof(T));
  }
  template <typename T>
  void AddVector(const std::vector<T>& values) {
    Add(values.size());
    if (!values.empty()) Bytes(values.data(), values.size() * sizeof(T));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Counts answer checks; a failed check is a failed operation.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  void ExpectOk(const util::Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Named samples with units: the per-layer ledger.
class Ledger {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };

  void Add(const std::string& name, const std::string& unit, double value) {
    Series& series = series_[name];
    series.unit = unit;
    series.values.push_back(value);
  }
  double MedianOf(const std::string& name) const {
    auto it = series_.find(name);
    return it == series_.end() ? 0.0 : Median(it->second.values);
  }
  const std::map<std::string, Series>& series() const { return series_; }

 private:
  std::map<std::string, Series> series_;
};

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  uint32_t threads = 1;
  bool smoke = false;
  std::string scratch_dir;
  std::string results_dir;
  std::string digests_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--threads") {
      args->threads =
          static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "--scale") {
      args->smoke = value == "smoke";
    } else if (key == "--scratch") {
      args->scratch_dir = value;
    } else if (key == "--results") {
      args->results_dir = value;
    } else if (key == "--digests") {
      args->digests_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->threads > 0 &&
         !args->scratch_dir.empty() && !args->results_dir.empty();
}

// ---------------------------------------------------------------------------
// Datasets and setup.
// ---------------------------------------------------------------------------

struct Dataset {
  std::string name;
  std::string path;
  uint64_t seed;  ///< seed of the graph the run measures
  std::function<graph::EdgeList(uint64_t seed)> generate;
};

/// Generates, block-encodes and saves every dataset once: the graphs the run
/// measures, to Dataset::path, or with `reference` graphs of the same shapes
/// drawn from fixed seeds (the same on every run), to paths of their own.
/// Returns the edge lists.
std::vector<graph::EdgeList> SetUp(const std::vector<Dataset>& datasets,
                                   bool reference, Checks& checks) {
  std::vector<graph::EdgeList> lists;
  for (uint64_t d = 0; d < datasets.size(); ++d) {
    const Dataset& dataset = datasets[d];
    graph::EdgeList edges =
        dataset.generate(reference ? util::Mix64(d) : dataset.seed);
    edges.set_name(dataset.name);
    const std::string path = dataset.path + (reference ? ".ref" : "");
    const graph::EdgeBlockStore store = graph::EdgeBlockStore::FromEdges(edges);
    checks.ExpectOk(store.SaveTo(path), "save " + path);
    if (!reference) {
      std::printf("dataset %s: %u vertices, %zu edges\n",
                  dataset.name.c_str(), edges.num_vertices(),
                  edges.edges().size());
    }
    lists.push_back(std::move(edges));
  }
  return lists;
}

/// Times fresh setups of the reference graphs for `window_s` seconds (at
/// least kMinSetups times), appending the wall time of each to `times`.
/// Setup time depends on the graph drawn: the edge sort alone varies 2.5x
/// between road-lattice seeds. Timing fixed graphs keeps setup_s from
/// following the run's seed.
void TimeSetups(const std::vector<Dataset>& datasets, double window_s,
                Checks& checks, std::vector<double>* times) {
  const Clock::time_point window = Clock::now();
  for (size_t n = 0; n < kMinSetups || Since(window) < window_s; ++n) {
    const Clock::time_point start = Clock::now();
    const std::vector<graph::EdgeList> lists =
        SetUp(datasets, /*reference=*/true, checks);
    times->push_back(Since(start));
  }
}

/// Loads and validates one saved store.
graph::EdgeBlockStore LoadStore(const std::string& path, Checks& checks) {
  util::StatusOr<graph::EdgeBlockStore> loaded =
      graph::EdgeBlockStore::LoadFrom(path);
  checks.Expect(loaded.ok(), "load " + path);
  if (!loaded.ok()) return graph::EdgeBlockStore();
  graph::EdgeBlockStore store = std::move(loaded).value();
  checks.ExpectOk(store.Validate(), "validate " + path);
  return store;
}

/// Committed answer digests: "<workload> <scale> <seed> <key> <hex>" lines;
/// lines starting with '#' are comments.
std::map<std::string, std::string> ReadDigests(const std::string& path) {
  std::map<std::string, std::string> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t split = line.rfind(' ');
    if (line.empty() || line[0] == '#' || split == std::string::npos) continue;
    digests[line.substr(0, split)] = line.substr(split + 1);
  }
  return digests;
}

std::string Hex(uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Prints this run's answer digests and, on the default seed, checks them
/// against the committed ones.
void CheckDigests(const Args& args,
                  const std::vector<std::pair<std::string, uint64_t>>& answers,
                  Checks& checks) {
  const std::string scale = args.smoke ? "smoke" : "full";
  const std::string prefix = args.workload + " " + scale + " " +
                             std::to_string(args.seed) + " ";
  const std::map<std::string, std::string> committed =
      args.seed == kDefaultSeed ? ReadDigests(args.digests_path)
                                : std::map<std::string, std::string>();
  for (const auto& [key, digest] : answers) {
    std::printf("digest %s%s %s\n", prefix.c_str(), key.c_str(),
                Hex(digest).c_str());
    if (args.seed != kDefaultSeed) continue;
    auto it = committed.find(prefix + key);
    checks.Expect(it != committed.end() && it->second == Hex(digest),
                  "committed digest " + prefix + key);
  }
}

// ---------------------------------------------------------------------------
// Batch workloads: load -> ingest -> plan -> engine per cell.
// ---------------------------------------------------------------------------

enum class App { kNone, kPageRank, kSssp };

/// One (strategy, engine, application) combination of a repetition.
struct Cell {
  std::string name;      ///< "random-powergraph"; the plan metric suffix
  std::string strategy;  ///< random, hdrf, 2d, 2ps, oblivious
  partition::StrategyKind kind;
  uint32_t partitions_per_machine;
  engine::EngineKind engine;
  App app;  ///< kNone: ingress only
};

std::string EngineSlug(engine::EngineKind kind) {
  std::string name = engine::EngineKindName(kind);
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

/// "powergraph.pagerank": the engine-layer metric infix of a cell.
std::string EngineAppKey(const Cell& cell) {
  return EngineSlug(cell.engine) +
         (cell.app == App::kPageRank ? ".pagerank" : ".sssp");
}

harness::ExperimentSpec SpecFor(const Cell& cell, uint64_t seed,
                                uint32_t threads) {
  harness::ExperimentSpec spec;
  spec.engine = cell.engine;
  spec.strategy = cell.kind;
  spec.num_machines = kMachines;
  spec.partitions_per_machine = cell.partitions_per_machine;
  spec.app = cell.app == App::kSssp ? harness::AppKind::kSssp
                                    : harness::AppKind::kPageRankFixed;
  spec.max_iterations = 10;
  spec.seed = seed;
  spec.use_block_ingress = true;
  spec.exec.num_threads = threads;
  return spec;
}

partition::PartitionContext ContextFor(const harness::ExperimentSpec& spec,
                                       graph::VertexId num_vertices) {
  partition::PartitionContext context;
  context.num_partitions = spec.num_machines * spec.partitions_per_machine;
  context.num_vertices = num_vertices;
  context.num_loaders = spec.num_machines;
  context.seed = spec.seed;
  return context;
}

struct CellResult {
  uint64_t answer = 0;  ///< edge placement, replication factor, final states
  uint64_t sim = 0;     ///< every simulated cost the cell produced
  double ingest_s = 0;
  double plan_s = 0;
  double run_s = 0;  ///< all engine runs of the cell
  partition::IngestMemoryStats memory;
  uint64_t plan_bytes = 0;
  uint64_t supersteps = 0;
  double sim_compute_s = 0;
  uint64_t sim_network_bytes = 0;
  // First engine run (or the ingress, for ingress-only cells), for the
  // cross-check against harness::RunExperiment.
  double replication_factor = 0;
  double ingress_sim_s = 0;
  double total_sim_s = 0;
  engine::RunStats first_stats;
  // Final states, kept on request for the oracle check.
  std::vector<std::vector<double>> ranks;
  std::vector<std::vector<uint32_t>> distances;
};

/// Plan build plus one engine run per `make_app(i)`, i < num_runs, each
/// from the post-ingress cluster state, every call timed from outside.
template <typename App, typename MakeApp>
void RunEngine(const Cell& cell, const partition::DistributedGraph& dg,
               sim::Cluster& cluster, const engine::RunOptions& options,
               size_t num_runs, MakeApp make_app, bool keep_states,
               CellResult* out, Fnv* answer, Fnv* sim) {
  const obs::ExecContext& exec = options.exec;
  const bool graphx = cell.engine == engine::EngineKind::kGraphXPregel;
  const uint64_t heap_before = HeapBytes();
  obs::ScopedSpan plan_span(exec.trace, exec.trace_track, "bench plan_build",
                            "bench", cluster.now_seconds());
  Clock::time_point start = Clock::now();
  const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
      dg, App::kGatherDir, App::kScatterDir, graphx);
  out->plan_s = Since(start);
  plan_span.End(cluster.now_seconds());
  const uint64_t heap_after = HeapBytes();
  out->plan_bytes = heap_after > heap_before ? heap_after - heap_before : 0;

  const sim::ClusterSnapshot post_ingress = cluster.Snapshot();
  for (size_t i = 0; i < num_runs; ++i) {
    cluster.Restore(post_ingress);
    obs::ScopedSpan run_span(exec.trace, exec.trace_track, "bench run",
                             "bench", cluster.now_seconds());
    start = Clock::now();
    engine::GasRunResult<App> run =
        engine::RunGasEngine(cell.engine, plan, cluster, make_app(i), options);
    out->run_s += Since(start);
    run_span.End(cluster.now_seconds());

    const engine::RunStats& stats = run.stats;
    answer->AddVector(run.states);
    sim->Add(stats.iterations);
    sim->Add(stats.converged);
    sim->Add(stats.compute_seconds);
    sim->Add(stats.network_bytes);
    sim->Add(stats.mean_inbound_bytes_per_machine);
    sim->AddVector(stats.cumulative_seconds);
    sim->AddVector(stats.active_counts);
    sim->Add(cluster.now_seconds());
    out->supersteps += stats.iterations;
    out->sim_compute_s += stats.compute_seconds;
    out->sim_network_bytes += stats.network_bytes;
    if (i == 0) {
      out->first_stats = stats;
      out->total_sim_s = cluster.now_seconds();
    }
    if (keep_states) {
      if constexpr (std::is_same_v<typename App::State, double>) {
        out->ranks.push_back(std::move(run.states));
      } else {
        out->distances.push_back(std::move(run.states));
      }
    }
  }
}

/// Runs one cell through the layers. Every layer call is timed from outside
/// and wrapped in a benchmark-side span on exec.trace_track.
CellResult RunCell(const Cell& cell, const graph::EdgeBlockStore& store,
                   const std::vector<graph::VertexId>& sources, uint64_t seed,
                   const obs::ExecContext& exec, bool keep_states) {
  CellResult out;
  const harness::ExperimentSpec spec = SpecFor(cell, seed, exec.num_threads);
  sim::Cluster cluster(spec.num_machines, sim::CostModel{});
  Fnv answer;
  Fnv sim;

  partition::IngestOptions options =
      harness::internal::IngestOptionsFor(spec, exec);
  options.memory_stats = &out.memory;
  obs::ScopedSpan ingest_span(exec.trace, exec.trace_track,
                              "bench ingest " + cell.strategy, "bench",
                              cluster.now_seconds());
  const Clock::time_point start = Clock::now();
  std::unique_ptr<partition::Partitioner> partitioner =
      partition::MakePartitioner(cell.kind,
                                 ContextFor(spec, store.num_vertices()));
  partition::IngestResult ingest =
      partition::Ingest(store, *partitioner, cluster, options);
  partitioner.reset();  // as IngestWithStrategy does
  out.ingest_s = Since(start);
  ingest_span.End(cluster.now_seconds());

  const partition::IngressReport& report = ingest.report;
  answer.AddVector(ingest.graph.edge_partition);
  answer.Add(report.replication_factor);
  sim.Add(report.ingress_seconds);
  sim.AddVector(report.pass_seconds);
  sim.Add(report.edges_moved);
  sim.Add(report.edge_balance_ratio);
  sim.Add(report.peak_state_bytes);
  sim.Add(cluster.now_seconds());
  out.replication_factor = report.replication_factor;
  out.ingress_sim_s = report.ingress_seconds;
  out.total_sim_s = cluster.now_seconds();

  engine::RunOptions run_options =
      harness::internal::RunOptionsFor(spec, exec);
  if (cell.app == App::kPageRank) {
    RunEngine<apps::PageRankApp>(
        cell, ingest.graph, cluster, run_options, 1,
        [](size_t) { return apps::PageRankFixed(); }, keep_states, &out,
        &answer, &sim);
  } else if (cell.app == App::kSssp) {
    // harness::RunApp's SSSP iteration floor, so run 0 equals RunExperiment.
    run_options.max_iterations = std::max(run_options.max_iterations, 2000u);
    RunEngine<apps::SsspApp>(
        cell, ingest.graph, cluster, run_options, sources.size(),
        [&sources](size_t i) {
          apps::SsspApp app;
          app.source = sources[i];
          return app;
        },
        keep_states, &out, &answer, &sim);
  }
  out.answer = answer.value();
  out.sim = sim.value();
  return out;
}

struct BatchWorkload {
  std::vector<Cell> cells;
  Dataset dataset;
  uint32_t num_sources = 0;  ///< SSSP sources per cell (0: no SSSP)
  std::vector<graph::VertexId> sources;
};

BatchWorkload MakeBatchWorkload(const Args& args) {
  using engine::EngineKind;
  using partition::StrategyKind;
  BatchWorkload w;
  const uint64_t graph_seed = util::Mix64(args.seed ^ 0x6770);
  const std::string path = args.scratch_dir + "/" + args.workload + ".blks";
  if (args.workload == "heavy-pagerank") {
    w.cells = {
        {"random-powergraph", "random", StrategyKind::kRandom, 1,
         EngineKind::kPowerGraphSync, App::kPageRank},
        {"hdrf-powerlyra", "hdrf", StrategyKind::kHdrf, 1,
         EngineKind::kPowerLyraHybrid, App::kPageRank},
        {"2d-graphx", "2d", StrategyKind::kTwoD, 4, EngineKind::kGraphXPregel,
         App::kPageRank},
        {"2ps", "2ps", StrategyKind::kTwoPs, 1, EngineKind::kPowerGraphSync,
         App::kNone},
    };
    const graph::VertexId vertices = args.smoke ? 3000 : 300000;
    w.dataset = {"heavy-tailed", path, graph_seed, [vertices](uint64_t seed) {
                   return graph::GenerateHeavyTailed({.num_vertices = vertices,
                                                      .edges_per_vertex = 9,
                                                      .seed = seed});
                 }};
  } else {
    w.cells = {
        {"oblivious-powergraph", "oblivious", StrategyKind::kOblivious, 1,
         EngineKind::kPowerGraphSync, App::kSssp},
        {"oblivious-powerlyra", "oblivious", StrategyKind::kOblivious, 1,
         EngineKind::kPowerLyraHybrid, App::kSssp},
        {"random-graphx", "random", StrategyKind::kRandom, 4,
         EngineKind::kGraphXPregel, App::kSssp},
    };
    const uint32_t side = args.smoke ? 40 : 680;
    w.num_sources = args.smoke ? 2 : 4;
    w.dataset = {"road-lattice", path, graph_seed, [side](uint64_t seed) {
                   return graph::GenerateRoadNetwork(
                       {.width = side, .height = side, .seed = seed});
                 }};
  }
  return w;
}

/// `count` SSSP sources: of 4 * count seeded candidates among the vertices
/// of degree >= 2, the `count` of median breadth-first depth. An SSSP run
/// takes about depth supersteps, so taking the middle of the candidates keeps
/// a repetition's engine work nearly the same from seed to seed.
std::vector<graph::VertexId> PickSources(const graph::EdgeList& edges,
                                         uint32_t count, uint64_t seed) {
  std::vector<uint32_t> degree(edges.num_vertices(), 0);
  for (const graph::Edge& e : edges.edges()) {
    ++degree[e.src];
    ++degree[e.dst];
  }
  std::vector<graph::VertexId> candidates;
  uint64_t state = seed;
  while (candidates.size() < 4 * count) {
    state = util::Mix64(state);
    const auto v = static_cast<graph::VertexId>(state % degree.size());
    if (degree[v] >= 2 && std::find(candidates.begin(), candidates.end(),
                                    v) == candidates.end()) {
      candidates.push_back(v);
    }
  }
  std::vector<std::pair<uint32_t, graph::VertexId>> by_depth;
  for (graph::VertexId v : candidates) {
    uint32_t depth = 0;
    for (uint32_t d : apps::ReferenceSssp(edges, v, /*directed=*/false)) {
      if (d != apps::kInfiniteDistance) depth = std::max(depth, d);
    }
    by_depth.emplace_back(depth, v);
  }
  std::sort(by_depth.begin(), by_depth.end());
  std::vector<graph::VertexId> sources;
  for (uint32_t i = 0; i < count; ++i) {
    sources.push_back(by_depth[(by_depth.size() - count) / 2 + i].second);
  }
  return sources;
}

struct BatchRep {
  double wall_s = 0;
  double load_s = 0;
  uint64_t store_bytes = 0;
  std::vector<CellResult> cells;
};

/// One repetition: load the saved store, then every cell. Track
/// `track_base` carries the load span, track_base + 1 + i cell i.
BatchRep RunBatchRep(const BatchWorkload& w, uint64_t seed,
                     obs::ExecContext exec, uint64_t track_base,
                     bool keep_states, Checks& checks) {
  BatchRep rep;
  const Clock::time_point start = Clock::now();
  {
    graph::EdgeBlockStore store;
    {
      obs::ScopedSpan load_span(exec.trace, track_base, "bench load", "bench",
                                0.0);
      const Clock::time_point load_start = Clock::now();
      store = LoadStore(w.dataset.path, checks);
      rep.load_s = Since(load_start);
    }
    rep.store_bytes = store.ResidentBytes();
    for (size_t i = 0; i < w.cells.size(); ++i) {
      exec.trace_track = track_base + 1 + i;
      rep.cells.push_back(
          RunCell(w.cells[i], store, w.sources, seed, exec, keep_states));
    }
  }
  rep.wall_s = Since(start);
  return rep;
}

/// Every repetition must reproduce the reference repetition's answers and
/// simulated costs bit for bit.
void CheckRepAgainst(const BatchRep& rep, const BatchRep& reference,
                     const BatchWorkload& w, const std::string& what,
                     Checks& checks) {
  for (size_t i = 0; i < w.cells.size(); ++i) {
    const bool present = i < rep.cells.size() && i < reference.cells.size();
    checks.Expect(present && rep.cells[i].answer == reference.cells[i].answer,
                  what + " answers " + w.cells[i].name);
    checks.Expect(present && rep.cells[i].sim == reference.cells[i].sim,
                  what + " simulated costs " + w.cells[i].name);
  }
}

/// Answers against the serial reference implementations in apps/.
void CheckOracles(const BatchWorkload& w, const BatchRep& rep,
                  Checks& checks) {
  const graph::EdgeList edges = LoadStore(w.dataset.path, checks).Materialize();
  std::vector<double> ranks;
  std::vector<std::vector<uint32_t>> distances;
  for (size_t i = 0; i < w.cells.size() && i < rep.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const CellResult& result = rep.cells[i];
    if (cell.app == App::kPageRank) {
      if (ranks.empty()) ranks = apps::ReferencePageRank(edges, 0.85, 10);
      bool ok = result.ranks.size() == 1 &&
                result.ranks[0].size() == ranks.size();
      for (size_t v = 0; ok && v < ranks.size(); ++v) {
        ok = std::abs(result.ranks[0][v] - ranks[v]) <=
             1e-9 * std::max(1.0, std::abs(ranks[v]));
      }
      checks.Expect(ok, "PageRank matches the reference: " + cell.name);
    } else if (cell.app == App::kSssp) {
      if (distances.empty()) {
        for (graph::VertexId source : w.sources) {
          distances.push_back(
              apps::ReferenceSssp(edges, source, /*directed=*/false));
        }
      }
      checks.Expect(result.distances == distances,
                    "SSSP matches the reference: " + cell.name);
    }
  }
}

/// One cell of a non-default seed rerun through harness::RunExperiment (or
/// RunIngressOnly) on the same spec; simulated results must agree.
void CrossCheckHarness(const BatchWorkload& w, const BatchRep& rep,
                       uint64_t seed, uint32_t threads, Checks& checks) {
  const Cell& cell = w.cells[0];
  if (rep.cells.empty()) return;
  const CellResult& mine = rep.cells[0];
  const graph::EdgeList edges = LoadStore(w.dataset.path, checks).Materialize();
  harness::ExperimentSpec spec = SpecFor(cell, seed, threads);
  if (!w.sources.empty()) spec.sssp_source = w.sources[0];
  const harness::ExperimentResult r = cell.app == App::kNone
                                          ? harness::RunIngressOnly(edges, spec)
                                          : harness::RunExperiment(edges, spec);
  checks.Expect(r.replication_factor == mine.replication_factor &&
                    r.ingress.ingress_seconds == mine.ingress_sim_s &&
                    r.total_seconds == mine.total_sim_s &&
                    r.compute.iterations == mine.first_stats.iterations &&
                    r.compute.compute_seconds ==
                        mine.first_stats.compute_seconds &&
                    r.compute.network_bytes == mine.first_stats.network_bytes,
                "harness::RunExperiment agrees on " + cell.name);
}

/// Outside-timed layer samples of one repetition.
void RecordRep(const BatchWorkload& w, const BatchRep& rep, Ledger* ledger) {
  ledger->Add("graph.load_s", "s", rep.load_s);
  ledger->Add("graph.store_bytes", "bytes",
              static_cast<double>(rep.store_bytes));
  std::map<std::string, double> run_s;
  for (size_t i = 0; i < rep.cells.size(); ++i) {
    const Cell& cell = w.cells[i];
    const CellResult& r = rep.cells[i];
    const std::string p = "partition." + cell.strategy + ".";
    ledger->Add(p + "ingest_s", "s", r.ingest_s);
    ledger->Add(p + "ring_buffers", "count",
                static_cast<double>(r.memory.ring_buffers));
    ledger->Add(p + "peak_ledger_bytes", "bytes",
                static_cast<double>(r.memory.peak_ledger_bytes));
    if (cell.app == App::kNone) continue;
    ledger->Add("engine.plan_build_s." + cell.name, "s", r.plan_s);
    ledger->Add("engine.plan_bytes." + cell.name, "bytes",
                static_cast<double>(r.plan_bytes));
    const std::string e = "engine." + EngineAppKey(cell) + ".";
    ledger->Add(e + "run_s", "s", r.run_s);
    ledger->Add(e + "supersteps", "count", static_cast<double>(r.supersteps));
    ledger->Add(e + "sim_compute_s", "s", r.sim_compute_s);
    ledger->Add(e + "sim_network_bytes", "bytes",
                static_cast<double>(r.sim_network_bytes));
  }
}

/// Share of the repetition spent inside the timed layer calls, and the two
/// workload-split shares the README records.
void PrintRepSplit(const BatchRep& rep, const std::string& label) {
  double ingest_plan = 0;
  double run = 0;
  uint64_t supersteps = 0;
  for (const CellResult& r : rep.cells) {
    ingest_plan += r.ingest_s + r.plan_s;
    run += r.run_s;
    supersteps += r.supersteps;
  }
  std::printf(
      "split %-9s rep %.3f s: layers %.1f%%  ingest+plan %.1f%%  engine "
      "%.1f%% (%llu supersteps)\n",
      label.c_str(), rep.wall_s,
      100.0 * (rep.load_s + ingest_plan + run) / rep.wall_s,
      100.0 * ingest_plan / rep.wall_s, 100.0 * run / rep.wall_s,
      static_cast<unsigned long long>(supersteps));
}

struct RunOutput {
  Checks checks;
  Ledger end_to_end;  ///< reported with --trace 0
  Ledger layers;      ///< reported with --trace 1
};

/// The end-to-end samples. Callers read `peak_rss_mb` right after the
/// measurement window: the second round of setups and the answer checks
/// would otherwise set it.
void RecordEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& rep_s, double peak_rss_mb,
                    Ledger* ledger) {
  for (double s : setup_s) ledger->Add("setup_s", "s", s);
  for (double s : rep_s) ledger->Add("rep_s", "s", s);
  ledger->Add("peak_rss_mb", "MB", peak_rss_mb);
}

/// Layer spans of the traced repetitions: ingress passes, finalize and
/// engine supersteps, keyed back to cells through their tracks.
void RecordSpans(const BatchWorkload& w, const obs::TraceRecorder& recorder,
                 uint64_t tracks_per_rep, Ledger* ledger,
                 std::map<std::string, std::vector<double>>* superstep_ms) {
  for (const obs::TraceSpan& span : recorder.Snapshot()) {
    const uint64_t slot = span.track % tracks_per_rep;
    if (slot == 0 || slot > w.cells.size()) continue;
    const Cell& cell = w.cells[slot - 1];
    const double seconds = span.wall_dur_us * 1e-6;
    const std::string p = "partition." + cell.strategy + ".";
    if (span.category == "ingress" && span.name == "pass 0") {
      ledger->Add(p + "pass0_s", "s", seconds);
    } else if (span.category == "ingress" && span.name == "pass 1") {
      ledger->Add(p + "pass1_s", "s", seconds);
    } else if (span.category == "ingress" && span.name == "finalize") {
      ledger->Add(p + "finalize_s", "s", seconds);
    } else if (span.category == "engine" &&
               span.name.rfind("superstep ", 0) == 0) {
      (*superstep_ms)[EngineAppKey(cell)].push_back(span.wall_dur_us * 1e-3);
    }
  }
}

/// Writes the recorder as Chrome trace JSON after validating it.
void WriteChromeTrace(const Args& args, const obs::TraceRecorder& recorder,
                      Checks& checks) {
  const std::string json = obs::ToChromeTraceJson(recorder);
  checks.ExpectOk(obs::ValidateChromeTraceJson(json), "chrome trace");
  const std::string path = args.results_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json";
  std::ofstream out(path);
  out << json;
  checks.Expect(out.good(), "write " + path);
  std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
              recorder.size());
}

void RunBatch(const Args& args, RunOutput* output) {
  Checks& checks = output->checks;
  BatchWorkload w = MakeBatchWorkload(args);
  const double setup_window = std::min(kSetupSeconds, args.seconds);
  std::vector<double> setup;
  TimeSetups({w.dataset}, setup_window, checks, &setup);
  {
    const std::vector<graph::EdgeList> lists =
        SetUp({w.dataset}, /*reference=*/false, checks);
    if (w.num_sources > 0) {
      w.sources = PickSources(lists[0], w.num_sources,
                              util::Mix64(args.seed ^ 0x550e));
    }
  }

  obs::ExecContext plain;
  plain.num_threads = args.threads;
  // Warm-up repetition: untimed; its answers are the run's reference.
  const BatchRep reference =
      RunBatchRep(w, args.seed, plain, 0, /*keep_states=*/true, checks);

  std::vector<double> rep_s;
  std::vector<double> traced_rep_s;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  const uint64_t tracks_per_rep = 16;
  const Clock::time_point window = Clock::now();
  int reps = 0;
  while (reps < kMinReps || Since(window) < args.seconds) {
    BatchRep rep = RunBatchRep(w, args.seed, plain, 0, false, checks);
    CheckRepAgainst(rep, reference, w, "untraced rep", checks);
    rep_s.push_back(rep.wall_s);
    RecordRep(w, rep, &output->layers);
    PrintRepSplit(rep, "untraced");
    if (args.trace) {
      obs::ExecContext traced = plain;
      traced.trace = &recorder;
      traced.metrics = &registry;
      const uint64_t base = tracks_per_rep * static_cast<uint64_t>(reps + 1);
      BatchRep traced_rep =
          RunBatchRep(w, args.seed, traced, base, false, checks);
      CheckRepAgainst(traced_rep, reference, w, "traced rep", checks);
      traced_rep_s.push_back(traced_rep.wall_s);
      PrintRepSplit(traced_rep, "traced");
    }
    ++reps;
  }
  const double peak_rss_mb = PeakRssMb();
  TimeSetups({w.dataset}, setup_window, checks, &setup);
  RecordEndToEnd(setup, rep_s, peak_rss_mb, &output->end_to_end);

  std::vector<std::pair<std::string, uint64_t>> answers;
  for (size_t i = 0; i < w.cells.size() && i < reference.cells.size(); ++i) {
    answers.emplace_back(w.cells[i].name, reference.cells[i].answer);
  }
  CheckDigests(args, answers, checks);
  CheckOracles(w, reference, checks);
  if (args.seed != kDefaultSeed) {
    CrossCheckHarness(w, reference, args.seed, args.threads, checks);
  }
  if (!args.trace) return;

  // The 1-thread pass behind every *.scaling_x.
  obs::ExecContext serial = plain;
  serial.num_threads = 1;
  const BatchRep single = RunBatchRep(w, args.seed, serial, 0, false, checks);
  CheckRepAgainst(single, reference, w, "1-thread rep", checks);
  Ledger single_ledger;
  RecordRep(w, single, &single_ledger);

  Ledger& layers = output->layers;
  std::map<std::string, std::vector<double>> superstep_ms;
  RecordSpans(w, recorder, tracks_per_rep, &layers, &superstep_ms);
  uint64_t supersteps_counted = 0;
  for (const obs::MetricsRegistry::Sample& sample : registry.Snapshot()) {
    if (sample.name == "engine.supersteps") {
      supersteps_counted = static_cast<uint64_t>(sample.value);
    }
  }
  uint64_t supersteps_expected = 0;
  for (const CellResult& r : reference.cells) {
    supersteps_expected += r.supersteps * static_cast<uint64_t>(reps);
  }
  checks.Expect(supersteps_counted == supersteps_expected,
                "engine.supersteps counter matches the engine runs");
  for (const auto& [key, samples] : superstep_ms) {
    layers.Add("engine." + key + ".superstep_p50_ms", "ms",
               util::Percentile(samples, 50));
    layers.Add("engine." + key + ".superstep_p90_ms", "ms",
               util::Percentile(samples, 90));
  }
  std::set<std::string> scaled;
  for (const Cell& cell : w.cells) {
    const std::string p = "partition." + cell.strategy + ".";
    if (scaled.insert(p).second) {
      layers.Add(p + "scaling_x", "x",
                 single_ledger.MedianOf(p + "ingest_s") /
                     layers.MedianOf(p + "ingest_s"));
    }
    if (cell.app == App::kNone) continue;
    const std::string e = "engine." + EngineAppKey(cell) + ".";
    layers.Add(e + "scaling_x", "x",
               single_ledger.MedianOf(e + "run_s") /
                   layers.MedianOf(e + "run_s"));
  }
  layers.Add("obs.trace_overhead_x", "x",
             Median(traced_rep_s) / Median(rep_s));
  WriteChromeTrace(args, recorder, checks);
}

// ---------------------------------------------------------------------------
// serving-mix: a QueryServer over a 3-graph fleet, cold then warm Serve.
// ---------------------------------------------------------------------------

struct ServingWorkload {
  std::vector<Dataset> datasets;
  std::vector<partition::StrategyKind> strategies;
  std::vector<serving::Request> trace;
};

ServingWorkload MakeServingWorkload(const Args& args) {
  ServingWorkload w;
  const double scale = args.smoke ? 0.05 : 1.0;
  auto v = [scale](uint32_t n) {
    return static_cast<uint32_t>(n * scale) + 16;
  };
  const uint64_t s = util::Mix64(args.seed ^ 0x5e41);
  const std::string dir = args.scratch_dir + "/";
  w.datasets = {
      {"LiveJournal", dir + "livejournal.blks", s + 1,
       [=](uint64_t seed) {
         return graph::GenerateHeavyTailed(
             {.num_vertices = v(30000), .edges_per_vertex = 9, .seed = seed});
       }},
      {"road-USA", dir + "road-usa.blks", s + 2,
       [=](uint64_t seed) {
         return graph::GenerateRoadNetwork(
             {.width = v(260), .height = v(260), .seed = seed});
       }},
      {"Enwiki", dir + "enwiki.blks", s + 3,
       [=](uint64_t seed) {
         return graph::GenerateHeavyTailed({.num_vertices = v(22000),
                                            .edges_per_vertex = 12,
                                            .reciprocal_fraction = 0.15,
                                            .seed = seed});
       }},
  };
  w.strategies = {partition::StrategyKind::kHdrf,
                  partition::StrategyKind::kOblivious,
                  partition::StrategyKind::kHdrf};
  return w;
}

/// GenerateArrivalTrace's seeded arrivals, tenants, k and top-n, with each
/// request's (graph, kind) taken from a fixed cycle that is exactly the
/// default mix (4 SSSP : 2 BFS : 1 PageRank : 1 k-core) on every graph, and
/// its source and target redrawn in that graph. A seed then changes where
/// queries start and when they arrive, not how much work of each kind a
/// run does, which keeps serving-mix steady across seeds.
std::vector<serving::Request> MakeTrace(uint32_t num_requests, uint64_t seed,
                                        const std::vector<uint32_t>& sizes) {
  using serving::QueryKind;
  static constexpr QueryKind kMix[8] = {
      QueryKind::kSsspDistance, QueryKind::kSsspDistance,
      QueryKind::kSsspDistance, QueryKind::kSsspDistance,
      QueryKind::kBfsReachable, QueryKind::kBfsReachable,
      QueryKind::kPageRankTopN, QueryKind::kKCoreMember};
  serving::TraceOptions options;
  options.num_requests = num_requests;
  options.num_tenants = 8;
  options.seed = seed;
  std::vector<serving::Request> trace =
      serving::GenerateArrivalTrace(options, sizes);
  uint64_t state = seed;
  for (serving::Request& q : trace) {
    q.kind = kMix[q.id % 8];
    q.graph = (q.id / 8) % static_cast<uint32_t>(sizes.size());
    state = util::Mix64(state);
    q.source = static_cast<graph::VertexId>(state % sizes[q.graph]);
    state = util::Mix64(state);
    q.target = static_cast<graph::VertexId>(state % sizes[q.graph]);
  }
  return trace;
}

serving::ServerOptions ServingOptions(uint32_t threads, size_t requests) {
  serving::ServerOptions options;
  options.num_threads = threads;
  // Sized so that no request is ever rejected; caches stay unbounded.
  options.queue_capacity = static_cast<uint32_t>(requests);
  return options;
}

struct ServeRep {
  double wall_s = 0;
  double load_s = 0;
  uint64_t store_bytes = 0;
  double cold_s = 0;
  double warm_s = 0;
  serving::ServeResult cold;
  serving::ServeResult warm;
  uint64_t batched_queries = 0;
  obs::CacheStats partition_cache;
  obs::CacheStats plan_cache;
  uint64_t answer = 0;
  uint64_t sim = 0;
  std::vector<graph::EdgeList> graphs;  ///< kept on request for the oracle
};

uint64_t AnswerDigest(const std::vector<serving::Response>& responses) {
  Fnv fnv;
  for (const serving::Response& r : responses) {
    fnv.Add(r.rejected);
    fnv.Add(r.reachable);
    fnv.Add(r.in_core);
    fnv.Add(r.distance);
    fnv.AddVector(r.top_vertices);
  }
  return fnv.value();
}

uint64_t SimDigest(const serving::ServeResult& result) {
  Fnv fnv;
  for (const serving::Response& r : result.responses) fnv.Add(r.latency_us);
  fnv.Add(result.admitted);
  fnv.Add(result.rejected);
  fnv.Add(result.batches);
  fnv.Add(result.makespan_us);
  return fnv.value();
}

std::vector<serving::GraphConfig> Fleet(
    const ServingWorkload& w, const std::vector<graph::EdgeList>& graphs,
    uint64_t seed, uint32_t threads) {
  std::vector<serving::GraphConfig> fleet;
  for (size_t i = 0; i < graphs.size(); ++i) {
    serving::GraphConfig config;
    config.edges = &graphs[i];
    config.spec.strategy = w.strategies[i];
    config.spec.num_machines = kMachines;
    config.spec.seed = seed;
    config.spec.exec.num_threads = threads;
    fleet.push_back(config);
  }
  return fleet;
}

/// One repetition: load the fleet, build a fresh server, cold Serve (the
/// caches fill), warm Serve of the same trace (cache hits).
ServeRep RunServeRep(const ServingWorkload& w, uint64_t seed,
                     uint32_t threads, obs::TraceRecorder* recorder,
                     uint64_t track, bool keep_graphs, Checks& checks) {
  ServeRep rep;
  const Clock::time_point start = Clock::now();
  {
    std::vector<graph::EdgeList> graphs;
    {
      obs::ScopedSpan span(recorder, track, "bench load", "bench", 0.0);
      const Clock::time_point load_start = Clock::now();
      for (const Dataset& dataset : w.datasets) {
        const graph::EdgeBlockStore store = LoadStore(dataset.path, checks);
        rep.store_bytes += store.ResidentBytes();
        graphs.push_back(store.Materialize());
      }
      rep.load_s = Since(load_start);
    }
    const std::vector<serving::GraphConfig> fleet =
        Fleet(w, graphs, seed, threads);
    serving::QueryServer server(fleet,
                                ServingOptions(threads, w.trace.size()));
    {
      obs::ScopedSpan span(recorder, track, "bench serve cold", "bench", 0.0);
      const Clock::time_point t = Clock::now();
      rep.cold = server.Serve(w.trace);
      rep.cold_s = Since(t);
    }
    // Cache lookups of the cold Serve (the warm one only hits); the plan
    // caches hang off the fleet's partition-cache entries.
    rep.partition_cache = server.partition_cache().stats();
    for (const serving::GraphConfig& config : fleet) {
      const obs::CacheStats stats =
          server.partition_cache().Get(*config.edges, config.spec)
              ->plans->stats();
      rep.plan_cache.hits += stats.hits;
      rep.plan_cache.misses += stats.misses;
    }
    {
      obs::ScopedSpan span(recorder, track, "bench serve warm", "bench", 0.0);
      const Clock::time_point t = Clock::now();
      rep.warm = server.Serve(w.trace);
      rep.warm_s = Since(t);
    }
    for (const obs::MetricsRegistry::Sample& sample :
         server.registry().Snapshot()) {
      if (sample.name == "serving.batched_queries") {
        rep.batched_queries = static_cast<uint64_t>(sample.value);
      }
    }
    rep.answer = AnswerDigest(rep.cold.responses);
    rep.sim = SimDigest(rep.cold);
    // Every request admitted and answered; the warm (cache-hit) path must
    // give the cold path's answers and simulated costs.
    for (size_t i = 0; i < w.trace.size(); ++i) {
      checks.Expect(!rep.cold.responses[i].rejected &&
                        !rep.warm.responses[i].rejected,
                    "request " + std::to_string(i) + " admitted");
      checks.Expect(rep.warm.responses[i] == rep.cold.responses[i],
                    "warm answer " + std::to_string(i) + " equals cold");
    }
    checks.Expect(SimDigest(rep.warm) == rep.sim,
                  "warm simulated costs equal cold");
    if (keep_graphs) rep.graphs = std::move(graphs);
  }
  rep.wall_s = Since(start);
  return rep;
}

/// Top-n of reference ranks with the server's tie rule.
std::vector<graph::VertexId> ReferenceTopN(const std::vector<double>& ranks,
                                           uint32_t n) {
  std::vector<graph::VertexId> order(ranks.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<graph::VertexId>(i);
  }
  n = std::min<uint32_t>(n, static_cast<uint32_t>(order.size()));
  std::partial_sort(order.begin(), order.begin() + n, order.end(),
                    [&ranks](graph::VertexId a, graph::VertexId b) {
                      return ranks[a] != ranks[b] ? ranks[a] > ranks[b]
                                                  : a < b;
                    });
  order.resize(n);
  return order;
}

/// Every served answer against the serial reference implementations.
void CheckServingOracles(const ServingWorkload& w, const ServeRep& rep,
                         Checks& checks) {
  std::map<std::pair<uint32_t, graph::VertexId>, std::vector<uint32_t>> bfs;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<bool>> cores;
  std::map<uint32_t, std::vector<double>> ranks;
  for (const serving::Request& q : w.trace) {
    const serving::Response& r = rep.cold.responses[q.id];
    const graph::EdgeList& edges = rep.graphs[q.graph];
    const std::string what = "request " + std::to_string(q.id) + " (" +
                             serving::QueryKindName(q.kind) + ") answer";
    switch (q.kind) {
      case serving::QueryKind::kSsspDistance:
      case serving::QueryKind::kBfsReachable: {
        auto it = bfs.find({q.graph, q.source});
        if (it == bfs.end()) {
          it = bfs.emplace(std::make_pair(q.graph, q.source),
                           apps::ReferenceSssp(edges, q.source,
                                               /*directed=*/false))
                   .first;
        }
        const uint32_t d = it->second[q.target];
        checks.Expect(q.kind == serving::QueryKind::kSsspDistance
                          ? r.distance == d
                          : r.reachable == (d != apps::kInfiniteDistance),
                      what);
        break;
      }
      case serving::QueryKind::kKCoreMember: {
        auto it = cores.find({q.graph, q.k});
        if (it == cores.end()) {
          it = cores.emplace(std::make_pair(q.graph, q.k),
                             apps::ReferenceKCore(edges, q.k))
                   .first;
        }
        checks.Expect(r.in_core == it->second[q.source], what);
        break;
      }
      case serving::QueryKind::kPageRankTopN: {
        auto it = ranks.find(q.graph);
        if (it == ranks.end()) {
          it = ranks.emplace(q.graph, apps::ReferencePageRank(edges, 0.85, 10))
                   .first;
        }
        // Same rank values as the reference top-n, position by position.
        const std::vector<double>& pr = it->second;
        const std::vector<graph::VertexId> top = ReferenceTopN(pr, q.top_n);
        bool ok = r.top_vertices.size() == top.size();
        for (size_t i = 0; ok && i < top.size(); ++i) {
          ok = std::abs(pr[r.top_vertices[i]] - pr[top[i]]) <=
               1e-9 * std::max(1.0, std::abs(pr[top[i]]));
        }
        checks.Expect(ok, what);
        break;
      }
    }
  }
}

/// Non-default seeds: one fleet graph re-ingested through
/// harness::RunIngressOnly must match the server's cached ingress.
void CrossCheckServing(const ServingWorkload& w, const ServeRep& rep,
                       uint64_t seed, uint32_t threads, Checks& checks) {
  const std::vector<serving::GraphConfig> fleet =
      Fleet(w, rep.graphs, seed, threads);
  harness::PartitionCache cache;
  const auto entry = cache.Get(*fleet[0].edges, fleet[0].spec);
  const harness::ExperimentResult r =
      harness::RunIngressOnly(*fleet[0].edges, fleet[0].spec);
  checks.Expect(
      r.replication_factor == entry->ingest.report.replication_factor &&
          r.ingress.ingress_seconds == entry->ingest.report.ingress_seconds &&
          r.total_seconds == entry->post_ingress.now_seconds,
      "harness::RunIngressOnly agrees with the serving cache");
}

void RunServing(const Args& args, RunOutput* output) {
  Checks& checks = output->checks;
  ServingWorkload w = MakeServingWorkload(args);
  const double setup_window = std::min(kSetupSeconds, args.seconds);
  std::vector<double> setup;
  TimeSetups(w.datasets, setup_window, checks, &setup);
  {
    std::vector<uint32_t> sizes;
    for (const graph::EdgeList& edges :
         SetUp(w.datasets, /*reference=*/false, checks)) {
      sizes.push_back(static_cast<uint32_t>(edges.num_vertices()));
    }
    w.trace = MakeTrace(args.smoke ? 48 : 256,
                        util::Mix64(args.seed ^ 0x7ace), sizes);
  }

  const ServeRep reference = RunServeRep(w, args.seed, args.threads, nullptr,
                                         0, /*keep_graphs=*/true, checks);

  Ledger& layers = output->layers;
  std::vector<double> rep_s;
  std::vector<double> traced_rep_s;
  obs::TraceRecorder recorder;
  const Clock::time_point window = Clock::now();
  int reps = 0;
  auto check = [&](const ServeRep& rep, const std::string& what) {
    checks.Expect(rep.answer == reference.answer, what + " answers");
    checks.Expect(rep.sim == reference.sim, what + " simulated costs");
  };
  while (reps < kMinReps || Since(window) < args.seconds) {
    const ServeRep rep =
        RunServeRep(w, args.seed, args.threads, nullptr, 0, false, checks);
    check(rep, "untraced rep");
    rep_s.push_back(rep.wall_s);
    layers.Add("graph.load_s", "s", rep.load_s);
    layers.Add("graph.store_bytes", "bytes",
               static_cast<double>(rep.store_bytes));
    layers.Add("serve_cold_s", "s", rep.cold_s);
    layers.Add("serve_warm_qps", "1/s",
               static_cast<double>(rep.warm.admitted) / rep.warm_s);
    std::printf("rep %.3f s: load %.3f s  cold %.3f s  warm %.3f s\n",
                rep.wall_s, rep.load_s, rep.cold_s, rep.warm_s);
    if (args.trace) {
      const ServeRep traced = RunServeRep(w, args.seed, args.threads,
                                          &recorder, 1 + reps, false, checks);
      check(traced, "traced rep");
      traced_rep_s.push_back(traced.wall_s);
    }
    ++reps;
  }
  const double peak_rss_mb = PeakRssMb();
  TimeSetups(w.datasets, setup_window, checks, &setup);
  RecordEndToEnd(setup, rep_s, peak_rss_mb, &output->end_to_end);

  CheckDigests(args, {{"responses", reference.answer}}, checks);
  CheckServingOracles(w, reference, checks);
  if (args.seed != kDefaultSeed) {
    CrossCheckServing(w, reference, args.seed, args.threads, checks);
  }
  if (!args.trace) return;

  // Simulated costs must not depend on the host thread count.
  const ServeRep single =
      RunServeRep(w, args.seed, 1, nullptr, 0, false, checks);
  check(single, "1-thread rep");

  const serving::ServeResult& cold = reference.cold;
  std::vector<double> latencies;
  for (const serving::Response& r : cold.responses) {
    latencies.push_back(static_cast<double>(r.latency_us));
  }
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const obs::CacheStats& pc = reference.partition_cache;
  const obs::CacheStats& plans = reference.plan_cache;
  layers.Add("serving.batches", "count", static_cast<double>(cold.batches));
  layers.Add("serving.batch_fill", "fraction",
             ratio(reference.batched_queries,
                   cold.batches + reference.warm.batches));
  layers.Add("serving.partition_cache.hit_ratio", "fraction",
             ratio(pc.hits, pc.hits + pc.misses));
  layers.Add("serving.plan_cache.hit_ratio", "fraction",
             ratio(plans.hits, plans.hits + plans.misses));
  layers.Add("serving.admitted", "count", static_cast<double>(cold.admitted));
  layers.Add("serving.rejected", "count", static_cast<double>(cold.rejected));
  layers.Add("serving.sim_latency_p50_us", "us",
             util::Percentile(latencies, 50));
  layers.Add("serving.sim_latency_p99_us", "us",
             util::Percentile(latencies, 99));
  layers.Add("serving.sim_requests_per_s", "1/s", cold.RequestsPerSecond());
  layers.Add("obs.trace_overhead_x", "x",
             Median(traced_rep_s) / Median(rep_s));
  WriteChromeTrace(args, recorder, checks);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// Median and quartiles per metric, with the sample count.
void PrintTable(const Ledger& ledger) {
  std::printf("\n%-44s %-9s %5s %14s %14s %14s\n", "metric", "unit", "n",
              "q1", "median", "q3");
  for (const auto& [name, series] : ledger.series()) {
    const util::BoxStats box = util::ComputeBoxStats(series.values);
    std::printf("%-44s %-9s %5zu %14.6g %14.6g %14.6g\n", name.c_str(),
                series.unit.c_str(), series.values.size(), box.p25,
                box.median, box.p75);
  }
}

void PrintResult(const Args& args, RunOutput& output) {
  Checks& checks = output.checks;
  output.layers.Add("threads", "count", args.threads);
  output.layers.Add("error_rate", "fraction",
                    checks.attempted() == 0
                        ? 1.0
                        : static_cast<double>(checks.failed()) /
                              static_cast<double>(checks.attempted()));
  const Ledger& reported = args.trace ? output.layers : output.end_to_end;
  PrintTable(reported);
  std::printf("threads %u, checks %llu, failed %llu\n", args.threads,
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  std::string json = "{\"correct\": ";
  json += checks.failed() == 0 && checks.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(
                                    checks.attempted(), 1));
  json += ", \"failed\": " + std::to_string(checks.failed());
  json += ", \"metrics\": {";
  for (const auto& [name, series] : reported.series()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", Median(series.values));
    json += (json.back() == '{' ? "\"" : ", \"") + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + series.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "heavy-pagerank" && args.workload != "road-sssp" &&
       args.workload != "serving-mix")) {
    std::fprintf(stderr,
                 "usage: perfbench_pipeline --workload "
                 "heavy-pagerank|road-sssp|serving-mix --seed N --seconds S "
                 "--trace 0|1 --threads T --scale full|smoke --scratch DIR "
                 "--results DIR --digests FILE\n");
    return 2;
  }
  std::printf("workload %s, seed %llu, scale %s, trace %d, threads %u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.smoke ? "smoke" : "full", args.trace ? 1 : 0, args.threads);
  RunOutput output;
  if (args.workload == "serving-mix") {
    RunServing(args, &output);
  } else {
    RunBatch(args, &output);
  }
  PrintResult(args, output);
  return output.checks.failed() == 0 ? 0 : 1;
}
