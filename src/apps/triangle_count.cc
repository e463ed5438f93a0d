#include "apps/triangle_count.h"

#include "engine/gas_engine.h"

namespace gdp::apps {

namespace {

/// Phase 2: per-edge intersection of the phase-1 neighbor lists. The app
/// carries a pointer to the phase-1 states so the gather can intersect the
/// center's list (by id) with the neighbor's.
struct IntersectApp {
  using State = uint64_t;  // 2x triangles through the vertex
  using Gather = uint64_t;
  static constexpr engine::EdgeDirection kGatherDir =
      engine::EdgeDirection::kBoth;
  static constexpr engine::EdgeDirection kScatterDir =
      engine::EdgeDirection::kNone;
  static constexpr bool kBootstrapScatter = false;

  const std::vector<NeighborListApp::VertexState>* lists = nullptr;

  State InitState(graph::VertexId, const engine::AppContext&) const {
    return 0;
  }
  bool InitiallyActive(graph::VertexId) const { return true; }
  Gather GatherInit() const { return 0; }

  /// The per-edge gather only carries cost accounting (list exchange); the
  /// intersection itself runs once per vertex in Apply, over the phase-1
  /// lists, so the count is independent of whether the input stores an
  /// undirected pair once or in both directions.
  void GatherEdge(graph::VertexId, graph::VertexId, const State&,
                  const engine::AppContext&, Gather* acc) const {
    *acc += 0;
  }

  bool Apply(graph::VertexId v, const Gather&, bool,
             const engine::AppContext&, State* state) const {
    const auto& mine = (*lists)[v].neighbors;
    uint64_t total = 0;
    for (graph::VertexId u : mine) {
      const auto& theirs = (*lists)[u].neighbors;
      size_t i = 0, j = 0;
      while (i < mine.size() && j < theirs.size()) {
        if (mine[i] < theirs[j]) {
          ++i;
        } else if (mine[i] > theirs[j]) {
          ++j;
        } else {
          if (mine[i] != v && mine[i] != u) ++total;
          ++i;
          ++j;
        }
      }
    }
    *state = total;
    return false;
  }
};

}  // namespace

TriangleCountResult CountTriangles(engine::EngineKind kind,
                                   const partition::DistributedGraph& dg,
                                   sim::Cluster& cluster,
                                   const engine::RunOptions& options) {
  const engine::ExecutionPlan plan = engine::ExecutionPlan::Build(
      dg, NeighborListApp::kGatherDir, NeighborListApp::kScatterDir,
      kind == engine::EngineKind::kGraphXPregel,
      options.exec.num_threads);
  return CountTriangles(kind, plan, cluster, options);
}

TriangleCountResult CountTriangles(engine::EngineKind kind,
                                   const engine::ExecutionPlan& plan,
                                   sim::Cluster& cluster,
                                   const engine::RunOptions& options) {
  const partition::DistributedGraph& dg = *plan.dg;
  engine::RunOptions phase_options = options;
  phase_options.max_iterations = 1;

  auto phase1 = engine::RunGasEngine(kind, plan, cluster, NeighborListApp{},
                                     phase_options);
  IntersectApp phase2_app;
  phase2_app.lists = &phase1.states;
  auto phase2 =
      engine::RunGasEngine(kind, plan, cluster, phase2_app, phase_options);

  TriangleCountResult result;
  result.per_vertex.assign(dg.num_vertices, 0);
  uint64_t endpoint_sum = 0;
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    // Each triangle through v is found once per incident triangle edge
    // (2 edges) per direction scanned; the undirected dedup in phase 1
    // leaves each common neighbor counted twice per vertex.
    result.per_vertex[v] = phase2.states[v] / 2;
    endpoint_sum += result.per_vertex[v];
  }
  result.total_triangles = endpoint_sum / 3;
  result.stats = phase1.stats;
  result.stats.iterations += phase2.stats.iterations;
  result.stats.compute_seconds += phase2.stats.compute_seconds;
  result.stats.network_bytes += phase2.stats.network_bytes;
  result.stats.mean_inbound_bytes_per_machine +=
      phase2.stats.mean_inbound_bytes_per_machine;
  return result;
}

uint64_t ReferenceTriangleCount(const graph::EdgeList& edges) {
  const graph::VertexId n = edges.num_vertices();
  // Sorted, deduplicated undirected adjacency.
  std::vector<std::vector<graph::VertexId>> adj(n);
  for (const graph::Edge& e : edges.edges()) {
    if (e.src == e.dst) continue;
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // Count each triangle at its lowest vertex: for u < v adjacent, count
  // common neighbors w > v.
  uint64_t triangles = 0;
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId v : adj[u]) {
      if (v <= u) continue;
      size_t i = 0, j = 0;
      const auto& a = adj[u];
      const auto& b = adj[v];
      while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
          ++i;
        } else if (a[i] > b[j]) {
          ++j;
        } else {
          if (a[i] > v) ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

}  // namespace gdp::apps
