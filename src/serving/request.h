#ifndef GDP_SERVING_REQUEST_H_
#define GDP_SERVING_REQUEST_H_

#include <cstdint>
#include <vector>

#include "apps/sssp.h"
#include "graph/types.h"

namespace gdp::serving {

/// The app queries the serving layer answers against a pre-partitioned
/// graph (ROADMAP: "millions of users issuing app queries"). Distance and
/// reachability queries are the batchable ones — a dispatch window's worth
/// coalesces into one multi-source engine run (apps/mssssp.h, apps/msbfs.h).
enum class QueryKind : uint8_t {
  kSsspDistance,   ///< unit-weight distance source -> target
  kBfsReachable,   ///< is target reachable from source?
  kPageRankTopN,   ///< the top_n highest-ranked vertices
  kKCoreMember,    ///< is `source` in the k-core?
};

const char* QueryKindName(QueryKind kind);

/// One tenant query from the arrival trace. All times are *simulated*
/// microseconds — the serving layer's clocks never read the host's, so
/// every latency and throughput figure is bit-identical across host
/// thread counts (the repo's determinism contract).
struct Request {
  uint32_t id = 0;      ///< index into the trace (and the response array)
  uint32_t tenant = 0;  ///< tenant issuing the query, [0, num_tenants)
  uint32_t graph = 0;   ///< index into the server's graph fleet
  QueryKind kind = QueryKind::kSsspDistance;
  graph::VertexId source = 0;  ///< SSSP/BFS source; k-core member vertex
  graph::VertexId target = 0;  ///< SSSP/BFS target
  uint32_t k = 0;              ///< k-core k
  uint32_t top_n = 0;          ///< PageRank result size
  uint64_t arrival_us = 0;     ///< simulated arrival time
};

/// The server's answer. `latency_us` is scheduling-dependent (queueing +
/// simulated execution); everything else is a pure function of (graph,
/// query), which is what SameAnswer compares when asserting the batched
/// and unbatched paths agree.
struct Response {
  bool rejected = false;   ///< dropped by admission control
  bool invalid = false;    ///< bad graph index or vertex id; not served
  bool reachable = false;  ///< kBfsReachable
  bool in_core = false;    ///< kKCoreMember
  uint32_t distance = apps::kInfiniteDistance;        ///< kSsspDistance
  std::vector<graph::VertexId> top_vertices;          ///< kPageRankTopN
  uint64_t latency_us = 0;  ///< completion - arrival; 0 when not served

  friend bool operator==(const Response&, const Response&) = default;
};

/// True when the two responses carry the same query answer (admission and
/// validation verdicts included), ignoring the scheduling-dependent latency.
bool SameAnswer(const Response& a, const Response& b);

/// Knobs of the deterministic-by-seed arrival-trace generator.
struct TraceOptions {
  uint32_t num_requests = 256;
  uint32_t num_tenants = 4;
  uint64_t seed = 42;
  /// Mean simulated inter-arrival gap; arrivals step by a uniform integer
  /// in [1, 2*mean] so the trace needs no float accumulation.
  uint64_t mean_interarrival_us = 20000;
  /// Query-kind mix, in per-mille of (distance, reachable, top-N); the
  /// remainder is k-core membership.
  uint32_t sssp_permille = 500;
  uint32_t bfs_permille = 250;
  uint32_t pagerank_permille = 125;
  uint32_t kcore_kmin = 2;  ///< k drawn uniformly in [kcore_kmin, kcore_kmax]
  uint32_t kcore_kmax = 4;
  uint32_t max_top_n = 8;
};

/// Generates `options.num_requests` queries with non-decreasing simulated
/// arrival times, spread over `graph_num_vertices.size()` fleet graphs
/// (sources/targets drawn within each graph's vertex range). Same seed,
/// same trace — bit-for-bit.
std::vector<Request> GenerateArrivalTrace(
    const TraceOptions& options,
    const std::vector<uint32_t>& graph_num_vertices);

}  // namespace gdp::serving

#endif  // GDP_SERVING_REQUEST_H_
