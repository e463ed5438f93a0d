#include "serving/request.h"

#include "util/check.h"
#include "util/random.h"

namespace gdp::serving {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSsspDistance:
      return "sssp";
    case QueryKind::kBfsReachable:
      return "bfs";
    case QueryKind::kPageRankTopN:
      return "pagerank";
    case QueryKind::kKCoreMember:
      return "kcore";
  }
  return "?";
}

bool SameAnswer(const Response& a, const Response& b) {
  return a.rejected == b.rejected && a.invalid == b.invalid &&
         a.reachable == b.reachable && a.in_core == b.in_core &&
         a.distance == b.distance && a.top_vertices == b.top_vertices;
}

std::vector<Request> GenerateArrivalTrace(
    const TraceOptions& options,
    const std::vector<uint32_t>& graph_num_vertices) {
  GDP_CHECK_GT(options.num_tenants, 0u);
  GDP_CHECK_GT(options.mean_interarrival_us, 0u);
  GDP_CHECK_LE(options.sssp_permille + options.bfs_permille +
                   options.pagerank_permille,
               1000u);
  GDP_CHECK(!graph_num_vertices.empty());
  GDP_CHECK_LE(options.kcore_kmin, options.kcore_kmax);
  GDP_CHECK_GT(options.kcore_kmin, 0u);

  util::SplitMix64 rng(options.seed);
  std::vector<Request> trace;
  trace.reserve(options.num_requests);
  uint64_t now_us = 0;
  for (uint32_t i = 0; i < options.num_requests; ++i) {
    now_us += 1 + rng.NextBounded(2 * options.mean_interarrival_us);
    Request request;
    request.id = i;
    request.tenant = static_cast<uint32_t>(
        rng.NextBounded(options.num_tenants));
    request.graph = static_cast<uint32_t>(
        rng.NextBounded(graph_num_vertices.size()));
    const uint32_t n = graph_num_vertices[request.graph];
    GDP_CHECK_GT(n, 0u);
    const uint64_t roll = rng.NextBounded(1000);
    if (roll < options.sssp_permille) {
      request.kind = QueryKind::kSsspDistance;
    } else if (roll < options.sssp_permille + options.bfs_permille) {
      request.kind = QueryKind::kBfsReachable;
    } else if (roll < options.sssp_permille + options.bfs_permille +
                          options.pagerank_permille) {
      request.kind = QueryKind::kPageRankTopN;
    } else {
      request.kind = QueryKind::kKCoreMember;
    }
    request.source = static_cast<graph::VertexId>(rng.NextBounded(n));
    request.target = static_cast<graph::VertexId>(rng.NextBounded(n));
    request.k = options.kcore_kmin +
                static_cast<uint32_t>(rng.NextBounded(
                    options.kcore_kmax - options.kcore_kmin + 1));
    request.top_n =
        1 + static_cast<uint32_t>(rng.NextBounded(options.max_top_n));
    request.arrival_us = now_us;
    trace.push_back(request);
  }
  return trace;
}

}  // namespace gdp::serving
