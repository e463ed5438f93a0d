#include "graph/io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace gdp::graph {

util::Status SaveEdgeList(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::NotFound("cannot open for write: " + path);
  out << "# " << edges.name() << " vertices=" << edges.num_vertices()
      << " edges=" << edges.num_edges() << "\n";
  for (const Edge& e : edges.edges()) {
    out << e.src << ' ' << e.dst << '\n';
  }
  out.flush();
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

util::StatusOr<EdgeList> LoadEdgeList(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  EdgeList edges(path, 0, {});
  std::unordered_map<uint64_t, VertexId> remap;
  auto map_id = [&](uint64_t raw) -> VertexId {
    return remap.try_emplace(raw, static_cast<VertexId>(remap.size()))
        .first->second;
  };
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    uint64_t u = 0, v = 0;
    if (!(ss >> u >> v)) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "parse error at line %llu",
                    static_cast<unsigned long long>(line_no));
      return util::Status::InvalidArgument(std::string(buf) + " in " + path);
    }
    edges.AddEdge(map_id(u), map_id(v));
  }
  return edges;
}

}  // namespace gdp::graph
