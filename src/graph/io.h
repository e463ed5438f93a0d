#ifndef GDP_GRAPH_IO_H_
#define GDP_GRAPH_IO_H_

#include <string>

#include "graph/edge_list.h"
#include "util/status.h"

namespace gdp::graph {

/// Writes an edge list in the plain-text format the paper's datasets use:
/// one "src dst" pair per line; lines starting with '#' are comments.
util::Status SaveEdgeList(const EdgeList& edges, const std::string& path);

/// Loads a plain-text edge list. Vertex ids are dense-renumbered in order of
/// first appearance (SNAP files have sparse ids), so raw ids never size an
/// array: num_vertices <= 2 * num_edges. A line that does not start with two
/// unsigned 64-bit integers is InvalidArgument.
util::StatusOr<EdgeList> LoadEdgeList(const std::string& path);

}  // namespace gdp::graph

#endif  // GDP_GRAPH_IO_H_
