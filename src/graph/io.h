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
/// first appearance when `renumber` is true (SNAP files have sparse ids);
/// otherwise they are kept as-is, and an id of 2^32 - 1 or more is
/// InvalidArgument.
util::StatusOr<EdgeList> LoadEdgeList(const std::string& path,
                                      bool renumber = true);

}  // namespace gdp::graph

#endif  // GDP_GRAPH_IO_H_
