#ifndef GDP_ENGINE_ASYNC_COLORING_H_
#define GDP_ENGINE_ASYNC_COLORING_H_

#include <cstdint>
#include <vector>

#include "engine/run_stats.h"
#include "partition/distributed_graph.h"
#include "sim/cluster.h"

namespace gdp::engine {

struct AsyncColoringResult {
  std::vector<uint32_t> colors;
  RunStats stats;
};

/// Simple Coloring on an asynchronous engine (the configuration PowerGraph
/// uses for this application, §5.3). No global barriers: machines process
/// their vertices continuously, reading *fresh* colors for same-machine
/// neighbors but *stale* (previous-round) colors for remote neighbors —
/// the staleness causes repeated remote conflicts and extra convergence
/// rounds, which is why coloring deviates from the replication-factor
/// trend lines in Figs 5.3-5.5. (The real async engine's occasional hangs
/// and failures, noted in §5.4.1, are nondeterministic scheduler artifacts
/// we intentionally do not reproduce; see DESIGN.md.) options.exec's
/// sinks see an "AsyncColoring" run span and one `superstep N` span per
/// round, like RunAsyncGasEngine's.
AsyncColoringResult RunAsyncColoring(const partition::DistributedGraph& dg,
                                     sim::Cluster& cluster,
                                     const RunOptions& options = {});

}  // namespace gdp::engine

#endif  // GDP_ENGINE_ASYNC_COLORING_H_
