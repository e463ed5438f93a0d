// gdp-advise: classify an edge list and print the paper's decision-tree
// recommendation for each system.
//
//   gdp-advise <edge-list> <machines> [compute-ingress-ratio] [natural01]

#include <cstdio>
#include <cstdlib>

#include "advisor/advisor.h"
#include "graph/graph_stats.h"
#include "graph/io.h"
#include "machines_arg.h"

int main(int argc, char** argv) {
  using namespace gdp;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <edge-list> <machines> "
                 "[compute-ingress-ratio=1] [natural01=1]\n",
                 argv[0]);
    return 2;
  }
  const uint32_t machines = tools::ParseMachinesArg(argv[2]);
  if (machines == 0) return 1;
  auto loaded = graph::LoadEdgeList(argv[1]);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  graph::GraphStats stats = graph::ComputeGraphStats(loaded.value());
  advisor::Workload workload;
  workload.graph_class = stats.classified;
  workload.num_machines = machines;
  workload.compute_ingress_ratio = argc > 3 ? std::atof(argv[3]) : 1.0;
  workload.natural_application = argc > 4 ? std::atoi(argv[4]) != 0 : true;

  std::printf("%s: |V|=%u |E|=%llu class=%s (alpha=%.2f, low-degree "
              "residual=%.2f)\n",
              argv[1], stats.num_vertices,
              static_cast<unsigned long long>(stats.num_edges),
              graph::GraphClassName(stats.classified),
              stats.power_law_alpha, stats.low_degree_residual);
  for (auto system : {advisor::System::kPowerGraph,
                      advisor::System::kPowerLyra,
                      advisor::System::kGraphX}) {
    advisor::Recommendation rec = advisor::Recommend(system, workload);
    std::printf("%-10s -> %-10s  [%s]\n", advisor::SystemName(system),
                partition::StrategyName(rec.primary()),
                rec.rationale.c_str());
  }
  return 0;
}
