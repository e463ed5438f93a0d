#include "partition/validate.h"

#include <cmath>
#include <string>

namespace gdp::partition {

namespace {

std::string VertexStr(graph::VertexId v) {
  return "vertex " + std::to_string(v);
}

/// First machine in `a`'s set for `v` that is missing from `b`'s, or
/// ReplicaTable::kInvalid when `a`'s set is a subset of `b`'s.
sim::MachineId FirstMissing(const ReplicaTable& a, const ReplicaTable& b,
                            graph::VertexId v) {
  sim::MachineId missing = ReplicaTable::kInvalid;
  a.ForEach(v, [&](sim::MachineId m) {
    if (missing == ReplicaTable::kInvalid && !b.Contains(v, m)) missing = m;
  });
  return missing;
}

util::Status CompareTables(const ReplicaTable& expected,
                           const ReplicaTable& actual, graph::VertexId v,
                           const char* table_name) {
  sim::MachineId stale = FirstMissing(actual, expected, v);
  if (stale != ReplicaTable::kInvalid) {
    return util::Status::FailedPrecondition(
        std::string(table_name) + ": " + VertexStr(v) +
        " lists partition " + std::to_string(stale) +
        " which no incident edge (or master) justifies (stale mirror)");
  }
  sim::MachineId lost = FirstMissing(expected, actual, v);
  if (lost != ReplicaTable::kInvalid) {
    return util::Status::FailedPrecondition(
        std::string(table_name) + ": " + VertexStr(v) +
        " is missing partition " + std::to_string(lost) +
        " required by an incident edge (or master)");
  }
  return util::Status::Ok();
}

}  // namespace

util::Status ValidateCsr(std::span<const uint64_t> offsets,
                         std::span<const graph::VertexId> adjacency) {
  if (offsets.empty()) {
    if (!adjacency.empty()) {
      return util::Status::FailedPrecondition(
          "csr: no offsets but " + std::to_string(adjacency.size()) +
          " adjacency entries");
    }
    return util::Status::Ok();
  }
  if (offsets.front() != 0) {
    return util::Status::FailedPrecondition(
        "csr: offsets[0] = " + std::to_string(offsets.front()) +
        ", expected 0");
  }
  const graph::VertexId n = static_cast<graph::VertexId>(offsets.size() - 1);
  for (graph::VertexId v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      return util::Status::FailedPrecondition(
          "csr: offsets not monotone at " + VertexStr(v) + ": " +
          std::to_string(offsets[v]) + " > " + std::to_string(offsets[v + 1]));
    }
  }
  if (offsets.back() != adjacency.size()) {
    return util::Status::FailedPrecondition(
        "csr: offsets.back() = " + std::to_string(offsets.back()) +
        " but adjacency has " + std::to_string(adjacency.size()) + " entries");
  }
  for (size_t i = 0; i < adjacency.size(); ++i) {
    if (adjacency[i] >= n) {
      return util::Status::FailedPrecondition(
          "csr: adjacency[" + std::to_string(i) + "] = " +
          std::to_string(adjacency[i]) + " out of range [0, " +
          std::to_string(n) + ")");
    }
  }
  return util::Status::Ok();
}

util::Status ValidatePlacement(const DistributedGraph& dg) {
  if (dg.edge_partition.size() != dg.edges.size()) {
    return util::Status::FailedPrecondition(
        "placement: " + std::to_string(dg.edges.size()) + " edges but " +
        std::to_string(dg.edge_partition.size()) + " partition assignments");
  }
  if (!dg.edges.empty() && dg.num_partitions == 0) {
    return util::Status::FailedPrecondition(
        "placement: edges present but num_partitions == 0");
  }
  for (size_t i = 0; i < dg.edge_partition.size(); ++i) {
    if (dg.edge_partition[i] >= dg.num_partitions) {
      return util::Status::FailedPrecondition(
          "placement: edge " + std::to_string(i) + " (" +
          std::to_string(dg.edges[i].src) + "->" +
          std::to_string(dg.edges[i].dst) + ") assigned partition " +
          std::to_string(dg.edge_partition[i]) + ", valid range [0, " +
          std::to_string(dg.num_partitions) + ")");
    }
  }
  if (dg.partition_edge_count.size() != dg.num_partitions) {
    return util::Status::FailedPrecondition(
        "placement: partition_edge_count has " +
        std::to_string(dg.partition_edge_count.size()) + " entries for " +
        std::to_string(dg.num_partitions) + " partitions");
  }
  std::vector<uint64_t> recount(dg.num_partitions, 0);
  for (sim::MachineId p : dg.edge_partition) ++recount[p];
  for (uint32_t p = 0; p < dg.num_partitions; ++p) {
    if (recount[p] != dg.partition_edge_count[p]) {
      return util::Status::FailedPrecondition(
          "placement: partition " + std::to_string(p) + " reports " +
          std::to_string(dg.partition_edge_count[p]) + " edges, recount is " +
          std::to_string(recount[p]));
    }
  }

  // Every producer fills the degree arrays and the engines read them as-is,
  // so a missing or stale array silently skews plans and degree-dependent
  // apps.
  if (dg.out_degree.size() != dg.num_vertices ||
      dg.in_degree.size() != dg.num_vertices) {
    return util::Status::FailedPrecondition(
        "placement: out/in degree arrays sized " +
        std::to_string(dg.out_degree.size()) + "/" +
        std::to_string(dg.in_degree.size()) + " for " +
        std::to_string(dg.num_vertices) + " vertices");
  }
  std::vector<uint64_t> out_recount(dg.num_vertices, 0);
  std::vector<uint64_t> in_recount(dg.num_vertices, 0);
  for (const graph::Edge& e : dg.edges) {
    // ValidateReplicaTable reports out-of-range endpoints.
    if (e.src >= dg.num_vertices || e.dst >= dg.num_vertices) continue;
    ++out_recount[e.src];
    ++in_recount[e.dst];
  }
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (out_recount[v] != dg.out_degree[v] ||
        in_recount[v] != dg.in_degree[v]) {
      return util::Status::FailedPrecondition(
          "placement: " + VertexStr(v) + " out/in degrees " +
          std::to_string(dg.out_degree[v]) + "/" +
          std::to_string(dg.in_degree[v]) + " but edges give " +
          std::to_string(out_recount[v]) + "/" +
          std::to_string(in_recount[v]));
    }
  }
  return util::Status::Ok();
}

util::Status ValidateReplicaTable(const DistributedGraph& dg) {
  const graph::VertexId n = dg.num_vertices;
  if (dg.master.size() != n || dg.present.size() != n) {
    return util::Status::FailedPrecondition(
        "replica table: master/present sized " +
        std::to_string(dg.master.size()) + "/" +
        std::to_string(dg.present.size()) + " for " + std::to_string(n) +
        " vertices");
  }
  if (dg.replicas.num_vertices() != n ||
      dg.in_edge_partitions.num_vertices() != n ||
      dg.out_edge_partitions.num_vertices() != n) {
    return util::Status::FailedPrecondition(
        "replica table: bitsets not sized for " + std::to_string(n) +
        " vertices");
  }
  if (dg.edge_partition.size() != dg.edges.size()) {
    return util::Status::FailedPrecondition(
        "replica table: " + std::to_string(dg.edges.size()) + " edges but " +
        std::to_string(dg.edge_partition.size()) + " partition assignments");
  }

  // Recompute the three tables and the present set from the edges, exactly
  // as ingest finalization does, then demand equality.
  ReplicaTable expected_replicas(n, dg.num_partitions);
  ReplicaTable expected_in(n, dg.num_partitions);
  ReplicaTable expected_out(n, dg.num_partitions);
  std::vector<bool> expected_present(n, false);
  for (size_t i = 0; i < dg.edges.size(); ++i) {
    const graph::Edge& e = dg.edges[i];
    if (e.src >= n || e.dst >= n) {
      return util::Status::FailedPrecondition(
          "replica table: edge " + std::to_string(i) + " endpoint out of " +
          "range [0, " + std::to_string(n) + ")");
    }
    const sim::MachineId p = dg.edge_partition[i];
    expected_replicas.Add(e.src, p);
    expected_replicas.Add(e.dst, p);
    expected_out.Add(e.src, p);
    expected_in.Add(e.dst, p);
    expected_present[e.src] = true;
    expected_present[e.dst] = true;
  }

  uint64_t present_count = 0;
  uint64_t replica_total = 0;
  for (graph::VertexId v = 0; v < n; ++v) {
    if (expected_present[v] != static_cast<bool>(dg.present[v])) {
      return util::Status::FailedPrecondition(
          "replica table: " + VertexStr(v) + " marked " +
          (dg.present[v] ? "present" : "absent") + " but its edge set says " +
          (expected_present[v] ? "present" : "absent"));
    }
    const sim::MachineId master = dg.master[v];
    if (!expected_present[v]) {
      if (master != ReplicaTable::kInvalid) {
        return util::Status::FailedPrecondition(
            "replica table: absent " + VertexStr(v) + " has master " +
            std::to_string(master));
      }
      if (dg.replicas.Count(v) != 0) {
        return util::Status::FailedPrecondition(
            "replica table: absent " + VertexStr(v) + " has " +
            std::to_string(dg.replicas.Count(v)) + " replicas");
      }
      continue;
    }
    ++present_count;
    if (master == ReplicaTable::kInvalid) {
      return util::Status::FailedPrecondition(
          "replica table: present " + VertexStr(v) + " has no master");
    }
    if (master >= dg.num_partitions) {
      return util::Status::FailedPrecondition(
          "replica table: " + VertexStr(v) + " master partition " +
          std::to_string(master) + " out of range [0, " +
          std::to_string(dg.num_partitions) + ")");
    }
    if (!dg.replicas.Contains(v, master)) {
      return util::Status::FailedPrecondition(
          "replica table: " + VertexStr(v) + " master partition " +
          std::to_string(master) + " not in its replica set");
    }
    // The replica set is exactly (incident-edge partitions) + the master.
    expected_replicas.Add(v, master);
    GDP_RETURN_IF_ERROR(
        CompareTables(expected_replicas, dg.replicas, v, "replica table"));
    GDP_RETURN_IF_ERROR(CompareTables(expected_in, dg.in_edge_partitions, v,
                                      "in-edge table"));
    GDP_RETURN_IF_ERROR(CompareTables(expected_out, dg.out_edge_partitions, v,
                                      "out-edge table"));
    replica_total += dg.replicas.Count(v);
  }

  if (present_count != dg.num_present_vertices) {
    return util::Status::FailedPrecondition(
        "replica table: num_present_vertices = " +
        std::to_string(dg.num_present_vertices) + ", recount is " +
        std::to_string(present_count));
  }
  const double expected_rf =
      present_count > 0
          ? static_cast<double>(replica_total) / static_cast<double>(present_count)
          : 0.0;
  if (std::fabs(expected_rf - dg.replication_factor) > 1e-9) {
    return util::Status::FailedPrecondition(
        "replica table: reported replication factor " +
        std::to_string(dg.replication_factor) + " but recomputed " +
        std::to_string(expected_rf));
  }
  return util::Status::Ok();
}

util::Status ValidateDistributedGraph(const DistributedGraph& dg) {
  GDP_RETURN_IF_ERROR(ValidatePlacement(dg));
  GDP_RETURN_IF_ERROR(ValidateReplicaTable(dg));
  return util::Status::Ok();
}

}  // namespace gdp::partition
