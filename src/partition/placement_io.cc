#include "partition/placement_io.h"

#include <fstream>
#include <sstream>

namespace gdp::partition {

namespace {
constexpr char kMagic[] = "gdp-placement v1";
// The engines keep machine sets in 64-bit masks.
constexpr uint32_t kMaxMachines = 64;
// ExecutionPlan's GraphX fan-out counts are uint16_t and saturate here.
constexpr uint32_t kMaxPartitions = 65535;
}  // namespace

util::Status SavePlacement(const DistributedGraph& dg,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return util::Status::NotFound("cannot open for write: " + path);
  out << kMagic << "\n";
  out << dg.num_partitions << ' ' << dg.num_machines << ' '
      << dg.num_vertices << ' ' << dg.edges.size() << "\n";
  for (sim::MachineId p : dg.edge_partition) out << p << "\n";
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (dg.master[v] == ReplicaTable::kInvalid) {
      out << "-1\n";
    } else {
      out << dg.master[v] << "\n";
    }
  }
  out.flush();
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

util::StatusOr<PlacementFile> LoadPlacement(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kMagic) {
    return util::Status::InvalidArgument("bad placement header in " + path);
  }
  PlacementFile file;
  in >> file.num_partitions >> file.num_machines >> file.num_vertices >>
      file.num_edges;
  if (!in) return util::Status::InvalidArgument("bad counts in " + path);
  if (file.num_machines < 1 || file.num_machines > kMaxMachines) {
    return util::Status::InvalidArgument(
        "machine count outside [1, 64] in " + path);
  }
  if (file.num_partitions < 1 || file.num_partitions > kMaxPartitions) {
    return util::Status::InvalidArgument(
        "partition count outside [1, 65535] in " + path);
  }
  // Check the counts against the file length before sizing anything: each
  // entry is at least one digit and entries are whitespace-separated, so n
  // entries need at least 2n - 1 bytes.
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (!in || end < here) {
    return util::Status::InvalidArgument("cannot measure " + path);
  }
  const uint64_t max_entries = (static_cast<uint64_t>(end - here) + 1) / 2;
  if (file.num_edges > max_entries ||
      file.num_vertices > max_entries - file.num_edges) {
    return util::Status::InvalidArgument(
        "placement counts exceed the file length in " + path);
  }
  file.edge_partition.resize(file.num_edges);
  for (uint64_t i = 0; i < file.num_edges; ++i) {
    int64_t p = -1;
    in >> p;
    if (!in || p < 0 || p >= static_cast<int64_t>(file.num_partitions)) {
      return util::Status::InvalidArgument("bad edge partition in " + path);
    }
    file.edge_partition[i] = static_cast<sim::MachineId>(p);
  }
  file.master.resize(file.num_vertices);
  for (graph::VertexId v = 0; v < file.num_vertices; ++v) {
    int64_t m = -1;
    in >> m;
    if (!in || m >= static_cast<int64_t>(file.num_partitions)) {
      return util::Status::InvalidArgument("bad master in " + path);
    }
    file.master[v] = m < 0 ? ReplicaTable::kInvalid
                           : static_cast<sim::MachineId>(m);
  }
  return file;
}

util::StatusOr<DistributedGraph> ApplyPlacement(const graph::EdgeList& edges,
                                                const PlacementFile& file) {
  if (edges.num_edges() != file.num_edges) {
    return util::Status::FailedPrecondition(
        "placement edge count does not match the edge list");
  }
  if (edges.num_vertices() != file.num_vertices) {
    return util::Status::FailedPrecondition(
        "placement vertex count does not match the edge list");
  }
  DistributedGraph dg;
  dg.num_partitions = file.num_partitions;
  dg.num_machines = file.num_machines;
  dg.num_vertices = file.num_vertices;
  dg.edges = edges.edges();
  dg.edge_partition = file.edge_partition;
  dg.master = file.master;
  dg.BuildDegreeCache();

  dg.replicas = ReplicaTable(dg.num_vertices, dg.num_partitions);
  dg.in_edge_partitions = ReplicaTable(dg.num_vertices, dg.num_partitions);
  dg.out_edge_partitions = ReplicaTable(dg.num_vertices, dg.num_partitions);
  dg.present.assign(dg.num_vertices, false);
  dg.partition_edge_count.assign(dg.num_partitions, 0);
  for (uint64_t i = 0; i < dg.edges.size(); ++i) {
    const graph::Edge& e = dg.edges[i];
    sim::MachineId p = dg.edge_partition[i];
    dg.replicas.Add(e.src, p);
    dg.replicas.Add(e.dst, p);
    dg.out_edge_partitions.Add(e.src, p);
    dg.in_edge_partitions.Add(e.dst, p);
    dg.present[e.src] = true;
    dg.present[e.dst] = true;
    ++dg.partition_edge_count[p];
  }
  uint64_t replica_total = 0;
  uint64_t present_count = 0;
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (!dg.present[v]) {
      if (dg.master[v] != ReplicaTable::kInvalid) {
        return util::Status::FailedPrecondition(
            "vertex with no edges has a master in placement");
      }
      continue;
    }
    if (dg.master[v] == ReplicaTable::kInvalid) {
      return util::Status::FailedPrecondition(
          "present vertex has no master in placement");
    }
    ++present_count;
    dg.replicas.Add(v, dg.master[v]);
    replica_total += dg.replicas.Count(v);
  }
  dg.num_present_vertices = present_count;
  dg.replication_factor =
      present_count > 0 ? static_cast<double>(replica_total) / present_count
                        : 0.0;
  return dg;
}

}  // namespace gdp::partition
