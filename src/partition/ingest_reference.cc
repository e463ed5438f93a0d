// Serial reference implementation of Ingest() — the oracle the parallel
// ingress pipeline is validated against (tests/ingest_determinism_test.cc
// compares every report field and per-machine cluster counter bit for bit).
//
// Kept deliberately independent of ingest.cc: no thread pool, no per-loader
// scratch, no sharded finalize. One accumulator is filled in loader order
// and flushed with the same canonical per-pass discipline (allocations,
// then one tick charge per machine, then partitioner-state deltas, then the
// barrier, then deferred frees); all per-edge costs are integer ticks,
// which is why the straightforward serial sums here must equal the
// pipeline's merged per-loader sums.

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/ingest.h"
#include "sim/phase_accumulator.h"
#include "util/hash.h"
#include "util/check.h"

namespace gdp::partition {

IngestResult IngestReference(const graph::EdgeList& edges,
                             Partitioner& partitioner, sim::Cluster& cluster,
                             const IngestOptions& options) {
  const uint64_t num_edges = edges.num_edges();
  const uint32_t num_machines = cluster.num_machines();
  GDP_CHECK_GT(num_machines, 0u);
  uint32_t num_loaders = options.num_loaders;
  if (num_loaders == 0) num_loaders = partitioner.context().num_loaders;
  if (num_loaders == 0) num_loaders = num_machines;

  // Same observability surface as the pipeline (exec.num_threads is
  // ignored — this oracle is serial by definition), so tests can compare
  // the oracle's spans/counters against the pipeline's bit for bit.
  const obs::ExecContext& exec = options.exec;
  sim::Timeline* const timeline = exec.timeline;
  std::vector<obs::Counter*> loader_ticks;
  obs::Counter* edges_moved_counter = nullptr;
  obs::Counter* passes_counter = nullptr;
  if (exec.metrics != nullptr) {
    loader_ticks.reserve(num_loaders);
    for (uint32_t l = 0; l < num_loaders; ++l) {
      loader_ticks.push_back(exec.metrics->GetCounter(
          "ingress.loader" + std::to_string(l) + ".ticks"));
    }
    edges_moved_counter = exec.metrics->GetCounter("ingress.edges_moved");
    passes_counter = exec.metrics->GetCounter("ingress.passes");
  }
  obs::ScopedSpan ingress_span(exec.trace, exec.trace_track, "ingress",
                               "ingress", cluster.now_seconds());

  IngestResult result;
  DistributedGraph& dg = result.graph;
  dg.num_machines = num_machines;
  dg.num_vertices = edges.num_vertices();
  dg.edges = edges.edges();
  dg.edge_partition.assign(num_edges, 0);
  const uint32_t num_partitions = partitioner.num_partitions();
  GDP_CHECK_GE(num_partitions, 1u);
  dg.num_partitions = num_partitions;

  const sim::ObjectSizes sizes;
  IngressReport& report = result.report;
  const double start_time = cluster.now_seconds();

  partitioner.PrepareForIngest(num_loaders);

  auto block_start = [&](uint32_t l) -> uint64_t {
    return num_edges * l / num_loaders;
  };

  std::vector<uint64_t> state_held(num_machines, 0);
  auto charge_state_delta = [&]() {
    const uint64_t state = partitioner.ApproxStateBytes();
    report.peak_state_bytes = std::max(report.peak_state_bytes, state);
    const uint64_t base = state / num_machines;
    const uint64_t remainder = state % num_machines;
    uint64_t distributed = 0;
    for (uint32_t m = 0; m < num_machines; ++m) {
      const uint64_t target = base + (m < remainder ? 1 : 0);
      if (target > state_held[m]) {
        cluster.machine(m).Allocate(target - state_held[m]);
      } else if (target < state_held[m]) {
        cluster.machine(m).Free(state_held[m] - target);
      }
      state_held[m] = target;
      distributed += target;
    }
    GDP_DCHECK_EQ(distributed, state);
  };

  sim::PhaseAccumulator acc;
  std::vector<uint64_t> alloc(num_machines, 0);
  std::vector<uint64_t> frees(num_machines, 0);

  const uint32_t passes = partitioner.num_passes();
  for (uint32_t pass = 0; pass < passes; ++pass) {
    obs::ScopedSpan pass_span(exec.trace, exec.trace_track,
                              "pass " + std::to_string(pass), "ingress",
                              cluster.now_seconds());
    const uint64_t moved_before = report.edges_moved;
    partitioner.BeginPass(pass);
    acc.Reset(num_machines);
    std::fill(alloc.begin(), alloc.end(), 0);
    std::fill(frees.begin(), frees.end(), 0);
    uint64_t ticks_before_loader = 0;
    for (uint32_t l = 0; l < num_loaders; ++l) {
      const sim::MachineId loader_machine = l % num_machines;
      const uint64_t begin = block_start(l);
      const uint64_t end = block_start(l + 1);
      for (uint64_t i = begin; i < end; ++i) {
        const graph::Edge& e = dg.edges[i];
        MachineId assigned = partitioner.Assign(e, pass, l);
        acc.AddTicks(
            loader_machine,
            kParseTicksPerEdge + partitioner.TakeAssignWorkTicks(l));
        if (pass == 0) {
          GDP_CHECK_NE(assigned, kKeepPlacement);
          GDP_DCHECK_LT(assigned, num_partitions);
          dg.edge_partition[i] = assigned;
          const sim::MachineId target = assigned % num_machines;
          alloc[target] += sizes.edge_record;
          if (target != loader_machine) {
            acc.ChargeSendBytes(loader_machine, sizes.edge_record);
            acc.ChargeReceiveBytes(target, sizes.edge_record);
          }
        } else if (assigned != kKeepPlacement &&
                   assigned != dg.edge_partition[i]) {
          GDP_DCHECK_LT(assigned, num_partitions);
          const sim::MachineId old_machine =
              dg.edge_partition[i] % num_machines;
          const sim::MachineId new_machine = assigned % num_machines;
          dg.edge_partition[i] = assigned;
          ++report.edges_moved;
          if (old_machine != new_machine) {
            acc.ChargeSendBytes(old_machine, sizes.edge_record);
            acc.ChargeReceiveBytes(new_machine, sizes.edge_record);
            alloc[new_machine] += sizes.edge_record;
            frees[old_machine] += sizes.edge_record;
          }
        }
      }
      if (exec.metrics != nullptr) {
        // The shared accumulator's total delta across this loader's block
        // equals the pipeline's per-loader lane total.
        const uint64_t ticks_now = acc.TotalTicks();
        loader_ticks[l]->Add(ticks_now - ticks_before_loader);
        ticks_before_loader = ticks_now;
      }
    }
    partitioner.EndPass(pass);
    const uint64_t pass_moved = report.edges_moved - moved_before;
    if (exec.metrics != nullptr) {
      edges_moved_counter->Add(pass_moved);
      passes_counter->Increment();
    }
    for (uint32_t m = 0; m < num_machines; ++m) {
      if (alloc[m] != 0) cluster.machine(m).Allocate(alloc[m]);
    }
    acc.FlushTo(cluster);
    charge_state_delta();
    report.pass_seconds.push_back(cluster.EndPhase());
    if (timeline != nullptr) timeline->Sample(cluster);
    for (uint32_t m = 0; m < num_machines; ++m) {
      if (frees[m] != 0) cluster.machine(m).Free(frees[m]);
    }
    pass_span.Arg("ticks", static_cast<int64_t>(acc.TotalTicks()));
    pass_span.Arg("sent_bytes", static_cast<int64_t>(acc.TotalSentBytes()));
    pass_span.Arg("edges_moved", static_cast<int64_t>(pass_moved));
    pass_span.End(cluster.now_seconds());
  }

  // ---- Finalize (serial). ------------------------------------------------
  obs::ScopedSpan finalize_span(exec.trace, exec.trace_track, "finalize",
                                "ingress", cluster.now_seconds());
  dg.replicas = ReplicaTable(dg.num_vertices, num_partitions);
  dg.in_edge_partitions = ReplicaTable(dg.num_vertices, num_partitions);
  dg.out_edge_partitions = ReplicaTable(dg.num_vertices, num_partitions);
  dg.present.assign(dg.num_vertices, false);
  dg.partition_edge_count.assign(num_partitions, 0);
  for (uint64_t i = 0; i < num_edges; ++i) {
    const graph::Edge& e = dg.edges[i];
    const MachineId p = dg.edge_partition[i];
    dg.replicas.Add(e.src, p);
    dg.replicas.Add(e.dst, p);
    dg.out_edge_partitions.Add(e.src, p);
    dg.in_edge_partitions.Add(e.dst, p);
    dg.present[e.src] = true;
    dg.present[e.dst] = true;
    ++dg.partition_edge_count[p];
  }

  dg.master.assign(dg.num_vertices, ReplicaTable::kInvalid);
  uint64_t replica_total = 0;
  uint64_t present_count = 0;
  std::vector<uint64_t> replica_bytes(num_machines, 0);
  for (graph::VertexId v = 0; v < dg.num_vertices; ++v) {
    if (!dg.present[v]) continue;
    ++present_count;
    MachineId m = ReplicaTable::kInvalid;
    if (options.use_partitioner_master_preference) {
      MachineId pref = partitioner.PreferredMaster(v);
      if (pref != kKeepPlacement) m = pref % num_partitions;
    }
    if (m == ReplicaTable::kInvalid) {
      if (options.master_policy == MasterPolicy::kVertexHash) {
        m = static_cast<MachineId>(util::Mix64(v ^ options.seed) %
                                   num_partitions);
      } else {
        uint32_t count = dg.replicas.Count(v);
        m = dg.replicas.Select(
            v, static_cast<uint32_t>(util::Mix64(v ^ options.seed) % count));
      }
    }
    dg.master[v] = m;
    dg.replicas.Add(v, m);  // ensure the master location holds a replica
    replica_total += dg.replicas.Count(v);
    dg.replicas.ForEach(v, [&](MachineId p) {
      replica_bytes[dg.MachineOfPartition(p)] +=
          p == m ? sizes.vertex_record : sizes.mirror_record;
    });
  }
  dg.num_present_vertices = present_count;
  dg.BuildDegreeCache();
  dg.replication_factor =
      present_count > 0
          ? static_cast<double>(replica_total) / present_count
          : 0.0;

  for (uint32_t m = 0; m < num_machines; ++m) {
    if (replica_bytes[m] != 0) cluster.machine(m).Allocate(replica_bytes[m]);
  }
  const uint64_t finalize_ticks = sim::kTicksPerWorkUnit * present_count;
  for (uint32_t m = 0; m < num_machines; ++m) {
    cluster.machine(m).AddTicks(finalize_ticks / num_machines +
                                (m < finalize_ticks % num_machines ? 1 : 0));
  }
  report.pass_seconds.push_back(cluster.EndPhase());
  if (timeline != nullptr) timeline->Sample(cluster);
  finalize_span.Arg("present_vertices",
                    static_cast<int64_t>(present_count));
  finalize_span.Arg("replica_total", static_cast<int64_t>(replica_total));
  finalize_span.End(cluster.now_seconds());

  for (uint32_t m = 0; m < num_machines; ++m) {
    if (state_held[m] != 0) cluster.machine(m).Free(state_held[m]);
    state_held[m] = 0;
  }
  if (timeline != nullptr) {
    timeline->Sample(cluster);
    timeline->Mark(cluster, "ingress-end");
  }

  report.ingress_seconds = cluster.now_seconds() - start_time;
  report.replication_factor = dg.replication_factor;
  report.edge_balance_ratio = dg.EdgeBalanceRatio();
  ingress_span.Arg("edges", static_cast<int64_t>(num_edges));
  ingress_span.Arg("edges_moved", static_cast<int64_t>(report.edges_moved));
  ingress_span.End(cluster.now_seconds());
  return result;
}

}  // namespace gdp::partition
