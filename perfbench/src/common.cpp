#include <algorithm>

#include "workload.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/obs/metrics.hpp"

namespace perfbench {

using namespace yanc;

namespace {

/// Sorted spec strings of a switch's hardware table.
std::vector<std::string> table_specs(const sw::Switch& sw) {
  std::vector<std::string> out;
  for (const auto& e : sw.table().entries()) out.push_back(e.spec.to_string());
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted spec strings of the committed flow dirs under `flows_dir`.
std::vector<std::string> committed_specs(vfs::Vfs& vfs,
                                         const std::string& flows_dir) {
  auto entries = vfs.readdir(flows_dir);
  if (!entries) throw GateError("readdir " + flows_dir + ": " +
                                entries.error().message());
  std::vector<std::string> out;
  for (const auto& e : *entries) {
    auto spec = netfs::read_flow_sparse(vfs, flows_dir + "/" + e.name);
    if (!spec) throw GateError("read_flow " + flows_dir + "/" + e.name +
                               ": " + spec.error().message());
    if (spec->version > 0) out.push_back(spec->to_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void gate_table(vfs::Vfs& vfs, const std::string& flows_dir,
                const sw::Switch& sw, const std::vector<std::string>* expected,
                const std::string& where) {
  auto hw = table_specs(sw);
  auto fs = committed_specs(vfs, flows_dir);
  if (hw != fs)
    throw GateError(where + ": " + sw.name() + " holds " +
                    std::to_string(hw.size()) + " flows but " + flows_dir +
                    " commits " + std::to_string(fs.size()) +
                    " (or their specs differ)");
  if (expected && fs != *expected)
    throw GateError(where + ": " + flows_dir + " commits " +
                    std::to_string(fs.size()) + " flows, the benchmark wrote " +
                    std::to_string(expected->size()) +
                    " (or their specs differ)");
}

void Tally::merge(const Tally& o) {
  latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
  add_s += o.add_s;
  flows_added += o.flows_added;
  flows_committed += o.flows_committed;
  delete_s += o.delete_s;
  flows_deleted += o.flows_deleted;
  wall_s += o.wall_s;
  ops += o.ops;
  attempted += o.attempted;
  failed += o.failed;
  polls += o.polls;
  idle_polls += o.idle_polls;
  ticks += o.ticks;
  bursts += o.bursts;
  table_max = std::max(table_max, o.table_max);
}

void add_vfs_counters(const std::vector<std::shared_ptr<vfs::Vfs>>& vfses,
                      Snapshot& out) {
  static const char* const kCounters[] = {
      "vfs/dcache_hit_total",          "vfs/dcache_miss_total",
      "watch/coalesced_total",         "netfs/watch_drop_total",
      "netfs/typed_write_total",       "netfs/validation_fail_total",
      "driver/of/retry_total",         "driver/of/audit_repair_total",
      "driver/of/send_fail_total",     "driver/of/msg_in_total",
      "driver/of/msg_out_total",       "driver/of/flow_mod_total",
      "sw/flow_hit_total",             "sw/flow_miss_total",
      "dist/replication_apply_total",  "dist/replication_conflict_total",
      "dist/anti_entropy_repair_total",
  };
  for (const auto& v : vfses) {
    const auto& c = v->counters();
    out["vfs.ops"] += static_cast<double>(c.total.load());
    out["vfs.writes"] += static_cast<double>(c.writes.load());
    out["vfs.lookups"] += static_cast<double>(c.lookups.load());
    auto& reg = *v->metrics();
    for (const char* name : kCounters)
      if (reg.contains(name))
        out[name] += static_cast<double>(reg.counter(name)->value());
    if (reg.contains("driver/of/batch_size")) {
      auto* h = reg.histogram("driver/of/batch_size");
      out["driver/of/batch_size.sum"] += static_cast<double>(h->sum());
      out["driver/of/batch_size.count"] += static_cast<double>(h->count());
    }
  }
}

flow::FlowSpec random_flow(std::mt19937_64& rng, int index) {
  flow::FlowSpec spec;
  spec.match.dl_type = 0x0800;
  spec.match.nw_proto = 17;
  spec.match.nw_dst = Cidr(Ipv4Address(0x0a000000u | (rng() & 0xffffffu)), 32);
  // tp_dst carries the index, so the flows of one switch never overlap.
  spec.match.tp_dst = static_cast<std::uint16_t>(1024 + index);
  spec.priority = static_cast<std::uint16_t>(100 + rng() % 100);
  spec.actions = {flow::Action::output(static_cast<std::uint16_t>(1 + rng() % 2))};
  return spec;
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

}  // namespace perfbench
