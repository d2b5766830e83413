// replicated_commit: flows committed on a node that does not own their
// switch, so each one crosses dist replication before the owner's driver
// pushes it (Controlling a Software-Defined Network via Distributed
// Controllers, in PAPERS.md).
#include <algorithm>

#include "workload.hpp"
#include "yanc/cluster/harness.hpp"

namespace perfbench {

using namespace yanc;

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kSwitches = 2;
constexpr int kBurstPerSwitch = 16;
constexpr int kTickCap = 256;
constexpr int kSetupTickCap = 400;

struct Shard {
  std::uint64_t dpid = 0;
  std::size_t owner = 0;
  std::size_t committer = 0;
  std::string flows_dir;  // the committer's path to the switch's flows/
};

cluster::HarnessOptions harness_options() {
  cluster::HarnessOptions opts;
  opts.nodes = kNodes;
  opts.switches = kSwitches;
  return opts;
}

class Replicated final : public Workload {
 public:
  Replicated(const Config& cfg, Recorder& warm)
      : harness_(harness_options()), rng_(cfg.seed) {
    Tally t;
    for (int i = 0; i < kSetupTickCap && !ready(); ++i) harness_.tick();
    if (!ready()) throw GateError("cluster did not elect owners in setup");
    for (std::uint64_t dpid = 1; dpid <= kSwitches; ++dpid) {
      Shard shard;
      shard.dpid = dpid;
      shard.owner = *harness_.owner_of(dpid);
      // A seeded choice among the nodes that do not own the switch.
      shard.committer = (shard.owner + 1 + rng_() % (kNodes - 1)) % kNodes;
      auto dir = harness_.switch_dir(shard.committer, dpid);
      if (!dir) throw GateError("switch_dir: " + dir.error().message());
      shard.flows_dir = *dir + "/flows";
      shards_.push_back(shard);
    }
    for (int i = 0; i < 2; ++i) burst(warm, t, false);
    if (t.failed) throw GateError("warm-up: an operation failed");
  }

  void run(double seconds, Recorder& rec, Tally& tally) override {
    std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do burst(rec, tally, true);
    while (now_ns() < deadline && !rec.full());
  }

  void final_check() override {
    for (const Shard& s : shards_) gate(s, {}, "end of run");
  }

  Snapshot snapshot() override {
    Snapshot out;
    std::vector<std::shared_ptr<vfs::Vfs>> vfses;
    for (std::size_t n = 0; n < kNodes; ++n) vfses.push_back(harness_.vfs(n));
    add_vfs_counters(vfses, out);
    auto& transport = harness_.transport();
    out["dist.messages"] = static_cast<double>(transport.messages_sent());
    out["dist.bytes"] = static_cast<double>(transport.bytes_sent());
    return out;
  }

  Snapshot histograms() override {
    auto& reg = *harness_.vfs(0)->metrics();
    return {{"vfs.op_ns_p50",
             static_cast<double>(reg.histogram("vfs/op_ns")->percentile(50))},
            {"dist.lag_ns_p50",
             static_cast<double>(
                 reg.histogram("dist/replication_lag_ns")->percentile(50))}};
  }

 private:
  bool ready() {
    for (std::uint64_t dpid = 1; dpid <= kSwitches; ++dpid) {
      auto owner = harness_.owner_of(dpid);
      if (!owner || !harness_.driver(*owner).switch_name(dpid)) return false;
      for (std::size_t n = 0; n < kNodes; ++n)
        if (!harness_.switch_dir(n, dpid)) return false;
    }
    return true;
  }

  bool tables_hold(std::size_t n) {
    for (const Shard& s : shards_)
      if (harness_.switch_at(s.dpid).table().size() != n) return false;
    return true;
  }

  /// Ticks until every table holds `n` flows; `count` adds the ticks to
  /// cluster.ticks_per_burst.
  void tick_until(Recorder& rec, Tally& tally, std::size_t n, bool count,
                  const char* what) {
    for (int i = 0; i < kTickCap; ++i) {
      rec.call(Call::cluster_tick, [&] { harness_.tick(); });
      if (count) ++tally.ticks;
      if (tables_hold(n)) return;
    }
    throw GateError(std::string(what) + ": flows did not reach hardware in " +
                    std::to_string(kTickCap) + " ticks");
  }

  /// hw_flows == fs_flows on the owner, and on the committer, and both
  /// equal what the benchmark wrote.
  void gate(const Shard& s, const std::vector<std::string>& expected,
            const std::string& where) {
    auto hw = harness_.hw_flows(s.dpid);
    if (hw != harness_.fs_flows(s.owner, s.dpid) ||
        hw != harness_.fs_flows(s.committer, s.dpid) || hw != expected)
      throw GateError(where + ": switch " + std::to_string(s.dpid) + " holds " +
                      std::to_string(hw.size()) + " flows, expected " +
                      std::to_string(expected.size()) +
                      " matching the owner's and the committer's replicas");
  }

  void burst(Recorder& rec, Tally& tally, bool timed) {
    std::vector<std::vector<flow::FlowSpec>> specs(shards_.size());
    for (auto& list : specs)
      for (int f = 0; f < kBurstPerSwitch; ++f)
        list.push_back(random_flow(rng_, f));

    rec.begin_root(Call::burst_add);
    std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const Shard& s = shards_[i];
      for (int f = 0; f < kBurstPerSwitch; ++f)
        check(rec.call(Call::dist_commit,
                       [&] {
                         return harness_.commit_flow(
                             s.committer, s.dpid,
                             numbered("f", static_cast<std::uint64_t>(f)),
                             specs[i][static_cast<std::size_t>(f)]);
                       }),
              tally);
    }
    tick_until(rec, tally, kBurstPerSwitch, timed, "commit burst");
    std::uint64_t t1 = now_ns();
    rec.end_root();

    std::size_t table_max = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      std::vector<std::string> expected;
      for (const auto& spec : specs[i]) expected.push_back(spec.to_string());
      std::sort(expected.begin(), expected.end());
      gate(shards_[i], expected, "after commit burst");
      table_max = std::max(table_max,
                           harness_.switch_at(shards_[i].dpid).table().size());
    }

    rec.begin_root(Call::burst_delete);
    std::uint64_t t2 = now_ns();
    for (const Shard& s : shards_) {
      auto& vfs = *harness_.vfs(s.committer);
      for (int f = 0; f < kBurstPerSwitch; ++f)
        check(rec.call(Call::rmdir,
                       [&] {
                         return vfs.rmdir(s.flows_dir + "/f" +
                                          std::to_string(f));
                       }),
              tally);
    }
    tick_until(rec, tally, 0, false, "delete burst");
    std::uint64_t t3 = now_ns();
    rec.end_root();

    for (const Shard& s : shards_) gate(s, {}, "after delete burst");
    if (!timed) return;
    const std::uint64_t flows = shards_.size() * kBurstPerSwitch;
    tally.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    tally.ops += flows;
    tally.added(flows, seconds_between(t0, t1));
    tally.deleted(flows, seconds_between(t2, t3));
    tally.table_max = std::max(tally.table_max, table_max);
    ++tally.bursts;
  }

  cluster::Harness harness_;
  std::mt19937_64 rng_;
  std::vector<Shard> shards_;
};

}  // namespace

std::unique_ptr<Workload> make_replicated_commit(const Config& cfg,
                                                 Recorder& warm) {
  return std::make_unique<Replicated>(cfg, warm);
}

}  // namespace perfbench
