// bulk_commit: the §3.4 commit protocol driven proactively on one
// controller.
#include <algorithm>

#include "stack.hpp"
#include "yanc/netfs/flowio.hpp"

namespace perfbench {

using namespace yanc;

namespace {

constexpr int kSwitches = 4;
constexpr int kBurstPerSwitch = 64;

class BulkCommit final : public Workload {
 public:
  BulkCommit(const Config& cfg, Recorder& warm)
      : stack_(kSwitches), rng_(cfg.seed) {
    Tally t;
    for (int i = 0; i < 2; ++i) burst(warm, t, false);
    if (t.failed) throw GateError("warm-up: an operation failed");
  }

  void run(double seconds, Recorder& rec, Tally& tally) override {
    std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do burst(rec, tally, true);
    while (now_ns() < deadline && !rec.full());
  }

  void final_check() override {
    for (int s = 0; s < kSwitches; ++s)
      gate_table(*stack_.vfs, stack_.flows_dirs[s], *stack_.switches[s],
                 &empty_, "end of run");
  }

  Snapshot snapshot() override { return stack_.snapshot(); }
  Snapshot histograms() override { return stack_.histograms(); }

 private:
  /// One burst: commit kBurstPerSwitch flows on every switch, wait until
  /// they are on hardware with every barrier acked, check, then rmdir
  /// them all and wait until the tables are empty.
  void burst(Recorder& rec, Tally& tally, bool timed) {
    std::vector<std::vector<std::string>> expected(kSwitches);
    std::vector<std::pair<std::string, flow::FlowSpec>> writes;
    for (int s = 0; s < kSwitches; ++s) {
      for (int f = 0; f < kBurstPerSwitch; ++f) {
        auto spec = random_flow(rng_, f);
        expected[s].push_back(spec.to_string());
        writes.emplace_back(stack_.flows_dirs[s] + "/f" + std::to_string(f),
                            std::move(spec));
      }
      std::sort(expected[s].begin(), expected[s].end());
    }

    rec.begin_root(Call::burst_add);
    std::uint64_t t0 = now_ns();
    for (const auto& [path, spec] : writes)
      check(rec.call(Call::write_flow,
                     [&] { return netfs::write_flow(*stack_.vfs, path, spec); }),
            tally);
    stack_.settle(rec, tally, [&] { return stack_.tables_hold(kBurstPerSwitch); },
                  "commit burst");
    std::uint64_t t1 = now_ns();
    rec.end_root();

    std::size_t table_max = 0;
    for (int s = 0; s < kSwitches; ++s) {
      gate_table(*stack_.vfs, stack_.flows_dirs[s], *stack_.switches[s],
                 &expected[s], "after commit burst");
      table_max = std::max(table_max, stack_.switches[s]->table().size());
    }

    rec.begin_root(Call::burst_delete);
    std::uint64_t t2 = now_ns();
    for (const auto& write : writes)
      check(rec.call(Call::rmdir,
                     [&] { return stack_.vfs->rmdir(write.first); }),
            tally);
    stack_.settle(rec, tally, [&] { return stack_.tables_hold(0); },
                  "delete burst");
    std::uint64_t t3 = now_ns();
    rec.end_root();

    for (int s = 0; s < kSwitches; ++s)
      gate_table(*stack_.vfs, stack_.flows_dirs[s], *stack_.switches[s],
                 &empty_, "after delete burst");
    if (!timed) return;
    const std::uint64_t flows = writes.size();
    tally.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    tally.ops += flows;
    tally.added(flows, seconds_between(t0, t1));
    tally.deleted(flows, seconds_between(t2, t3));
    tally.table_max = std::max(tally.table_max, table_max);
    ++tally.bursts;
  }

  Stack stack_;
  std::mt19937_64 rng_;
  const std::vector<std::string> empty_;
};

}  // namespace

std::unique_ptr<Workload> make_bulk_commit(const Config& cfg, Recorder& warm) {
  return std::make_unique<BulkCommit>(cfg, warm);
}

}  // namespace perfbench
