#include "stack.hpp"

#include "yanc/netfs/yancfs.hpp"

namespace perfbench {

using namespace yanc;

Stack::Stack(int n) : vfs(std::make_shared<vfs::Vfs>()) {
  if (auto fs = netfs::mount_yanc_fs(*vfs); !fs)
    throw GateError("mount_yanc_fs: " + fs.error().message());
  driver = std::make_unique<driver::OfDriver>(vfs);
  for (int i = 0; i < n; ++i) {
    sw::SwitchOptions opts;
    opts.datapath_id = static_cast<std::uint64_t>(i + 1);
    auto s = std::make_unique<sw::Switch>("dp" + std::to_string(i + 1), opts,
                                          network);
    s->add_port(1, MacAddress::from_u64(0x0200000a0000ull + 16 * i + 1),
                "eth1");
    s->add_port(2, MacAddress::from_u64(0x0200000a0000ull + 16 * i + 2),
                "eth2");
    s->bind_metrics(*vfs->metrics());
    s->connect(driver->listener().connect());
    switches.push_back(std::move(s));
  }
  Tally ignored;
  Recorder off(false, 0, nullptr);
  settle(off, ignored,
         [&] { return driver->connected_switches() ==
                      static_cast<std::size_t>(n); },
         "handshake");
  for (const auto& s : switches) {
    auto name = driver->switch_name(s->datapath_id());
    if (!name) throw GateError("switch_name: " + name.error().message());
    flows_dirs.push_back("/net/switches/" + *name + "/flows");
  }
}

std::size_t Stack::step(Recorder& rec, Tally& tally) {
  std::size_t work = rec.call(Call::driver_poll, [&] { return driver->poll(); });
  ++tally.polls;
  if (work == 0) ++tally.idle_polls;
  if (app) {
    auto handled = rec.call(Call::apps_poll, [&] { return app->poll(); });
    ++tally.attempted;
    if (handled)
      work += *handled;
    else
      ++tally.failed;
  }
  for (auto& s : switches)
    work += rec.call(Call::sw_pump, [&] { return s->pump(); });
  work += rec.call(Call::net_deliver,
                   [&] { return scheduler.run_until_idle(); });
  return work;
}

void Stack::settle(Recorder& rec, Tally& tally,
                   const std::function<bool()>& done, const std::string& what) {
  for (int round = 0; round < kRoundCap; ++round)
    if (step(rec, tally) == 0 && done()) return;
  throw GateError(what + ": did not settle within " +
                  std::to_string(kRoundCap) + " rounds");
}

bool Stack::tables_hold(std::size_t n) const {
  for (const auto& s : switches)
    if (s->table().size() != n) return false;
  return true;
}

Snapshot Stack::snapshot() const {
  Snapshot out;
  add_vfs_counters({vfs}, out);
  out["net.frames"] = static_cast<double>(network.frames_delivered());
  if (app) out["apps.flows"] = static_cast<double>(app->flows_installed());
  return out;
}

Snapshot Stack::histograms() const {
  return {{"vfs.op_ns_p50",
           static_cast<double>(vfs->metrics()->histogram("vfs/op_ns")
                                   ->percentile(50))}};
}

}  // namespace perfbench
