// reactive: the cbench method (Performance analysis of SDN controllers, in
// PAPERS.md) on apps::LearningSwitch.  Each request is a UDP frame to a
// destination MAC the app has learned but holds no flow for, so it takes
// the whole path: switch miss -> PACKET_IN -> driver -> events/ pkt dir ->
// app -> write_flow + packet_out/ -> FLOW_MOD + PACKET_OUT -> switch ->
// destination host.
#include <algorithm>
#include <deque>

#include "stack.hpp"
#include "yanc/net/packet.hpp"

namespace perfbench {

using namespace yanc;

namespace {

constexpr int kSwitches = 4;
/// Destination MACs per switch; a pass over the pools installs this many
/// flows per switch before housekeeping removes them.
constexpr int kPool = 256;
/// Outstanding requests per switch in the load phase.
constexpr int kWindow = 8;

struct Site {
  sw::Switch* sw = nullptr;
  std::unique_ptr<net::Host> src;  // port 1: sends every request
  std::unique_ptr<net::Host> dst;  // port 2: the pool MACs live behind it
  std::vector<MacAddress> pool;
  std::size_t delivered = 0;  // dst->received_log() entries consumed
};

MacAddress frame_dst(const net::Frame& frame) {
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) v = (v << 8) | frame[static_cast<std::size_t>(i)];
  return MacAddress::from_u64(v);
}

class Reactive final : public Workload {
 public:
  Reactive(const Config& cfg, Recorder& warm) : stack_(kSwitches), rng_(cfg.seed) {
    stack_.app = std::make_unique<apps::LearningSwitch>(stack_.vfs);
    std::vector<std::uint64_t> macs;
    while (macs.size() < static_cast<std::size_t>(kSwitches * kPool)) {
      // Locally administered unicast, never one of the hosts' or ports'.
      std::uint64_t m = (0x060000000000ull | (rng_() & 0xffffffffffull));
      if (std::find(macs.begin(), macs.end(), m) == macs.end()) macs.push_back(m);
    }
    for (int i = 0; i < kSwitches; ++i) {
      Site site;
      site.sw = stack_.switches[static_cast<std::size_t>(i)].get();
      auto ip = [&](int host) {
        return Ipv4Address(0x0a640000u | static_cast<std::uint32_t>(i << 8) |
                           static_cast<std::uint32_t>(host));
      };
      site.src = std::make_unique<net::Host>(
          numbered("h", static_cast<std::uint64_t>(i)) + "a",
          MacAddress::from_u64(0x020000640000ull + 16 * i + 1), ip(1),
          stack_.network);
      site.dst = std::make_unique<net::Host>(
          numbered("h", static_cast<std::uint64_t>(i)) + "b",
          MacAddress::from_u64(0x020000640000ull + 16 * i + 2), ip(2),
          stack_.network);
      if (!stack_.network.add_link(*site.sw, 1, *site.src, 0) ||
          !stack_.network.add_link(*site.sw, 2, *site.dst, 0))
        throw GateError("add_link failed");
      for (int k = 0; k < kPool; ++k)
        site.pool.push_back(MacAddress::from_u64(
            macs[static_cast<std::size_t>(i * kPool + k)]));
      sites_.push_back(std::move(site));
    }
    // Pre-learn: every pool MAC speaks once from behind port 2 (to the
    // broadcast address, so the app floods and installs nothing).
    Tally t;
    stack_.settle(warm, t, [] { return true; }, "app start");
    for (auto& site : sites_)
      for (const auto& mac : site.pool)
        site.dst->send_frame(net::build_udp(MacAddress::from_u64(0xffffffffffffull),
                                            mac, site.dst->ip(), site.src->ip(),
                                            9, 9, {}));
    stack_.settle(warm, t, [] { return true; }, "pre-learn");
    if (stack_.app->table_size() != static_cast<std::size_t>(kSwitches * kPool) ||
        stack_.app->flows_installed() != 0)
      throw GateError("pre-learn: the app did not learn every pool MAC");
    for (auto& site : sites_) site.delivered = site.dst->received_log().size();
    // Warm-up: one latency pass over a quarter of the pools.
    latency_pass(warm, t, /*timed=*/false, kPool / 4);
    if (t.failed) throw GateError("warm-up: an operation failed");
  }

  /// Alternates a latency pass and a load pass until the time is up, so
  /// both modes sample the whole run, not one stretch of a shared machine.
  void run(double seconds, Recorder& rec, Tally& tally) override {
    std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
    do {
      latency_pass(rec, tally, true);
      if (rec.full()) break;
      load_pass(rec, tally);
    } while (now_ns() < deadline && !rec.full());
  }

  void final_check() override {
    for (std::size_t i = 0; i < sites_.size(); ++i)
      gate_table(*stack_.vfs, stack_.flows_dirs[i], *sites_[i].sw, &empty_,
                 "end of run");
  }

  Snapshot snapshot() override { return stack_.snapshot(); }
  Snapshot histograms() override { return stack_.histograms(); }

 private:
  net::Frame request_frame(const Site& site, const MacAddress& dst) {
    std::vector<std::uint8_t> payload(16);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng_());
    return net::build_udp(dst, site.src->mac(), site.src->ip(),
                          site.dst->ip(),
                          static_cast<std::uint16_t>(1024 + rng_() % 60000),
                          static_cast<std::uint16_t>(1024 + rng_() % 60000),
                          payload);
  }

  /// New frames at a site's destination host, as their destination MACs.
  std::vector<MacAddress> take_deliveries(Site& site) {
    std::vector<MacAddress> out;
    const auto& log = site.dst->received_log();
    for (; site.delivered < log.size(); ++site.delivered)
      out.push_back(frame_dst(log[site.delivered]));
    return out;
  }

  /// Latency mode: one request outstanding in the whole network, walking
  /// the pools in a seeded order; `per_site` requests per switch.
  void latency_pass(Recorder& rec, Tally& tally, bool timed,
                    int per_site = kPool) {
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t s = 0; s < sites_.size(); ++s)
      for (int k = 0; k < per_site; ++k)
        order.emplace_back(s, static_cast<std::size_t>(k));
    std::shuffle(order.begin(), order.end(), rng_);
    for (const auto& [s, k] : order) {
      if (rec.full()) break;
      Site& site = sites_[s];
      const MacAddress& mac = site.pool[k];
      net::Frame frame = request_frame(site, mac);
      std::uint64_t installed = stack_.app->flows_installed();

      rec.begin_root(Call::request);
      std::uint64_t t0 = now_ns();
      rec.call(Call::net_send, [&] { site.src->send_frame(std::move(frame)); });
      int round = 0;
      while (site.dst->received_log().size() == site.delivered) {
        if (++round > kRoundCap)
          throw GateError("request to " + mac.to_string() +
                          " was not delivered within the round cap");
        stack_.step(rec, tally);
      }
      std::uint64_t t1 = now_ns();
      rec.end_root();

      auto got = take_deliveries(site);
      if (got.size() != 1 || got[0] != mac)
        throw GateError("latency request to " + mac.to_string() +
                        " delivered the wrong frames");
      if (stack_.app->flows_installed() != installed + 1)
        throw GateError("the app did not install exactly one flow for " +
                        mac.to_string());
      ++pending_flows_;
      if (timed) {
        tally.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        tally.wall_s += seconds_between(t0, t1);
        ++tally.ops;
        ++tally.flows_committed;
      }
    }
    housekeeping(rec, tally, timed);
  }

  /// Load mode: every switch keeps kWindow requests outstanding until its
  /// pool is used up.  Times the pass from first send to last delivery.
  void load_pass(Recorder& rec, Tally& tally) {
    std::vector<std::deque<std::size_t>> queue(sites_.size());
    std::vector<std::vector<std::uint64_t>> outstanding(sites_.size());
    for (std::size_t s = 0; s < sites_.size(); ++s) {
      std::vector<std::size_t> idx(kPool);
      for (std::size_t k = 0; k < idx.size(); ++k) idx[k] = k;
      std::shuffle(idx.begin(), idx.end(), rng_);
      queue[s].assign(idx.begin(), idx.end());
    }
    std::uint64_t installed = stack_.app->flows_installed();
    std::uint64_t completed = 0;
    auto send_next = [&](std::size_t s) {
      Site& site = sites_[s];
      std::size_t k = queue[s].front();
      queue[s].pop_front();
      net::Frame frame = request_frame(site, site.pool[k]);
      outstanding[s].push_back(site.pool[k].to_u64());
      rec.call(Call::net_send, [&] { site.src->send_frame(std::move(frame)); });
    };

    rec.begin_root(Call::load_pass);
    std::uint64_t t0 = now_ns();
    for (std::size_t s = 0; s < sites_.size(); ++s)
      for (int w = 0; w < kWindow; ++w) send_next(s);
    int idle_rounds = 0;
    while (completed < sites_.size() * kPool) {
      stack_.step(rec, tally);
      bool progress = false;
      for (std::size_t s = 0; s < sites_.size(); ++s) {
        for (const MacAddress& mac : take_deliveries(sites_[s])) {
          auto& out = outstanding[s];
          auto it = std::find(out.begin(), out.end(), mac.to_u64());
          if (it == out.end())
            throw GateError("load phase delivered an unrequested frame to " +
                            mac.to_string());
          out.erase(it);
          ++completed;
          progress = true;
          if (!queue[s].empty()) send_next(s);
        }
      }
      idle_rounds = progress ? 0 : idle_rounds + 1;
      if (idle_rounds > kRoundCap)
        throw GateError("load phase: requests were not delivered within the "
                        "round cap");
    }
    std::uint64_t t1 = now_ns();
    rec.end_root();

    if (stack_.app->flows_installed() != installed + completed)
      throw GateError("load phase: the app did not install one flow per "
                      "request");
    pending_flows_ += completed;
    tally.added(completed, seconds_between(t0, t1));
    tally.ops += completed;
    housekeeping(rec, tally, true);
  }

  /// Between passes: check every table against its committed flows, then
  /// rmdir the app's flows and wait until the tables are empty.  Timed for
  /// delete_rate only.
  void housekeeping(Recorder& rec, Tally& tally, bool timed) {
    // Untimed: let the pass's last barriers land before the gate reads.
    stack_.settle(untimed_, tally, [] { return true; }, "before housekeeping");
    std::vector<std::string> paths;
    std::size_t total = 0;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      gate_table(*stack_.vfs, stack_.flows_dirs[i], *sites_[i].sw, nullptr,
                 "after a pass");
      total += sites_[i].sw->table().size();
      tally.table_max = std::max(tally.table_max, sites_[i].sw->table().size());
      auto entries = stack_.vfs->readdir(stack_.flows_dirs[i]);
      if (!check(entries ? Status{} : entries.error(), tally))
        throw GateError("readdir " + stack_.flows_dirs[i] + " failed");
      for (const auto& e : *entries)
        paths.push_back(stack_.flows_dirs[i] + "/" + e.name);
    }
    if (total != pending_flows_ || paths.size() != pending_flows_)
      throw GateError("after a pass: " + std::to_string(total) +
                      " flows on hardware, " + std::to_string(paths.size()) +
                      " flow dirs, " + std::to_string(pending_flows_) +
                      " requests served");

    rec.begin_root(Call::housekeeping);
    std::uint64_t t0 = now_ns();
    for (const auto& path : paths)
      check(rec.call(Call::rmdir, [&] { return stack_.vfs->rmdir(path); }),
            tally);
    stack_.settle(rec, tally, [&] { return stack_.tables_hold(0); },
                  "housekeeping");
    std::uint64_t t1 = now_ns();
    rec.end_root();

    for (std::size_t i = 0; i < sites_.size(); ++i)
      gate_table(*stack_.vfs, stack_.flows_dirs[i], *sites_[i].sw, &empty_,
                 "after housekeeping");
    pending_flows_ = 0;
    if (!timed) return;
    tally.deleted(paths.size(), seconds_between(t0, t1));
  }

  Stack stack_;
  std::mt19937_64 rng_;
  Recorder untimed_{false, 0, nullptr};
  std::vector<Site> sites_;
  const std::vector<std::string> empty_;
  std::uint64_t pending_flows_ = 0;  // installed since the last housekeeping
};

}  // namespace

std::unique_ptr<Workload> make_reactive(const Config& cfg, Recorder& warm) {
  return std::make_unique<Reactive>(cfg, warm);
}

}  // namespace perfbench
