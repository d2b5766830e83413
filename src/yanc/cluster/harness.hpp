// The active controller cluster wired end to end, for tests, benches and
// the shell demo: N nodes, each a full controller — its own Vfs, its own
// dist::ReplicatedYancFs replica mounted at /net (eventual mode, so no
// node is special), its own OfDriver, its own cluster::Manager — plus M
// simulated switches that connect to whichever node wins their shard.
//
// How a failover actually flows through the stack:
//
//   1. node k dies (kill()): its transport slot leaves, heartbeats stop.
//   2. peers' Managers notice the dead holder at the next tick; the
//      designated successor writes a claim lease (epoch+1) through its
//      replica — ordinary replicated file I/O.
//   3. claim confirmed -> on_takeover fires -> harness connects the
//      switch to the successor's driver listener *with the new epoch*.
//   4. the driver's reconnect path adopts the replicated switch
//      directory and re-pushes every committed flow (the PR-2 resync);
//      the switch-side epoch fence rejects anything the deposed primary
//      still manages to say.
//
// The strict-mode primary is deliberately not used: lease writes must
// not depend on any one node being alive, so replication runs eventual
// and LWW resolves racing claims.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "yanc/cluster/manager.hpp"
#include "yanc/dist/replicated.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/sw/switch.hpp"

namespace yanc::cluster {

struct HarnessOptions {
  std::size_t nodes = 3;
  std::size_t switches = 2;
  VirtualClock::duration link_latency = std::chrono::microseconds(100);
  std::uint64_t lease_ttl = 8;
  std::uint64_t heartbeat_ttl = 4;
  /// Base driver knobs; the harness shrinks the recovery timers on top
  /// so resync happens within a few settle rounds.
  driver::DriverOptions driver = {};
};

class Harness {
 public:
  explicit Harness(HarnessOptions options = {});
  ~Harness();

  const HarnessOptions& options() const noexcept { return options_; }

  net::Scheduler& scheduler() noexcept { return scheduler_; }
  dist::Transport& transport() noexcept { return transport_; }
  Manager& manager(std::size_t node);
  std::shared_ptr<vfs::Vfs> vfs(std::size_t node);
  driver::OfDriver& driver(std::size_t node);
  sw::Switch& switch_at(std::uint64_t dpid) { return *switches_[dpid - 1]; }
  bool alive(std::size_t node) const;

  /// One cluster round: every live manager ticks, then drivers, switches
  /// and the scheduler run until the round's work drains.
  void tick();
  /// `rounds` ticks — enough for the startup grace to pass, elections
  /// to confirm and resyncs to land when nothing is faulted.
  void settle(std::size_t rounds = 20);

  /// Node death: transport slot leaves (in-flight messages to it die),
  /// driver and manager stop being driven.  The node's replica keeps its
  /// state for a later revive.
  void kill(std::size_t node);
  /// Revival under a new transport incarnation; anti-entropy catches the
  /// replica up on what it missed while dead.
  void revive(std::size_t node);

  /// One full anti-entropy round across live nodes (repairs divergence
  /// that faulted links caused).
  void anti_entropy();

  /// The node that currently owns `dpid` from its own chair (nullopt
  /// when none does).  `owners_of` returns every node claiming it — the
  /// split-brain probe; chaos asserts it converges to size 1.
  std::optional<std::size_t> owner_of(std::uint64_t dpid) const;
  std::vector<std::size_t> owners_of(std::uint64_t dpid) const;

  /// Commits a flow through `node`'s replica (ordinary file I/O).
  [[nodiscard]] Status commit_flow(std::size_t node, std::uint64_t dpid,
                                   const std::string& name,
                                   const flow::FlowSpec& spec);
  /// The switch directory (/net/switches/<name>) for `dpid` as seen from
  /// `node`, found by id-file scan (names are driver-assigned).
  Result<std::string> switch_dir(std::size_t node, std::uint64_t dpid) const;
  /// Committed flow specs for `dpid` in `node`'s replica, sorted.
  std::vector<std::string> fs_flows(std::size_t node,
                                    std::uint64_t dpid) const;
  /// Hardware flow specs on the switch, sorted — chaos asserts
  /// hw_flows == fs_flows on the surviving primary after settling.
  std::vector<std::string> hw_flows(std::uint64_t dpid) const;

 private:
  struct Node;

  void connect_switch(std::size_t node, std::uint64_t dpid,
                      std::uint64_t epoch);

  HarnessOptions options_;
  net::Scheduler scheduler_;
  net::Network network_;
  dist::Transport transport_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<sw::Switch>> switches_;
  /// tick() counter and, per (node, dpid), the round of the last re-home
  /// dial — the throttle for the owner-reconnect reconciler.
  std::uint64_t round_ = 0;
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t> last_dial_;
};

}  // namespace yanc::cluster
