// Per-node cluster manager: partitions switch ownership across N
// controller instances and fails shards over when their holder dies —
// with every bit of coordination state living in the (replicated) file
// system, true to the paper's thesis.  No side-channel RPC: nodes see
// each other only through heartbeat files and lease files riding dist
// replication (docs/ROBUSTNESS.md "Cluster failover").
//
// Layout under `cluster_dir` (default /net/.cluster — a hidden dir the
// netfs schema admits as plain replicated territory):
//
//   nodes/<id>            heartbeat: the node's latest cluster tick
//   shards/<dpid>/lease   "holder=<id> epoch=<n> expiry=<tick>"
//
// Protocol, all tick()-driven so chaos tests are deterministic:
//
//   heartbeat   every tick, write nodes/<id> = current tick.  A node is
//               live iff its heartbeat is within `heartbeat_ttl` ticks.
//   election    a shard whose lease is missing, unparseable, expired,
//               epoch-stale, or held by a dead node is leaderless.  The
//               designated claimant is the live node with the lowest
//               dpid-rotated rank (degenerates to lowest-live-id; the
//               rotation spreads shards across nodes).  It writes a
//               claim {self, max_epoch_seen+1, now+lease_ttl} via
//               atomic replace and waits one tick: if the re-read still
//               shows its claim (LWW settled any race), ownership is
//               confirmed and on_takeover fires with the new epoch.
//   renewal     the holder rewrites expiry when <= lease_ttl/2 remains.
//   fencing     epochs only move up.  A node that reads a lease for its
//               shard with a higher epoch releases immediately
//               (on_release) — its driver egress gate closes before the
//               switch-side epoch fence even has to fire.
//
// Clock: ticks are Lamport-style — each tick() fast-forwards past the
// largest heartbeat observed, so a node revived after a long kill cannot
// claim with timestamps from the past.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "yanc/cluster/lease.hpp"
#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::cluster {

struct ManagerOptions {
  /// This node's id (also the lease holder id it writes).
  std::uint64_t node_id = 0;
  /// Number of nodes in the cluster (for the rank rotation).
  std::uint64_t cluster_size = 1;
  /// Coordination directory (created on construction if absent).
  std::string cluster_dir = "/net/.cluster";
  /// Ticks a lease lives from claim/renewal.
  std::uint64_t lease_ttl = 8;
  /// Ticks of heartbeat silence before a node counts as dead.  Must be
  /// below lease_ttl or a dead holder's lease could outlive suspicion.
  std::uint64_t heartbeat_ttl = 4;
  /// Wall clock for the failover-latency histogram (defaults to the obs
  /// steady clock; tests inject virtual time).
  std::function<std::uint64_t()> now_ns;
};

class Manager {
 public:
  /// `vfs` must have the replicated tree mounted; the manager only ever
  /// touches paths under options.cluster_dir.
  Manager(std::shared_ptr<vfs::Vfs> vfs, ManagerOptions options);

  const ManagerOptions& options() const noexcept { return options_; }

  /// Fired on confirmed takeover of a shard: (dpid, fencing epoch).  The
  /// harness connects the node's driver to the switch here.  Fired
  /// outside the manager lock.
  void on_takeover(std::function<void(std::uint64_t, std::uint64_t)> fn);
  /// Fired when ownership is lost (higher-epoch lease observed, or our
  /// lease expired unrenewed).  Fired outside the manager lock.
  void on_release(std::function<void(std::uint64_t)> fn);

  /// Declares a shard (registers shards/<dpid>/, usually done by one
  /// node; the directory replicates to the rest, who discover it via
  /// their watch on shards/).
  [[nodiscard]] Status add_shard(std::uint64_t dpid);

  /// One protocol step: heartbeat, scan, elect/renew/release.  The
  /// harness interleaves ticks with replication delivery, so everything
  /// a tick writes is seen by peers some ticks later — the protocol
  /// tolerates that lag by construction (TTLs are several ticks).
  void tick();

  /// Does this node currently hold a confirmed lease for `dpid`?
  /// Drivers use this as their egress gate, so it must be cheap.
  bool owns(std::uint64_t dpid) const;
  /// Epoch of our confirmed lease on `dpid` (0 when not held).
  std::uint64_t epoch_of(std::uint64_t dpid) const;
  /// Every dpid currently owned (shell's cluster map).
  std::vector<std::uint64_t> owned_shards() const;
  /// Current cluster tick (Lamport-merged).
  std::uint64_t now_tick() const;

  /// Registers cluster/{election,takeover,ownership_lost,lease_renew,
  /// lease_expired,lease_event}_total, cluster/failover_latency_ns and
  /// cluster/shards_owned in `registry` (typically vfs->metrics()).
  void bind_metrics(obs::Registry& registry);

 private:
  /// Per-shard view from this node's chair.
  struct Shard {
    /// Last lease read back (nullopt: missing/unparseable).
    std::optional<Lease> lease;
    /// We wrote a claim and are waiting one tick to confirm it.
    bool claiming = false;
    Lease claim;
    /// Confirmed ownership (claim survived the LWW re-read).
    bool owned = false;
    /// Highest epoch ever observed for this shard (fencing floor).
    std::uint64_t max_epoch = 0;
    /// now_ns at the moment the shard was first seen leaderless — the
    /// start of the failover-latency measurement (0 when led).
    std::uint64_t down_since_ns = 0;
  };

  std::string shards_dir() const { return options_.cluster_dir + "/shards"; }
  std::string lease_path(std::uint64_t dpid) const;
  std::string heartbeat_path(std::uint64_t node) const;

  /// Lowest value wins the election for `dpid`; rotating by dpid spreads
  /// shards across nodes while staying a total order per shard.
  std::uint64_t rank_for(std::uint64_t node, std::uint64_t dpid) const;
  bool node_live(std::uint64_t node,
                 const std::map<std::uint64_t, std::uint64_t>& beats) const;
  /// Reads live-node heartbeats (nodes/ dir scan).
  std::map<std::uint64_t, std::uint64_t> read_heartbeats() const;
  /// Discovers shards/<dpid> dirs into shards_ (drains the watch queue;
  /// full readdir rescan on first run or overflow).
  void discover_shards();
  std::uint64_t wall_ns() const;

  std::shared_ptr<vfs::Vfs> vfs_;
  ManagerOptions options_;

  mutable dbg::Mutex<dbg::Rank::cluster_manager> mu_;
  std::uint64_t tick_ = 0;
  std::map<std::uint64_t, Shard> shards_;
  bool scanned_once_ = false;
  std::shared_ptr<vfs::WatchQueue> watch_queue_;
  std::shared_ptr<vfs::WatchHandle> watch_handle_;
  std::function<void(std::uint64_t, std::uint64_t)> takeover_cb_;
  std::function<void(std::uint64_t)> release_cb_;

  obs::Counter* election_metric_ = nullptr;
  obs::Counter* takeover_metric_ = nullptr;
  obs::Counter* lost_metric_ = nullptr;
  obs::Counter* renew_metric_ = nullptr;
  obs::Counter* expired_metric_ = nullptr;
  obs::Counter* lease_event_metric_ = nullptr;
  obs::Histogram* failover_latency_metric_ = nullptr;
  obs::Gauge* shards_owned_metric_ = nullptr;
};

}  // namespace yanc::cluster
