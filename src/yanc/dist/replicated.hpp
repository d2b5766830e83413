// ReplicatedYancFs: a yanc file system whose mutations replicate across a
// cluster — the paper's §6 claim made concrete: "you can layer any number
// of distributed file systems on top of the yanc file system and arrive at
// a distributed SDN controller."
//
// Replication happens *below* the Filesystem API, so applications,
// drivers, and shell tools on every node are completely unaware of it:
// a flow directory committed on node A materializes on node B, where B's
// driver pushes it into B's switches (exactly the paper's NFS proof of
// concept, and its vision of switches participating directly, §7.1).
//
// Two consistency models, selectable per subtree via the extended
// attribute `user.yanc.consistency` (§5.1: "we plan on utilizing
// [extended attributes] to specify consistency requirements"):
//   strict   — NFS-like primary ordering: mutations are routed through the
//              primary synchronously (the origin pays a round trip,
//              recorded in sync_delay_ns) and fan out from there.
//   eventual — WheelFS-like: apply locally at once, broadcast
//              asynchronously, last-writer-wins on conflicting content.
#pragma once

#include <optional>

#include "yanc/dist/transport.hpp"
#include "yanc/netfs/yancfs.hpp"

namespace yanc::dist {

enum class Mode : std::uint8_t { strict, eventual };

inline constexpr const char* kConsistencyXattr = "user.yanc.consistency";

struct ReplicaOptions {
  Mode default_mode = Mode::strict;
};

class ReplicatedYancFs : public netfs::YancFs {
 public:
  explicit ReplicatedYancFs(ReplicaOptions options = {});

  /// Wires the replica into a cluster.  `primary` orders strict-mode ops.
  void attach(Transport* transport, Transport::NodeId self,
              Transport::NodeId primary);

  /// Self-service cluster wiring: joins `transport` (registering this
  /// replica's op-log handler) and attaches, returning the node id the
  /// transport assigned.  The external equivalent of what dist::Cluster
  /// does for its own members — cluster::Harness uses it because
  /// handle_message is otherwise private.
  Transport::NodeId join_cluster(Transport& transport,
                                 Transport::NodeId primary = 0);
  /// Re-registers the op-log handler after Transport::leave(self) — node
  /// revival.  The transport bumps the incarnation, so anything in flight
  /// to the dead node stays dead.
  void rejoin_cluster();

  // Mutating operations (overridden to replicate after local success).
  Result<vfs::NodeId> mkdir(vfs::NodeId parent, const std::string& name,
                            std::uint32_t mode,
                            const vfs::Credentials& creds) override;
  Result<vfs::NodeId> create(vfs::NodeId parent, const std::string& name,
                             std::uint32_t mode,
                             const vfs::Credentials& creds) override;
  Result<std::uint64_t> write(vfs::NodeId node, std::uint64_t offset,
                              std::string_view data,
                              const vfs::Credentials& creds) override;
  Status truncate(vfs::NodeId node, std::uint64_t size,
                  const vfs::Credentials& creds) override;
  Result<std::uint64_t> replace(vfs::NodeId node, std::string_view data,
                                const vfs::Credentials& creds) override;
  Status unlink(vfs::NodeId parent, const std::string& name,
                const vfs::Credentials& creds) override;
  Status rmdir(vfs::NodeId parent, const std::string& name,
               const vfs::Credentials& creds) override;
  Status rename(vfs::NodeId old_parent, const std::string& old_name,
                vfs::NodeId new_parent, const std::string& new_name,
                const vfs::Credentials& creds) override;
  Result<vfs::NodeId> symlink(vfs::NodeId parent, const std::string& name,
                              const std::string& target,
                              const vfs::Credentials& creds) override;
  Status chmod(vfs::NodeId node, std::uint32_t mode,
               const vfs::Credentials& creds) override;
  Status chown(vfs::NodeId node, vfs::Uid uid, vfs::Gid gid,
               const vfs::Credentials& creds) override;
  Status setxattr(vfs::NodeId node, const std::string& name,
                  std::vector<std::uint8_t> value,
                  const vfs::Credentials& creds) override;
  Status removexattr(vfs::NodeId node, const std::string& name,
                     const vfs::Credentials& creds) override;

  /// Registers the netfs counters (YancFs::bind_metrics) plus
  /// dist/replication_{apply,conflict}_total and dist/replication_lag_ns
  /// in `registry` (typically the registry of the Vfs this replica is
  /// mounted into).  Lag is virtual time from the origin's emit to this
  /// node's apply.  Also registers dist/anti_entropy_{round,repair}_total.
  void bind_metrics(obs::Registry& registry);

  /// Anti-entropy (§6 made honest about lossy links): broadcasts a
  /// summary of this replica's whole tree — every path with its
  /// last-writer version and content, plus deletion tombstones.
  /// Receivers repair divergence: recreate what they missed, adopt newer
  /// content, and honour deletions they never saw.  Op-log replication
  /// keeps replicas converged when every message arrives; this pass
  /// restores convergence when some did not.  One full round =
  /// Cluster::anti_entropy_round() (every node broadcasts once).
  void send_anti_entropy();

  // --- statistics --------------------------------------------------------
  std::uint64_t local_ops() const noexcept { return local_ops_; }
  std::uint64_t remote_ops_applied() const noexcept { return remote_ops_; }
  std::uint64_t conflicts_ignored() const noexcept { return conflicts_; }
  /// Total synchronous delay charged by strict-mode primary round trips.
  std::uint64_t sync_delay_ns() const noexcept { return sync_delay_ns_; }
  /// Nodes/files this replica fixed up during anti-entropy merges.
  std::uint64_t repairs_applied() const noexcept { return repairs_; }

 private:
  friend class Cluster;

  struct Op;
  struct Snapshot;
  void handle_message(Transport::NodeId from,
                      const std::vector<std::uint8_t>& bytes);
  /// Applies a (possibly remote) op; returns false on conflict.
  bool apply(const Op& op);
  /// Replicates an op after local success.
  void emit(Op op);
  Mode mode_for(vfs::NodeId node) const;
  Result<vfs::NodeId> resolve_local(const std::string& path);

  using Version = std::pair<std::uint64_t, std::uint64_t>;  // (ts, origin)
  Version version_of(const std::string& path) const;
  Version newest_in_subtree(const std::string& path) const;
  /// True when `path` (or an ancestor) has a tombstone at least as new
  /// as `version`.
  bool tombstoned(const std::string& path, Version version) const;
  void record_tombstone(const std::string& path, Version version);
  /// Folds one (local or remote) op into write_versions_/tombstones_.
  void note_version(const Op& op);
  void snapshot_subtree(vfs::NodeId node, const std::string& path,
                        Snapshot& snap);
  void apply_anti_entropy(const Snapshot& snap);
  void remove_subtree_local(const std::string& path);
  void merge_entry_local(std::uint8_t type, const std::string& path,
                         Version version, const std::string& data);

  ReplicaOptions options_;
  Transport* transport_ = nullptr;
  Transport::NodeId self_ = 0;
  Transport::NodeId primary_ = 0;
  bool applying_remote_ = false;
  std::uint64_t lamport_ = 0;
  // Last-writer-wins bookkeeping: path -> (ts, origin) of the newest
  // content write or node creation seen for that path.
  std::map<std::string, Version> write_versions_;
  // Deletions survive as tombstones so anti-entropy never resurrects a
  // path a newer unlink/rmdir removed.  A tombstone covers its subtree.
  std::map<std::string, Version> tombstones_;
  std::uint64_t local_ops_ = 0;
  std::uint64_t remote_ops_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t sync_delay_ns_ = 0;
  std::uint64_t repairs_ = 0;
  obs::Counter* apply_metric_ = nullptr;
  obs::Counter* conflict_metric_ = nullptr;
  obs::Counter* ae_round_metric_ = nullptr;
  obs::Counter* ae_repair_metric_ = nullptr;
  obs::Histogram* lag_metric_ = nullptr;
};

struct ClusterOptions {
  std::size_t nodes = 2;
  VirtualClock::duration link_latency = std::chrono::microseconds(500);
  Mode default_mode = Mode::strict;
};

/// A cluster of replicated yanc file systems over one simulated transport.
/// Node 0 is the primary for strict-mode subtrees.
class Cluster {
 public:
  Cluster(net::Scheduler& scheduler, ClusterOptions options);

  std::size_t size() const noexcept { return replicas_.size(); }
  std::shared_ptr<ReplicatedYancFs> fs(std::size_t node) {
    return replicas_.at(node);
  }
  Transport& transport() noexcept { return transport_; }

  void partition(std::size_t a, std::size_t b) {
    transport_.set_partitioned(a, b, true);
  }
  void heal(std::size_t a, std::size_t b) {
    transport_.set_partitioned(a, b, false);
  }

  /// One anti-entropy round: every replica broadcasts its tree summary.
  /// Run the scheduler afterwards, then repeat once more if repairs on
  /// one node must propagate knowledge back to the others.
  void anti_entropy_round() {
    for (auto& replica : replicas_) replica->send_anti_entropy();
  }

 private:
  Transport transport_;
  std::vector<std::shared_ptr<ReplicatedYancFs>> replicas_;
};

}  // namespace yanc::dist
