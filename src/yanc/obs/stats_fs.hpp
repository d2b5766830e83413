// StatsFs: the obs registry materialized as a procfs-style file system.
//
// The paper's prescription is that *every* piece of controller state is a
// file; StatsFs applies that to the controller's own telemetry.  Each
// metric path ("driver/of/packet_in_total") becomes a read-only file in a
// directory tree, values are formatted at read time (so `cat` always sees
// the live number), histograms fan out into `_count`/`_p50`/`_p90`/`_p99`
// files, and the dbg lock-order edge graph is exposed at `dbg/lock_edges`
// (empty in release builds, where no graph is recorded).  Traces have
// their own view, /yanc/.trace (trace_fs.hpp).
//
// Mounted at /yanc/.stats (mount_stats_fs), the whole subtree is readable
// and watchable with the ordinary shell coreutils and vfs::WatchQueue
// machinery — `cat /yanc/.stats/vfs/lookup_total`, `tree /yanc/.stats`,
// watch + refresh() for change notification.
//
// The tree only ever grows: metrics register once and never unregister,
// so NodeIds handed out (and watch registrations against them) stay valid
// for the life of the file system.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "yanc/obs/metrics.hpp"
#include "yanc/vfs/filesystem.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::obs {

class StatsFs : public vfs::Filesystem {
 public:
  explicit StatsFs(std::shared_ptr<Registry> registry);

  vfs::NodeId root() const override { return kRootNode; }

  // --- namespace (read side) ---------------------------------------------
  Result<vfs::NodeId> lookup(vfs::NodeId parent,
                             const std::string& name) override;
  Result<vfs::Stat> getattr(vfs::NodeId node) override;
  Result<std::vector<vfs::DirEntry>> readdir(vfs::NodeId dir) override;
  Result<std::string> readlink(vfs::NodeId node) override;
  Result<std::string> read(vfs::NodeId node, std::uint64_t offset,
                           std::uint64_t size,
                           const vfs::Credentials& creds) override;
  Result<std::vector<std::uint8_t>> getxattr(vfs::NodeId node,
                                             const std::string& name) override;
  Result<std::vector<std::string>> listxattr(vfs::NodeId node) override;
  Status access(vfs::NodeId node, std::uint8_t want,
                const vfs::Credentials& creds) override;

  // --- mutations: everything is EROFS ------------------------------------
  Result<vfs::NodeId> mkdir(vfs::NodeId, const std::string&, std::uint32_t,
                            const vfs::Credentials&) override;
  Result<vfs::NodeId> create(vfs::NodeId, const std::string&, std::uint32_t,
                             const vfs::Credentials&) override;
  Result<vfs::NodeId> symlink(vfs::NodeId, const std::string&,
                              const std::string&,
                              const vfs::Credentials&) override;
  Status link(vfs::NodeId, vfs::NodeId, const std::string&,
              const vfs::Credentials&) override;
  Status unlink(vfs::NodeId, const std::string&,
                const vfs::Credentials&) override;
  Status rmdir(vfs::NodeId, const std::string&,
               const vfs::Credentials&) override;
  Status rename(vfs::NodeId, const std::string&, vfs::NodeId,
                const std::string&, const vfs::Credentials&) override;
  Result<std::uint64_t> write(vfs::NodeId, std::uint64_t, std::string_view,
                              const vfs::Credentials&) override;
  Status truncate(vfs::NodeId, std::uint64_t,
                  const vfs::Credentials&) override;
  Status chmod(vfs::NodeId, std::uint32_t, const vfs::Credentials&) override;
  Status chown(vfs::NodeId, vfs::Uid, vfs::Gid,
               const vfs::Credentials&) override;
  Status setxattr(vfs::NodeId, const std::string&,
                  std::vector<std::uint8_t>, const vfs::Credentials&) override;
  Status removexattr(vfs::NodeId, const std::string&,
                     const vfs::Credentials&) override;

  // --- monitoring ---------------------------------------------------------
  Result<vfs::WatchRegistry::WatchId> watch(vfs::NodeId node,
                                            std::uint32_t mask,
                                            vfs::WatchQueuePtr queue) override;
  void unwatch(vfs::WatchRegistry::WatchId id) override;

  /// Emits a `modified` event for every metric file whose formatted value
  /// changed since the previous refresh.  Watch-based consumers pair a
  /// WatchQueue with a periodic refresh() — the paper's inotify loop over
  /// controller state.  Returns the number of files that changed.
  std::size_t refresh();

  const std::shared_ptr<Registry>& registry() const noexcept {
    return registry_;
  }

 private:
  static constexpr vfs::NodeId kRootNode = 1;

  struct Node {
    vfs::FileType type = vfs::FileType::directory;
    std::string name;
    vfs::NodeId parent = vfs::kInvalidNode;
    std::string metric_path;  // full registry export path (files only)
    // Synthetic files (dbg/lock_edges): content comes from the
    // provider instead of the registry.  refresh() diffing works the same
    // way, so provider files are watchable like any metric file.
    std::function<std::string()> provider;
    std::map<std::string, vfs::NodeId> children;  // dirs only, sorted
    std::string last_value;   // last refresh()-observed content
    std::uint64_t version = 0;
  };

  /// Folds newly registered metrics into the tree.  Called (cheap
  /// generation check) at every namespace entry point.
  void sync_tree_locked();
  vfs::NodeId ensure_path_locked(const std::string& metric_path);
  std::string content_of(const Node& node) const;
  const Node* find_synced(vfs::NodeId id);

  mutable dbg::Mutex<dbg::Rank::stats_fs> mu_;
  std::shared_ptr<Registry> registry_;
  std::unordered_map<vfs::NodeId, Node> nodes_;
  std::unordered_map<std::string, vfs::NodeId> by_metric_path_;
  vfs::NodeId next_node_ = kRootNode + 1;
  std::uint64_t synced_generation_ = 0;
  std::uint64_t refresh_tick_ = 0;
  vfs::WatchRegistry watches_;
};

/// Creates a StatsFs over `vfs`'s own metrics registry and mounts it at
/// `mount_path` (default "/yanc/.stats"), creating the mount point.
Result<std::shared_ptr<StatsFs>> mount_stats_fs(
    vfs::Vfs& vfs, const std::string& mount_path = "/yanc/.stats");

}  // namespace yanc::obs
