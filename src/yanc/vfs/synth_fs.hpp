// SynthFs: a synthetic file system whose files are callbacks.
//
// Linux serves procfs and sysfs from one layer that gives each node a show
// (read) and optionally a store (write) callback.  SynthFs is that layer
// for the controller's control trees: /yanc/.stats (metrics), /yanc/.trace
// (causal tracing) and /yanc/.faults (fault injection) are each a SynthFs:
//
//   - A file renders its content from its read callback at every read, so
//     `cat` always shows the live value.
//   - A file may also have a write callback.  Writes are whole values
//     (`echo x > file`); the callback parses before it applies, so a
//     rejected write changes nothing.  A successful write emits `modified`
//     on the file and on its directory.
//   - A listed directory (`by-id/`) names its entries, in order, from a
//     callback each time it is read; each entry is a read-only file
//     rendered by name.
//   - refresh() re-renders every file and emits `modified` for each one
//     whose content changed since the previous refresh.
//
// The namespace belongs to the code that builds the tree: every namespace
// or metadata mutation (mkdir, unlink, rename, chmod, setxattr, ...)
// returns EPERM.  A node keeps its id for the life of the file system; an
// entry of a listed directory keeps its id while it stays listed.
//
// Callbacks and watch emission run outside the one lock, so that lock is a
// leaf in the lock graph: a callback may take any lock, and may add files.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/vfs/filesystem.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::vfs {

class SynthFs : public Filesystem {
 public:
  /// Renders a file's current content.
  using ReadFn = std::function<std::string()>;
  /// Parses, then applies, one whole-value write.
  using WriteFn = std::function<Status(std::string_view)>;
  /// Names the entries a listed directory holds now, in readdir order.
  using ListFn = std::function<std::vector<std::string>()>;
  /// Renders one entry of a listed directory; not_found once it is gone.
  using EntryFn = std::function<Result<std::string>(const std::string&)>;
  /// Runs before every lookup, readdir and refresh, so a tree that mirrors
  /// a growing source (the metrics registry) can add what it is missing.
  using SyncFn = std::function<void(SynthFs&)>;

  explicit SynthFs(SyncFn sync = {});

  /// Adds the file `path` ("dir/sub/name"), creating missing directories,
  /// and emits `created` on each directory that gains an entry.  Adding an
  /// existing file returns its node and keeps its callbacks.  Returns
  /// kInvalidNode when the path runs into a node of the other type.
  NodeId add_file(std::string_view path, ReadFn read, WriteFn write = {});
  /// Adds the listed directory `path`; kInvalidNode if the path is taken.
  NodeId add_listed_dir(std::string_view path, ListFn list, EntryFn entry);

  /// Emits `modified` for every file whose content changed since the
  /// previous refresh (or since it was added).  Watchers pair a WatchQueue
  /// with periodic refresh() calls, the inotify loop over controller
  /// state.  Returns the number of files that changed.
  std::size_t refresh();

  NodeId root() const override { return kRoot; }

  Result<NodeId> lookup(NodeId parent, const std::string& name) override;
  Result<Stat> getattr(NodeId node) override;
  Result<std::vector<DirEntry>> readdir(NodeId dir) override;
  Result<std::string> readlink(NodeId node) override;
  Result<std::string> read(NodeId node, std::uint64_t offset,
                           std::uint64_t size,
                           const Credentials& creds) override;
  Result<std::uint64_t> write(NodeId node, std::uint64_t offset,
                              std::string_view data,
                              const Credentials& creds) override;
  Status truncate(NodeId node, std::uint64_t size,
                  const Credentials& creds) override;
  Status access(NodeId node, std::uint8_t want,
                const Credentials& creds) override;
  Result<std::vector<std::uint8_t>> getxattr(NodeId node,
                                             const std::string& name) override;
  Result<std::vector<std::string>> listxattr(NodeId node) override;

  Result<NodeId> mkdir(NodeId, const std::string&, std::uint32_t,
                       const Credentials&) override;
  Result<NodeId> create(NodeId, const std::string&, std::uint32_t,
                        const Credentials&) override;
  Result<NodeId> symlink(NodeId, const std::string&, const std::string&,
                         const Credentials&) override;
  Status link(NodeId, NodeId, const std::string&, const Credentials&) override;
  Status unlink(NodeId, const std::string&, const Credentials&) override;
  Status rmdir(NodeId, const std::string&, const Credentials&) override;
  Status rename(NodeId, const std::string&, NodeId, const std::string&,
                const Credentials&) override;
  Status chmod(NodeId, std::uint32_t, const Credentials&) override;
  Status chown(NodeId, Uid, Gid, const Credentials&) override;
  Status setxattr(NodeId, const std::string&, std::vector<std::uint8_t>,
                  const Credentials&) override;
  Status removexattr(NodeId, const std::string&, const Credentials&) override;

  Result<WatchRegistry::WatchId> watch(NodeId node, std::uint32_t mask,
                                       WatchQueuePtr queue) override;
  void unwatch(WatchRegistry::WatchId id) override;

 private:
  static constexpr NodeId kRoot = 1;

  struct Node {
    FileType type = FileType::directory;
    std::string name;
    NodeId parent = kInvalidNode;
    // Set once when the node is added and never reassigned, so they are
    // called through a pointer after the lock is dropped.  A listed
    // directory's entries have no read: their parent's entry renders them.
    ReadFn read;
    WriteFn write;
    ListFn list;
    EntryFn entry;
    std::map<std::string, NodeId> children;  // directories, sorted
    std::string last_value;  // content at the previous refresh()
    std::uint64_t version = 0;
  };

  NodeId add(std::string_view path, Node leaf);
  /// Get-or-create the node of entry `name` in listed directory `dir`.
  NodeId entry_locked(NodeId dir, const std::string& name);
  /// The content of file `id`, rendered outside the lock.
  Result<std::string> render(NodeId id);
  void sync() {
    if (sync_) sync_(*this);
  }

  const SyncFn sync_;
  mutable dbg::Mutex<dbg::Rank::synth_fs> mu_;
  // unordered_map never moves its elements, so a Node outlives the
  // lock it was found under until it is erased; only listed directory
  // entries ever are.
  std::unordered_map<NodeId, Node> nodes_;
  NodeId next_node_ = kRoot + 1;
  std::uint64_t refresh_tick_ = 0;
  WatchRegistry watches_;
};

/// Serves `vfs`'s metrics registry at `mount_path`: each metric path
/// ("driver/of/packet_in_total") is a read-only file, histograms fan out
/// into `_count`/`_p50`/`_p90`/`_p99` files, and `dbg/lock_edges` holds
/// the runtime lock-order graph (empty in release builds).  Metrics
/// registered after the mount appear without a remount.
Result<std::shared_ptr<SynthFs>> mount_stats_fs(
    Vfs& vfs, const std::string& mount_path = "/yanc/.stats");

/// Serves `tracer` (default: the process tracer) at `mount_path` and
/// binds its per-stage histograms into `vfs`'s metrics registry:
///
///   ctl          write obs::apply_trace_ctl lines; read shows the grammar
///   status       what is in force, plus event and in-flight counts
///   export.json  the whole ring as Chrome trace_event JSON
///   by-id/<id>   one trace as an indented span tree
Result<std::shared_ptr<SynthFs>> mount_trace_fs(
    Vfs& vfs, obs::Tracer* tracer = nullptr,
    const std::string& mount_path = "/yanc/.trace");

}  // namespace yanc::vfs
