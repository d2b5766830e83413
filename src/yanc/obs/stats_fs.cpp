#include "yanc/obs/stats_fs.hpp"

#include "yanc/dbg/lockdep.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::obs {

using vfs::Credentials;
using vfs::NodeId;

StatsFs::StatsFs(std::shared_ptr<Registry> registry)
    : registry_(std::move(registry)) {
  Node root;
  root.type = vfs::FileType::directory;
  root.name = "/";
  nodes_.emplace(kRootNode, std::move(root));
  dbg::LockGuard lock(mu_);
  // The runtime lock-order graph, as a file: `cat .../dbg/lock_edges`
  // shows every acquired-while-held edge the process has observed, and
  // yanc-analyze diffs it against the statically derived edge set.
  // Empty (not absent) in release builds.
  if (NodeId edges = ensure_path_locked("dbg/lock_edges");
      edges != vfs::kInvalidNode) {
    Node& node = nodes_[edges];
    node.metric_path.clear();
    node.provider = [] { return dbg::dump_lock_edges(); };
    node.last_value = node.provider();
  }
  sync_tree_locked();
}

NodeId StatsFs::ensure_path_locked(const std::string& metric_path) {
  NodeId cur = kRootNode;
  auto components = split_nonempty(metric_path, '/');
  for (std::size_t i = 0; i < components.size(); ++i) {
    bool leaf = i + 1 == components.size();
    Node& dir = nodes_[cur];
    auto it = dir.children.find(components[i]);
    if (it != dir.children.end()) {
      // A name can't be both a metric file and a directory; skip the
      // conflicting registration rather than corrupt the tree.
      if (leaf || nodes_[it->second].type != vfs::FileType::directory)
        return leaf ? it->second : vfs::kInvalidNode;
      cur = it->second;
      continue;
    }
    NodeId id = next_node_++;
    Node child;
    child.type = leaf ? vfs::FileType::regular : vfs::FileType::directory;
    child.name = components[i];
    child.parent = cur;
    if (leaf) {
      child.metric_path = metric_path;
      child.last_value = registry_->value_of(metric_path).value_or("");
    }
    nodes_.emplace(id, std::move(child));
    nodes_[cur].children.emplace(components[i], id);
    // New entries appearing in a watched directory are observable, like
    // procfs gaining a node.
    watches_.emit(cur, vfs::event::created, components[i]);
    cur = id;
  }
  return cur;
}

void StatsFs::sync_tree_locked() {
  std::uint64_t generation = registry_->generation();
  if (generation == synced_generation_) return;
  for (const auto& path : registry_->export_paths())
    if (by_metric_path_.find(path) == by_metric_path_.end()) {
      NodeId id = ensure_path_locked(path);
      if (id != vfs::kInvalidNode) by_metric_path_.emplace(path, id);
    }
  synced_generation_ = generation;
}

const StatsFs::Node* StatsFs::find_synced(NodeId id) {
  sync_tree_locked();
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

std::string StatsFs::content_of(const Node& node) const {
  if (node.provider) return node.provider();
  auto value = registry_->value_of(node.metric_path);
  return value ? *value + "\n" : std::string();
}

Result<NodeId> StatsFs::lookup(NodeId parent, const std::string& name) {
  dbg::LockGuard lock(mu_);
  const Node* dir = find_synced(parent);
  if (!dir) return Errc::not_found;
  if (dir->type != vfs::FileType::directory) return Errc::not_dir;
  auto it = dir->children.find(name);
  if (it == dir->children.end()) return Errc::not_found;
  return it->second;
}

Result<vfs::Stat> StatsFs::getattr(NodeId node) {
  dbg::LockGuard lock(mu_);
  const Node* n = find_synced(node);
  if (!n) return Errc::not_found;
  vfs::Stat st;
  st.ino = node;
  st.type = n->type;
  st.mode = n->type == vfs::FileType::directory ? 0555 : 0444;
  st.nlink = 1;
  st.size = n->type == vfs::FileType::directory ? n->children.size()
                                                : content_of(*n).size();
  st.version = n->version;
  st.mtime_ns = refresh_tick_;
  st.ctime_ns = 0;
  return st;
}

Result<std::vector<vfs::DirEntry>> StatsFs::readdir(NodeId dir) {
  dbg::LockGuard lock(mu_);
  const Node* n = find_synced(dir);
  if (!n) return Errc::not_found;
  if (n->type != vfs::FileType::directory) return Errc::not_dir;
  std::vector<vfs::DirEntry> out;
  out.reserve(n->children.size());
  for (const auto& [name, id] : n->children)
    out.push_back({name, id, nodes_.at(id).type});
  return out;
}

Result<std::string> StatsFs::readlink(NodeId) { return Errc::invalid_argument; }

Result<std::string> StatsFs::read(NodeId node, std::uint64_t offset,
                                  std::uint64_t size, const Credentials&) {
  dbg::LockGuard lock(mu_);
  const Node* n = find_synced(node);
  if (!n) return Errc::not_found;
  if (n->type == vfs::FileType::directory) return Errc::is_dir;
  std::string content = content_of(*n);
  if (offset >= content.size()) return std::string();
  return content.substr(offset, size);
}

Result<std::vector<std::uint8_t>> StatsFs::getxattr(NodeId,
                                                    const std::string&) {
  return Errc::not_found;
}

Result<std::vector<std::string>> StatsFs::listxattr(NodeId) {
  return std::vector<std::string>{};
}

Status StatsFs::access(NodeId node, std::uint8_t want, const Credentials&) {
  dbg::LockGuard lock(mu_);
  if (!find_synced(node)) return Errc::not_found;
  // World-readable, nothing writable — procfs semantics.
  if (want & 2) return Errc::access_denied;
  return ok_status();
}

Result<NodeId> StatsFs::mkdir(NodeId, const std::string&, std::uint32_t,
                              const Credentials&) {
  return Errc::read_only;
}
Result<NodeId> StatsFs::create(NodeId, const std::string&, std::uint32_t,
                               const Credentials&) {
  return Errc::read_only;
}
Result<NodeId> StatsFs::symlink(NodeId, const std::string&,
                                const std::string&, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::link(NodeId, NodeId, const std::string&, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::unlink(NodeId, const std::string&, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::rmdir(NodeId, const std::string&, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::rename(NodeId, const std::string&, NodeId,
                       const std::string&, const Credentials&) {
  return Errc::read_only;
}
Result<std::uint64_t> StatsFs::write(NodeId, std::uint64_t, std::string_view,
                                     const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::truncate(NodeId, std::uint64_t, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::chmod(NodeId, std::uint32_t, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::chown(NodeId, vfs::Uid, vfs::Gid, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::setxattr(NodeId, const std::string&,
                         std::vector<std::uint8_t>, const Credentials&) {
  return Errc::read_only;
}
Status StatsFs::removexattr(NodeId, const std::string&, const Credentials&) {
  return Errc::read_only;
}

Result<vfs::WatchRegistry::WatchId> StatsFs::watch(NodeId node,
                                                   std::uint32_t mask,
                                                   vfs::WatchQueuePtr queue) {
  dbg::LockGuard lock(mu_);
  if (!find_synced(node)) return Errc::not_found;
  return watches_.add(node, mask, std::move(queue));
}

void StatsFs::unwatch(vfs::WatchRegistry::WatchId id) { watches_.remove(id); }

std::size_t StatsFs::refresh() {
  dbg::LockGuard lock(mu_);
  sync_tree_locked();
  ++refresh_tick_;
  std::size_t changed = 0;
  for (auto& [id, node] : nodes_) {
    if (node.type != vfs::FileType::regular) continue;
    std::string content = content_of(node);
    if (content == node.last_value) continue;
    node.last_value = std::move(content);
    ++node.version;
    ++changed;
    watches_.emit(id, vfs::event::modified);
    if (node.parent != vfs::kInvalidNode)
      watches_.emit(node.parent, vfs::event::modified, node.name);
  }
  return changed;
}

Result<std::shared_ptr<StatsFs>> mount_stats_fs(
    vfs::Vfs& vfs, const std::string& mount_path) {
  if (auto ec = vfs.mkdir_p(mount_path, 0555, Credentials::root())) return ec;
  auto fs = std::make_shared<StatsFs>(vfs.metrics());
  if (auto ec = vfs.mount(mount_path, fs)) return ec;
  return fs;
}

}  // namespace yanc::obs
