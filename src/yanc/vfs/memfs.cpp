#include "yanc/vfs/memfs.hpp"

#include <algorithm>
#include <cassert>

namespace yanc::vfs {
namespace {

bool valid_name(const std::string& name, std::size_t name_max) {
  if (name.empty() || name == "." || name == "..") return false;
  if (name.size() > name_max) return false;
  return name.find('/') == std::string::npos &&
         name.find('\0') == std::string::npos;
}

}  // namespace

MemFs::MemFs(MemFsOptions options) : options_(options) {
  Inode root;
  root.type = FileType::directory;
  root.mode = 0755;
  root.nlink = 2;
  inodes_.emplace(kRootNode, std::move(root));
}

MemFs::MutationScope::~MutationScope() {
  if (fs_.pending_actions_.empty()) return;
  std::vector<PendingAction> batch;
  batch.swap(fs_.pending_actions_);
  // Take the fan-out order lock before dropping mu_, so events from
  // consecutive mutations reach consumer queues in commit order.  Consumer
  // queues are only ever touched after mu_ is released (the lock-order
  // hazard this design removes).
  dbg::LockGuard order(fs_.emit_mu_);
  // Guard scopes cannot express this overlap: emit_mu_ must be taken
  // before mu_ drops so fan-out preserves commit order (rank order stays
  // vfs_namespace -> vfs_emit).
  // yanc-analyze: allow(manual-lock) ordered hand-off, see comment above
  lock_.unlock();
  for (PendingAction& a : batch) {
    if (a.kind == PendingAction::Kind::emit)
      fs_.watches_.emit(a.ev.node, a.ev.mask, a.ev.name, a.ev.cookie);
    else
      fs_.watches_.drop_node(a.ev.node);
  }
}

void MemFs::queue_event_locked(NodeId node, std::uint32_t mask,
                               std::string name, std::uint32_t cookie) {
  pending_actions_.push_back(PendingAction{
      PendingAction::Kind::emit, Event{mask, node, std::move(name), cookie}});
}

void MemFs::queue_drop_locked(NodeId node) {
  pending_actions_.push_back(
      PendingAction{PendingAction::Kind::drop, Event{0, node, {}, 0}});
}

MemFs::Inode* MemFs::find(NodeId id) {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

const MemFs::Inode* MemFs::find(NodeId id) const {
  auto it = inodes_.find(id);
  return it == inodes_.end() ? nullptr : &it->second;
}

Status MemFs::check_access_locked(const Inode& node, std::uint8_t want,
                                  const Credentials& creds) const {
  if (node.acl) {
    return node.acl->permits(creds, node.uid, node.gid, want)
               ? ok_status()
               : make_error_code(Errc::access_denied);
  }
  if (creds.is_root()) return ok_status();
  std::uint32_t shift;
  if (creds.uid == node.uid)
    shift = 6;
  else if (creds.in_group(node.gid))
    shift = 3;
  else
    shift = 0;
  std::uint8_t granted = static_cast<std::uint8_t>((node.mode >> shift) & 7);
  return (granted & want) == want ? ok_status()
                                  : make_error_code(Errc::access_denied);
}

Result<NodeId> MemFs::new_node_locked(FileType type, std::uint32_t mode,
                                      const Credentials& creds) {
  if (options_.max_inodes && inodes_.size() >= options_.max_inodes)
    return Errc::no_space;
  NodeId id = next_node_++;
  Inode node;
  node.type = type;
  node.mode = mode & mode::all;
  node.uid = creds.uid;
  node.gid = creds.gid;
  node.nlink = type == FileType::directory ? 2 : 1;
  node.mtime_ns = node.ctime_ns = now_ns();
  inodes_.emplace(id, std::move(node));
  return id;
}

Result<NodeId> MemFs::add_child_locked(NodeId parent, const std::string& name,
                                       FileType type, std::uint32_t mode,
                                       const Credentials& creds) {
  Inode* dir = find(parent);
  if (!dir) return Errc::not_found;
  if (dir->type != FileType::directory) return Errc::not_dir;
  if (name.size() > options_.name_max) return Errc::name_too_long;
  if (!valid_name(name, options_.name_max)) return Errc::invalid_argument;
  if (auto st = check_access_locked(*dir, 2 /*write*/, creds); st) return st;
  if (dir->children.count(name)) return Errc::exists;

  auto id = new_node_locked(type, mode, creds);
  if (!id) return id;
  dir = find(parent);  // re-find: map may have rehashed
  dir->children.emplace(name, *id);
  if (type == FileType::directory) ++dir->nlink;
  touch_locked(*dir);
  Inode* child = find(*id);
  child->parent_hint = parent;
  child->name_hint = name;
  queue_event_locked(parent, event::created, name);
  return id;
}

void MemFs::touch_locked(Inode& node) {
  node.mtime_ns = now_ns();
  ++node.version;
}

void MemFs::emit_node_event_locked(NodeId node, std::uint32_t mask) {
  queue_event_locked(node, mask);
  const Inode* ino = find(node);
  if (ino && ino->parent_hint != kInvalidNode)
    queue_event_locked(ino->parent_hint, mask, ino->name_hint);
}

Result<NodeId> MemFs::lookup_locked(NodeId parent,
                                    const std::string& name) const {
  const Inode* dir = find(parent);
  if (!dir) return Errc::not_found;
  if (dir->type != FileType::directory) return Errc::not_dir;
  if (name == ".") return parent;
  auto it = dir->children.find(name);
  if (it == dir->children.end()) return Errc::not_found;
  return it->second;
}

Result<NodeId> MemFs::lookup(NodeId parent, const std::string& name) {
  dbg::SharedLock lock(mu_);
  return lookup_locked(parent, name);
}

Result<Stat> MemFs::getattr(NodeId node) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  // Content size/version/mtime may be advancing under a concurrent
  // shared-lock write(); the shard lock makes this snapshot consistent.
  dbg::SharedLock data_lock(shard_of(node));
  Stat st;
  st.ino = node;
  st.type = ino->type;
  st.mode = ino->mode;
  st.uid = ino->uid;
  st.gid = ino->gid;
  st.nlink = ino->nlink;
  st.size = ino->type == FileType::directory ? ino->children.size()
            : ino->type == FileType::symlink ? ino->target.size()
                                             : ino->data.size();
  st.version = ino->version;
  st.mtime_ns = ino->mtime_ns;
  st.ctime_ns = ino->ctime_ns;
  return st;
}

Result<std::vector<DirEntry>> MemFs::readdir(NodeId dir_id) {
  dbg::SharedLock lock(mu_);
  const Inode* dir = find(dir_id);
  if (!dir) return Errc::not_found;
  if (dir->type != FileType::directory) return Errc::not_dir;
  std::vector<DirEntry> out;
  out.reserve(dir->children.size());
  for (const auto& [name, id] : dir->children) {
    const Inode* child = find(id);
    out.push_back(DirEntry{name, id,
                           child ? child->type : FileType::regular});
  }
  return out;
}

Result<NodeId> MemFs::mkdir_locked(NodeId parent, const std::string& name,
                                   std::uint32_t mode,
                                   const Credentials& creds) {
  auto id = add_child_locked(parent, name, FileType::directory, mode, creds);
  if (id) on_mkdir(*id, parent, name, creds);
  return id;
}

Result<NodeId> MemFs::mkdir(NodeId parent, const std::string& name,
                            std::uint32_t mode, const Credentials& creds) {
  MutationScope scope(*this);
  return mkdir_locked(parent, name, mode, creds);
}

Result<NodeId> MemFs::create_locked(NodeId parent, const std::string& name,
                                    std::uint32_t mode,
                                    const Credentials& creds) {
  return add_child_locked(parent, name, FileType::regular, mode, creds);
}

Result<NodeId> MemFs::create(NodeId parent, const std::string& name,
                             std::uint32_t mode, const Credentials& creds) {
  MutationScope scope(*this);
  return create_locked(parent, name, mode, creds);
}

Result<NodeId> MemFs::symlink_locked(NodeId parent, const std::string& name,
                                     const std::string& target,
                                     const Credentials& creds) {
  if (auto st = on_symlink(parent, name, target); st) return st;
  auto id = add_child_locked(parent, name, FileType::symlink, 0777, creds);
  if (!id) return id;
  find(*id)->target = target;
  return id;
}

Result<NodeId> MemFs::symlink(NodeId parent, const std::string& name,
                              const std::string& target,
                              const Credentials& creds) {
  MutationScope scope(*this);
  return symlink_locked(parent, name, target, creds);
}

Result<std::string> MemFs::readlink(NodeId node) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  if (ino->type != FileType::symlink) return Errc::invalid_argument;
  return ino->target;
}

Status MemFs::link(NodeId node, NodeId parent, const std::string& name,
                   const Credentials& creds) {
  MutationScope scope(*this);
  Inode* target = find(node);
  if (!target) return make_error_code(Errc::not_found);
  if (target->type == FileType::directory)
    return make_error_code(Errc::not_permitted);  // no hard links to dirs
  Inode* dir = find(parent);
  if (!dir) return make_error_code(Errc::not_found);
  if (dir->type != FileType::directory) return make_error_code(Errc::not_dir);
  if (!valid_name(name, options_.name_max))
    return make_error_code(Errc::invalid_argument);
  if (auto st = check_access_locked(*dir, 2, creds); st) return st;
  if (dir->children.count(name)) return make_error_code(Errc::exists);
  dir->children.emplace(name, node);
  ++target->nlink;
  target->ctime_ns = now_ns();
  touch_locked(*dir);
  queue_event_locked(parent, event::created, name);
  return ok_status();
}

void MemFs::destroy_subtree_locked(NodeId node) {
  Inode* ino = find(node);
  if (!ino) return;
  if (ino->type == FileType::directory) {
    // Copy child list: erase mutates the map.
    std::vector<std::pair<std::string, NodeId>> children(
        ino->children.begin(), ino->children.end());
    for (auto& [name, child] : children) destroy_subtree_locked(child);
    ino = find(node);
  }
  if (ino->type == FileType::regular)
    bytes_used_.fetch_sub(ino->data.size(), std::memory_order_relaxed);
  emit_node_event_locked(node, event::delete_self);
  queue_drop_locked(node);
  on_remove_node(node);
  inodes_.erase(node);
}

Status MemFs::unlink_locked(NodeId parent, const std::string& name,
                            const Credentials& creds) {
  Inode* dir = find(parent);
  if (!dir) return make_error_code(Errc::not_found);
  if (dir->type != FileType::directory) return make_error_code(Errc::not_dir);
  auto it = dir->children.find(name);
  if (it == dir->children.end()) return make_error_code(Errc::not_found);
  Inode* target = find(it->second);
  if (target && target->type == FileType::directory)
    return make_error_code(Errc::is_dir);
  if (auto st = check_access_locked(*dir, 2, creds); st) return st;
  // Sticky directory: only the file owner, directory owner, or root may
  // remove an entry.
  if ((dir->mode & mode::sticky) && !creds.is_root() &&
      creds.uid != dir->uid && target && creds.uid != target->uid)
    return make_error_code(Errc::not_permitted);

  NodeId victim = it->second;
  dir->children.erase(it);
  touch_locked(*dir);
  bump_change_gen();
  queue_event_locked(parent, event::deleted, name);
  if (target) {
    if (--target->nlink == 0) {
      bytes_used_.fetch_sub(target->data.size(), std::memory_order_relaxed);
      queue_event_locked(victim, event::delete_self);
      queue_drop_locked(victim);
      on_remove_node(victim);
      inodes_.erase(victim);
    } else {
      target->ctime_ns = now_ns();
    }
  }
  return ok_status();
}

Status MemFs::unlink(NodeId parent, const std::string& name,
                     const Credentials& creds) {
  MutationScope scope(*this);
  return unlink_locked(parent, name, creds);
}

Status MemFs::rmdir(NodeId parent, const std::string& name,
                    const Credentials& creds) {
  MutationScope scope(*this);
  return rmdir_locked(parent, name, creds);
}

Status MemFs::rmdir_locked(NodeId parent, const std::string& name,
                           const Credentials& creds) {
  Inode* dir = find(parent);
  if (!dir) return make_error_code(Errc::not_found);
  if (dir->type != FileType::directory) return make_error_code(Errc::not_dir);
  auto it = dir->children.find(name);
  if (it == dir->children.end()) return make_error_code(Errc::not_found);
  NodeId victim = it->second;
  Inode* target = find(victim);
  if (!target || target->type != FileType::directory)
    return make_error_code(Errc::not_dir);
  if (!target->children.empty() && !rmdir_recursive_allowed(victim))
    return make_error_code(Errc::not_empty);
  if (auto st = check_access_locked(*dir, 2, creds); st) return st;
  if ((dir->mode & mode::sticky) && !creds.is_root() &&
      creds.uid != dir->uid && creds.uid != target->uid)
    return make_error_code(Errc::not_permitted);

  dir->children.erase(it);
  --dir->nlink;
  touch_locked(*dir);
  bump_change_gen();
  queue_event_locked(parent, event::deleted, name);
  destroy_subtree_locked(victim);
  return ok_status();
}

Status MemFs::rename(NodeId old_parent, const std::string& old_name,
                     NodeId new_parent, const std::string& new_name,
                     const Credentials& creds) {
  MutationScope scope(*this);
  return rename_locked(old_parent, old_name, new_parent, new_name, creds);
}

Status MemFs::rename_locked(NodeId old_parent, const std::string& old_name,
                            NodeId new_parent, const std::string& new_name,
                            const Credentials& creds) {
  Inode* src_dir = find(old_parent);
  Inode* dst_dir = find(new_parent);
  if (!src_dir || !dst_dir) return make_error_code(Errc::not_found);
  if (src_dir->type != FileType::directory ||
      dst_dir->type != FileType::directory)
    return make_error_code(Errc::not_dir);
  if (!valid_name(new_name, options_.name_max))
    return make_error_code(Errc::invalid_argument);
  auto src_it = src_dir->children.find(old_name);
  if (src_it == src_dir->children.end())
    return make_error_code(Errc::not_found);
  NodeId moving = src_it->second;
  Inode* node = find(moving);
  if (!node) return make_error_code(Errc::io_error);
  if (auto st = check_access_locked(*src_dir, 2, creds); st) return st;
  if (auto st = check_access_locked(*dst_dir, 2, creds); st) return st;

  if (old_parent == new_parent && old_name == new_name) return ok_status();

  // A directory may not be moved into its own subtree.
  if (node->type == FileType::directory) {
    NodeId walk = new_parent;
    while (walk != kInvalidNode) {
      if (walk == moving) return make_error_code(Errc::invalid_argument);
      const Inode* w = find(walk);
      if (!w || walk == kRootNode) break;
      walk = w->parent_hint;
    }
  }

  // Handle an existing destination entry.
  auto dst_it = dst_dir->children.find(new_name);
  if (dst_it != dst_dir->children.end()) {
    Inode* existing = find(dst_it->second);
    if (existing) {
      if (existing->type == FileType::directory) {
        if (node->type != FileType::directory)
          return make_error_code(Errc::is_dir);
        if (!existing->children.empty())
          return make_error_code(Errc::not_empty);
        --dst_dir->nlink;
        destroy_subtree_locked(dst_it->second);
      } else {
        if (node->type == FileType::directory)
          return make_error_code(Errc::not_dir);
        if (--existing->nlink == 0) {
          bytes_used_.fetch_sub(existing->data.size(),
                                std::memory_order_relaxed);
          queue_event_locked(dst_it->second, event::delete_self);
          queue_drop_locked(dst_it->second);
          on_remove_node(dst_it->second);
          inodes_.erase(dst_it->second);
        }
      }
    }
    // Re-find: destroy/erase may have invalidated pointers.
    src_dir = find(old_parent);
    dst_dir = find(new_parent);
    node = find(moving);
    dst_dir->children.erase(new_name);
  }

  src_dir->children.erase(old_name);
  dst_dir->children.emplace(new_name, moving);
  if (node->type == FileType::directory && old_parent != new_parent) {
    --src_dir->nlink;
    ++dst_dir->nlink;
  }
  node->parent_hint = new_parent;
  node->name_hint = new_name;
  node->ctime_ns = now_ns();
  touch_locked(*src_dir);
  if (old_parent != new_parent) touch_locked(*dst_dir);
  bump_change_gen();

  std::uint32_t cookie = next_cookie_++;
  queue_event_locked(old_parent, event::moved_from, old_name, cookie);
  queue_event_locked(new_parent, event::moved_to, new_name, cookie);
  queue_event_locked(moving, event::move_self);
  return ok_status();
}

Result<std::string> MemFs::read_locked(NodeId node, std::uint64_t offset,
                                       std::uint64_t size,
                                       const Credentials& creds) {
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  if (ino->type == FileType::directory) return Errc::is_dir;
  if (ino->type != FileType::regular) return Errc::invalid_argument;
  if (auto st = check_access_locked(*ino, 4, creds); st) return st;
  if (offset >= ino->data.size()) return std::string{};
  return ino->data.substr(offset, size);
}

Result<std::string> MemFs::read(NodeId node, std::uint64_t offset,
                                std::uint64_t size, const Credentials& creds) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  if (ino->type == FileType::directory) return Errc::is_dir;
  if (ino->type != FileType::regular) return Errc::invalid_argument;
  if (auto st = check_access_locked(*ino, 4, creds); st) return st;
  // Reads of distinct files only share mu_ (shared) — they serialize
  // nowhere; a concurrent write to *this* file is excluded by its shard.
  dbg::SharedLock data_lock(shard_of(node));
  if (offset >= ino->data.size()) return std::string{};
  return ino->data.substr(offset, size);
}

Result<std::uint64_t> MemFs::write_locked(NodeId node, std::uint64_t offset,
                                          std::string_view data,
                                          const Credentials& creds) {
  Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  if (ino->type == FileType::directory) return Errc::is_dir;
  if (ino->type != FileType::regular) return Errc::invalid_argument;
  if (auto st = check_access_locked(*ino, 2, creds); st) return st;

  std::uint64_t end = offset + data.size();
  std::size_t old_size = ino->data.size();
  std::size_t new_size = std::max<std::uint64_t>(end, old_size);
  std::size_t delta = new_size - old_size;
  if (options_.max_bytes && delta &&
      bytes_used_.load(std::memory_order_relaxed) + delta > options_.max_bytes)
    return Errc::no_space;

  // Build the prospective content so the schema hook can validate it before
  // it becomes visible (typed files reject malformed values atomically).
  std::string content = ino->data;
  if (content.size() < end) content.resize(end, '\0');
  content.replace(static_cast<std::size_t>(offset), data.size(), data);
  if (auto st = on_write(node, content); st) return st;

  bytes_used_.fetch_add(delta, std::memory_order_relaxed);
  ino = find(node);  // on_write may have touched the map
  ino->data = std::move(content);
  touch_locked(*ino);
  emit_node_event_locked(node, event::modified);
  return static_cast<std::uint64_t>(data.size());
}

Result<std::uint64_t> MemFs::write(NodeId node, std::uint64_t offset,
                                   std::string_view data,
                                   const Credentials& creds) {
  Event events[2];
  std::size_t n_events = 0;
  {
    dbg::SharedLock lock(mu_);
    Inode* ino = find(node);
    if (!ino) return Errc::not_found;
    if (ino->type == FileType::directory) return Errc::is_dir;
    if (ino->type != FileType::regular) return Errc::invalid_argument;
    if (auto st = check_access_locked(*ino, 2, creds); st) return st;

    // Content mutation needs only mu_ shared + this inode's shard
    // exclusive: writes to distinct files run concurrently with each
    // other and with every reader of other files.
    dbg::UniqueLock data_lock(shard_of(node));
    std::uint64_t end = offset + data.size();
    std::size_t old_size = ino->data.size();
    std::size_t new_size = std::max<std::uint64_t>(end, old_size);
    std::size_t delta = new_size - old_size;
    if (delta) {
      // Optimistic quota claim; concurrent growers may race past the
      // check-then-add, so claim first and roll back on overshoot.
      std::size_t prev = bytes_used_.fetch_add(delta,
                                               std::memory_order_relaxed);
      if (options_.max_bytes && prev + delta > options_.max_bytes) {
        bytes_used_.fetch_sub(delta, std::memory_order_relaxed);
        return Errc::no_space;
      }
    }
    std::string content = ino->data;
    if (content.size() < end) content.resize(end, '\0');
    content.replace(static_cast<std::size_t>(offset), data.size(), data);
    if (auto st = on_write(node, content); st) {
      if (delta) bytes_used_.fetch_sub(delta, std::memory_order_relaxed);
      return st;
    }
    ino->data = std::move(content);
    touch_locked(*ino);
    if (watches_.watched(node))
      events[n_events++] = Event{event::modified, node, {}, 0};
    if (ino->parent_hint != kInvalidNode && watches_.watched(ino->parent_hint))
      events[n_events++] =
          Event{event::modified, ino->parent_hint, ino->name_hint, 0};
  }
  if (n_events) {
    dbg::LockGuard order(emit_mu_);
    for (std::size_t i = 0; i < n_events; ++i)
      watches_.emit(events[i].node, events[i].mask, events[i].name,
                    events[i].cookie);
  }
  return static_cast<std::uint64_t>(data.size());
}

Result<std::uint64_t> MemFs::replace(NodeId node, std::string_view data,
                                     const Credentials& creds) {
  Event events[2];
  std::size_t n_events = 0;
  {
    dbg::SharedLock lock(mu_);
    Inode* ino = find(node);
    if (!ino) return Errc::not_found;
    if (ino->type == FileType::directory) return Errc::is_dir;
    if (ino->type != FileType::regular) return Errc::invalid_argument;
    if (auto st = check_access_locked(*ino, 2, creds); st) return st;

    // The new content is swapped in under one shard-exclusive section, so
    // readers see either the old file or the new one — never the empty
    // window the truncate+write fallback exposes.
    dbg::UniqueLock data_lock(shard_of(node));
    std::size_t old_size = ino->data.size();
    std::size_t grow = data.size() > old_size ? data.size() - old_size : 0;
    if (grow) {
      std::size_t prev =
          bytes_used_.fetch_add(grow, std::memory_order_relaxed);
      if (options_.max_bytes && prev + grow > options_.max_bytes) {
        bytes_used_.fetch_sub(grow, std::memory_order_relaxed);
        return Errc::no_space;
      }
    }
    std::string content(data);
    if (auto st = on_write(node, content); st) {
      if (grow) bytes_used_.fetch_sub(grow, std::memory_order_relaxed);
      return st;
    }
    if (old_size > data.size())
      bytes_used_.fetch_sub(old_size - data.size(),
                            std::memory_order_relaxed);
    ino->data = std::move(content);
    touch_locked(*ino);
    if (watches_.watched(node))
      events[n_events++] = Event{event::modified, node, {}, 0};
    if (ino->parent_hint != kInvalidNode && watches_.watched(ino->parent_hint))
      events[n_events++] =
          Event{event::modified, ino->parent_hint, ino->name_hint, 0};
  }
  if (n_events) {
    dbg::LockGuard order(emit_mu_);
    for (std::size_t i = 0; i < n_events; ++i)
      watches_.emit(events[i].node, events[i].mask, events[i].name,
                    events[i].cookie);
  }
  return static_cast<std::uint64_t>(data.size());
}

Status MemFs::truncate(NodeId node, std::uint64_t size,
                       const Credentials& creds) {
  MutationScope scope(*this);
  Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  if (ino->type == FileType::directory) return make_error_code(Errc::is_dir);
  if (ino->type != FileType::regular)
    return make_error_code(Errc::invalid_argument);
  if (auto st = check_access_locked(*ino, 2, creds); st) return st;
  std::size_t old_size = ino->data.size();
  if (options_.max_bytes && size > old_size &&
      bytes_used_.load(std::memory_order_relaxed) + (size - old_size) >
          options_.max_bytes)
    return make_error_code(Errc::no_space);

  std::string content = ino->data;
  content.resize(size, '\0');
  if (auto st = on_write(node, content); st) return st;
  if (content.size() >= old_size)
    bytes_used_.fetch_add(content.size() - old_size,
                          std::memory_order_relaxed);
  else
    bytes_used_.fetch_sub(old_size - content.size(),
                          std::memory_order_relaxed);
  ino = find(node);
  ino->data = std::move(content);
  touch_locked(*ino);
  emit_node_event_locked(node, event::modified);
  return ok_status();
}

Status MemFs::chmod(NodeId node, std::uint32_t new_mode,
                    const Credentials& creds) {
  MutationScope scope(*this);
  Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  if (!creds.is_root() && creds.uid != ino->uid)
    return make_error_code(Errc::not_permitted);
  ino->mode = new_mode & mode::all;
  ino->ctime_ns = now_ns();
  ++ino->version;
  bump_change_gen();  // traversal permissions changed
  emit_node_event_locked(node, event::attrib);
  return ok_status();
}

Status MemFs::chown(NodeId node, Uid uid, Gid gid, const Credentials& creds) {
  MutationScope scope(*this);
  Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  // Only root may change the owner; the owner may change the group to one
  // of their own groups.
  if (!creds.is_root()) {
    if (uid != ino->uid || creds.uid != ino->uid || !creds.in_group(gid))
      return make_error_code(Errc::not_permitted);
  }
  ino->uid = uid;
  ino->gid = gid;
  ino->ctime_ns = now_ns();
  ++ino->version;
  bump_change_gen();
  emit_node_event_locked(node, event::attrib);
  return ok_status();
}

Status MemFs::setxattr(NodeId node, const std::string& name,
                       std::vector<std::uint8_t> value,
                       const Credentials& creds) {
  MutationScope scope(*this);
  Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  if (name.empty()) return make_error_code(Errc::invalid_argument);
  // system.* namespace requires ownership; user.* requires write access.
  if (name.rfind("system.", 0) == 0) {
    if (!creds.is_root() && creds.uid != ino->uid)
      return make_error_code(Errc::not_permitted);
  } else if (auto st = check_access_locked(*ino, 2, creds); st) {
    return st;
  }
  if (name == kAclXattr) {
    auto acl = Acl::decode(value);
    if (!acl) return acl.error();
    ino->acl = *acl;
  }
  ino->xattrs[name] = std::move(value);
  ino->ctime_ns = now_ns();
  ++ino->version;
  bump_change_gen();  // the ACL xattr changes traversal permissions
  emit_node_event_locked(node, event::attrib);
  return ok_status();
}

Result<std::vector<std::uint8_t>> MemFs::getxattr(NodeId node,
                                                  const std::string& name) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  auto it = ino->xattrs.find(name);
  if (it == ino->xattrs.end()) return Errc::not_found;
  return it->second;
}

Result<std::vector<std::string>> MemFs::listxattr(NodeId node) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return Errc::not_found;
  std::vector<std::string> names;
  names.reserve(ino->xattrs.size());
  for (const auto& [name, value] : ino->xattrs) names.push_back(name);
  return names;
}

Status MemFs::removexattr(NodeId node, const std::string& name,
                          const Credentials& creds) {
  MutationScope scope(*this);
  Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  if (name.rfind("system.", 0) == 0) {
    if (!creds.is_root() && creds.uid != ino->uid)
      return make_error_code(Errc::not_permitted);
  } else if (auto st = check_access_locked(*ino, 2, creds); st) {
    return st;
  }
  auto it = ino->xattrs.find(name);
  if (it == ino->xattrs.end()) return make_error_code(Errc::not_found);
  if (name == kAclXattr) ino->acl.reset();
  ino->xattrs.erase(it);
  ino->ctime_ns = now_ns();
  ++ino->version;
  bump_change_gen();
  emit_node_event_locked(node, event::attrib);
  return ok_status();
}

Status MemFs::access(NodeId node, std::uint8_t want, const Credentials& creds) {
  dbg::SharedLock lock(mu_);
  const Inode* ino = find(node);
  if (!ino) return make_error_code(Errc::not_found);
  return check_access_locked(*ino, want, creds);
}

Result<WatchRegistry::WatchId> MemFs::watch(NodeId node, std::uint32_t mask,
                                            WatchQueuePtr queue) {
  dbg::SharedLock lock(mu_);
  if (!find(node)) return Errc::not_found;
  if (!queue || mask == 0) return Errc::invalid_argument;
  return watches_.add(node, mask, std::move(queue));
}

void MemFs::unwatch(WatchRegistry::WatchId id) {
  dbg::SharedLock lock(mu_);
  watches_.remove(id);
}

std::size_t MemFs::inode_count() const {
  dbg::SharedLock lock(mu_);
  return inodes_.size();
}

std::size_t MemFs::bytes_used() const {
  return bytes_used_.load(std::memory_order_relaxed);
}

Result<std::string> MemFs::path_of(NodeId node) const {
  dbg::SharedLock lock(mu_);
  if (node == kRootNode) return std::string("/");
  std::vector<const std::string*> components;
  NodeId walk = node;
  for (int depth = 0; depth < 512; ++depth) {
    const Inode* ino = find(walk);
    if (!ino) return Errc::not_found;
    if (walk == kRootNode) break;
    if (ino->parent_hint == kInvalidNode) return Errc::not_found;
    components.push_back(&ino->name_hint);
    walk = ino->parent_hint;
  }
  std::string path;
  for (auto it = components.rbegin(); it != components.rend(); ++it) {
    path += '/';
    path += **it;
  }
  return path.empty() ? std::string("/") : path;
}

std::optional<std::vector<std::uint8_t>> MemFs::nearest_xattr(
    NodeId node, const std::string& name) const {
  dbg::SharedLock lock(mu_);
  NodeId walk = node;
  for (int depth = 0; depth < 512; ++depth) {
    const Inode* ino = find(walk);
    if (!ino) return std::nullopt;
    auto it = ino->xattrs.find(name);
    if (it != ino->xattrs.end()) return it->second;
    if (walk == kRootNode || ino->parent_hint == kInvalidNode)
      return std::nullopt;
    walk = ino->parent_hint;
  }
  return std::nullopt;
}

}  // namespace yanc::vfs
