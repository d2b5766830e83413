#include "yanc/vfs/synth_fs.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <tuple>

#include "yanc/util/strings.hpp"

namespace yanc::vfs {

SynthFs::SynthFs(SyncFn sync) : sync_(std::move(sync)) {
  nodes_.emplace(kRoot, Node{});
}

NodeId SynthFs::add(std::string_view path, Node leaf) {
  auto parts = split_nonempty(path, '/');
  if (parts.empty()) return kInvalidNode;
  std::vector<std::pair<NodeId, std::string>> created;
  NodeId cur = kRoot;
  {
    dbg::LockGuard lock(mu_);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      bool last = i + 1 == parts.size();
      Node& dir = nodes_.at(cur);
      auto it = dir.children.find(parts[i]);
      if (it != dir.children.end()) {
        const Node& child = nodes_.at(it->second);
        // A name is a file or a directory, never both: a conflicting add
        // is refused rather than corrupting the tree.
        if (last)
          return child.type == FileType::regular &&
                         leaf.type == FileType::regular
                     ? it->second
                     : kInvalidNode;
        if (child.type != FileType::directory || child.list)
          return kInvalidNode;
        cur = it->second;
        continue;
      }
      if (dir.list) return kInvalidNode;  // its entries come from list
      NodeId id = next_node_++;
      Node child = last ? std::move(leaf) : Node{};
      child.name = parts[i];
      child.parent = cur;
      dir.children.emplace(parts[i], id);
      nodes_.emplace(id, std::move(child));
      created.emplace_back(cur, parts[i]);
      cur = id;
    }
  }
  // A directory gaining an entry is observable, like procfs gaining a node.
  for (const auto& [dir, name] : created)
    watches_.emit(dir, event::created, name);
  return cur;
}

NodeId SynthFs::add_file(std::string_view path, ReadFn read, WriteFn write) {
  Node leaf;
  leaf.type = FileType::regular;
  leaf.last_value = read();  // the first refresh() compares against this
  leaf.read = std::move(read);
  leaf.write = std::move(write);
  return add(path, std::move(leaf));
}

NodeId SynthFs::add_listed_dir(std::string_view path, ListFn list,
                               EntryFn entry) {
  Node leaf;
  leaf.list = std::move(list);
  leaf.entry = std::move(entry);
  return add(path, std::move(leaf));
}

NodeId SynthFs::entry_locked(NodeId dir, const std::string& name) {
  auto [it, fresh] = nodes_.at(dir).children.try_emplace(name, next_node_);
  if (fresh) {
    Node node;
    node.type = FileType::regular;
    node.name = name;
    node.parent = dir;
    nodes_.emplace(next_node_++, std::move(node));
  }
  return it->second;
}

Result<std::string> SynthFs::render(NodeId id) {
  const ReadFn* read = nullptr;
  const EntryFn* entry = nullptr;
  std::string name;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& node = it->second;
    if (node.type == FileType::directory) return Errc::is_dir;
    if (node.read) {
      read = &node.read;
    } else {
      entry = &nodes_.at(node.parent).entry;
      name = node.name;
    }
  }
  if (read) return (*read)();
  return (*entry)(name);
}

std::size_t SynthFs::refresh() {
  sync();
  std::vector<std::pair<NodeId, const ReadFn*>> files;
  {
    dbg::LockGuard lock(mu_);
    ++refresh_tick_;
    for (const auto& [id, node] : nodes_)
      if (node.read) files.emplace_back(id, &node.read);
  }
  std::vector<std::string> contents;
  contents.reserve(files.size());
  for (const auto& file : files) contents.push_back((*file.second)());
  std::vector<std::tuple<NodeId, NodeId, std::string>> changed;
  {
    dbg::LockGuard lock(mu_);
    for (std::size_t i = 0; i < files.size(); ++i) {
      Node& node = nodes_.at(files[i].first);
      if (contents[i] == node.last_value) continue;
      node.last_value = std::move(contents[i]);
      ++node.version;
      changed.emplace_back(files[i].first, node.parent, node.name);
    }
  }
  for (const auto& [id, parent, name] : changed) {
    watches_.emit(id, event::modified);
    watches_.emit(parent, event::modified, name);
  }
  return changed.size();
}

Result<NodeId> SynthFs::lookup(NodeId parent, const std::string& name) {
  sync();
  const ListFn* list = nullptr;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(parent);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& dir = it->second;
    if (dir.type != FileType::directory) return Errc::not_dir;
    if (!dir.list) {
      auto child = dir.children.find(name);
      if (child == dir.children.end()) return Errc::not_found;
      return child->second;
    }
    list = &dir.list;
  }
  auto names = (*list)();
  if (std::find(names.begin(), names.end(), name) == names.end())
    return Errc::not_found;
  dbg::LockGuard lock(mu_);
  return entry_locked(parent, name);
}

Result<Stat> SynthFs::getattr(NodeId node) {
  Stat st;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& n = it->second;
    st.ino = node;
    st.type = n.type;
    st.mode = n.type == FileType::directory ? 0555 : n.write ? 0644 : 0444;
    st.nlink = 1;
    st.size = n.children.size();
    st.version = n.version;
    st.mtime_ns = refresh_tick_;
    if (st.is_dir()) return st;
  }
  auto content = render(node);
  if (!content) return content.error();
  st.size = content->size();
  return st;
}

Result<std::vector<DirEntry>> SynthFs::readdir(NodeId dir) {
  sync();
  const ListFn* list = nullptr;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(dir);
    if (it == nodes_.end()) return Errc::not_found;
    if (it->second.type != FileType::directory) return Errc::not_dir;
    list = it->second.list ? &it->second.list : nullptr;
  }
  std::vector<std::string> names;
  if (list) names = (*list)();
  dbg::LockGuard lock(mu_);
  Node& d = nodes_.at(dir);
  std::vector<DirEntry> out;
  if (!list) {
    out.reserve(d.children.size());
    for (const auto& [name, id] : d.children)
      out.push_back({name, id, nodes_.at(id).type});
    return out;
  }
  // Entries no longer listed lose their nodes; the rest keep their ids.
  std::set<std::string> listed(names.begin(), names.end());
  for (auto it = d.children.begin(); it != d.children.end();) {
    if (listed.count(it->first)) {
      ++it;
      continue;
    }
    nodes_.erase(it->second);
    it = d.children.erase(it);
  }
  out.reserve(names.size());
  for (const auto& name : names)
    out.push_back({name, entry_locked(dir, name), FileType::regular});
  return out;
}

Result<std::string> SynthFs::readlink(NodeId) { return Errc::invalid_argument; }

Result<std::string> SynthFs::read(NodeId node, std::uint64_t offset,
                                  std::uint64_t size, const Credentials&) {
  auto content = render(node);
  if (!content) return content.error();
  if (offset >= content->size()) return std::string();
  return content->substr(offset, size);
}

Result<std::uint64_t> SynthFs::write(NodeId node, std::uint64_t offset,
                                     std::string_view data,
                                     const Credentials&) {
  const WriteFn* apply = nullptr;
  NodeId parent = kInvalidNode;
  std::string name;
  {
    dbg::LockGuard lock(mu_);
    auto it = nodes_.find(node);
    if (it == nodes_.end()) return Errc::not_found;
    const Node& n = it->second;
    if (n.type == FileType::directory) return Errc::is_dir;
    if (!n.write) return Errc::access_denied;
    apply = &n.write;
    parent = n.parent;
    name = n.name;
  }
  // Whole-value writes (echo > file): an offset write has no sensible
  // parse.
  if (offset != 0) return Errc::invalid_argument;
  if (auto ec = (*apply)(data)) return ec;
  {
    dbg::LockGuard lock(mu_);
    ++nodes_.at(node).version;
  }
  watches_.emit(node, event::modified);
  watches_.emit(parent, event::modified, name);
  return static_cast<std::uint64_t>(data.size());
}

Status SynthFs::truncate(NodeId node, std::uint64_t size, const Credentials&) {
  dbg::LockGuard lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return Errc::not_found;
  if (it->second.type == FileType::directory) return Errc::is_dir;
  if (!it->second.write) return Errc::access_denied;
  // O_TRUNC on open is a no-op, so `echo x > file` works: the value only
  // changes when write() delivers the new one.
  return size == 0 ? ok_status() : make_error_code(Errc::invalid_argument);
}

Status SynthFs::access(NodeId node, std::uint8_t want, const Credentials&) {
  dbg::LockGuard lock(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return Errc::not_found;
  if ((want & 2) && !it->second.write) return Errc::access_denied;
  return ok_status();
}

Result<std::vector<std::uint8_t>> SynthFs::getxattr(NodeId,
                                                    const std::string&) {
  return Errc::not_found;
}

Result<std::vector<std::string>> SynthFs::listxattr(NodeId) {
  return std::vector<std::string>{};
}

Result<NodeId> SynthFs::mkdir(NodeId, const std::string&, std::uint32_t,
                              const Credentials&) {
  return Errc::not_permitted;
}
Result<NodeId> SynthFs::create(NodeId, const std::string&, std::uint32_t,
                               const Credentials&) {
  return Errc::not_permitted;
}
Result<NodeId> SynthFs::symlink(NodeId, const std::string&, const std::string&,
                                const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::link(NodeId, NodeId, const std::string&, const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::unlink(NodeId, const std::string&, const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::rmdir(NodeId, const std::string&, const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::rename(NodeId, const std::string&, NodeId, const std::string&,
                       const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::chmod(NodeId, std::uint32_t, const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::chown(NodeId, Uid, Gid, const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::setxattr(NodeId, const std::string&, std::vector<std::uint8_t>,
                         const Credentials&) {
  return Errc::not_permitted;
}
Status SynthFs::removexattr(NodeId, const std::string&, const Credentials&) {
  return Errc::not_permitted;
}

Result<WatchRegistry::WatchId> SynthFs::watch(NodeId node, std::uint32_t mask,
                                              WatchQueuePtr queue) {
  {
    dbg::LockGuard lock(mu_);
    if (!nodes_.count(node)) return Errc::not_found;
  }
  return watches_.add(node, mask, std::move(queue));
}

void SynthFs::unwatch(WatchRegistry::WatchId id) { watches_.remove(id); }

Result<std::shared_ptr<SynthFs>> mount_stats_fs(Vfs& vfs,
                                                const std::string& mount_path) {
  auto registry = vfs.metrics();
  // Metrics register once and never unregister, so the tree only grows:
  // each registry generation adds the files it is missing.  The mark moves
  // only after the adds, so no lookup passes a sync that is still adding.
  auto synced = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto sync = [registry, synced](SynthFs& self) {
    std::uint64_t generation = registry->generation();
    if (synced->load() == generation) return;
    for (const auto& path : registry->export_paths())
      self.add_file(path, [registry, path] {
        auto value = registry->value_of(path);
        return value ? *value + "\n" : std::string();
      });
    synced->store(generation);
  };
  auto fs = std::make_shared<SynthFs>(sync);
  // The runtime lock-order graph, as a file: yanc-analyze diffs it against
  // the statically derived edge set.
  fs->add_file("dbg/lock_edges", [] { return dbg::dump_lock_edges(); });
  sync(*fs);
  if (auto ec = vfs.mkdir_p(mount_path, 0555, Credentials::root())) return ec;
  if (auto ec = vfs.mount(mount_path, fs)) return ec;
  return fs;
}

Result<std::shared_ptr<SynthFs>> mount_trace_fs(Vfs& vfs, obs::Tracer* tracer,
                                                const std::string& mount_path) {
  obs::Tracer* t = tracer ? tracer : &obs::tracer();
  t->bind_metrics(vfs.metrics());
  auto fs = std::make_shared<SynthFs>();
  fs->add_file(
      "ctl", [] { return std::string(obs::kTraceCtlGrammar); },
      [t](std::string_view line) { return obs::apply_trace_ctl(*t, line); });
  fs->add_file("status", [t] { return obs::render_trace_status(*t); });
  fs->add_file("export.json",
               [t] { return obs::render_chrome_json(t->ring().snapshot()); });
  fs->add_listed_dir(
      "by-id",
      [t] {
        std::set<std::uint64_t> ids;
        for (const auto& e : t->ring().snapshot())
          if (e.trace_id != 0) ids.insert(e.trace_id);
        std::vector<std::string> names;
        for (std::uint64_t id : ids) names.push_back(std::to_string(id));
        return names;
      },
      [t](const std::string& name) -> Result<std::string> {
        auto text = obs::render_trace(t->ring().snapshot(),
                                      parse_u64(name).value_or(0));
        if (text.empty()) return Errc::not_found;
        return text;
      });
  if (auto ec = vfs.mkdir_p(mount_path, 0555, Credentials::root())) return ec;
  if (auto ec = vfs.mount(mount_path, fs)) return ec;
  return fs;
}

}  // namespace yanc::vfs
