#include "yanc/dist/replicated.hpp"

#include <algorithm>
#include <span>
#include <tuple>

#include "yanc/util/bytes.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::dist {

using vfs::Credentials;
using vfs::NodeId;

// One node as a record carries it: enough to recreate the node anywhere.
struct ReplicatedYancFs::Entry {
  vfs::FileType type = vfs::FileType::directory;
  std::string path;
  Version version;
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::string data;  // file content / symlink target
  std::vector<std::pair<std::string, std::string>> xattrs;
};

// The one replication message (see the header): preorder entries plus
// tombstones, behind a header that says how the record travels.
struct ReplicatedYancFs::Record {
  enum Flag : std::uint8_t {
    via_primary = 1,  // strict record awaiting the primary's fan-out
    repair = 2,       // anti-entropy, not a live change
  };
  std::uint8_t flags = 0;
  Version version;            // the sender's clock; origin = sender
  std::uint64_t sent_ns = 0;  // sender's virtual time (lag metric)
  std::vector<Entry> entries;
  std::vector<std::pair<std::string, Version>> tombstones;

  std::vector<std::uint8_t> encode() const {
    BufWriter w;
    auto put_string = [&w](const std::string& s) {
      w.u32(static_cast<std::uint32_t>(s.size()));
      w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    };
    auto put_version = [&w](Version v) {
      w.u64(v.first);
      w.u64(v.second);
    };
    w.u8(flags);
    put_version(version);
    w.u64(sent_ns);
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w.u8(static_cast<std::uint8_t>(e.type));
      put_string(e.path);
      put_version(e.version);
      w.u32(e.mode);
      w.u32(e.uid);
      w.u32(e.gid);
      put_string(e.data);
      w.u32(static_cast<std::uint32_t>(e.xattrs.size()));
      for (const auto& [name, value] : e.xattrs) {
        put_string(name);
        put_string(value);
      }
    }
    w.u32(static_cast<std::uint32_t>(tombstones.size()));
    for (const auto& [path, v] : tombstones) {
      put_string(path);
      put_version(v);
    }
    w.u32(checksum(w.data()));
    return w.take();
  }

  /// All or nothing: a record that is short, long, fails its checksum, or
  /// names an unknown type or a malformed path is rejected whole, before
  /// anything merges.
  static Result<Record> decode(const std::vector<std::uint8_t>& bytes) {
    if (bytes.size() < 4) return Errc::protocol_error;
    std::span<const std::uint8_t> body(bytes.data(), bytes.size() - 4);
    if (BufReader(std::span(bytes).subspan(body.size())).u32() !=
        checksum(body))
      return Errc::protocol_error;
    BufReader r(body);
    auto get_string = [&r]() {
      auto raw = r.bytes(r.u32());
      return std::string(raw.begin(), raw.end());
    };
    auto get_version = [&r]() {
      Version v;
      v.first = r.u64();
      v.second = r.u64();
      return v;
    };
    Record rec;
    rec.flags = r.u8();
    rec.version = get_version();
    rec.sent_ns = r.u64();
    bool valid = rec.flags <= (via_primary | repair);
    for (std::uint32_t n = r.u32(); valid && r.ok() && n > 0; --n) {
      Entry e;
      auto type = r.u8();
      e.type = static_cast<vfs::FileType>(type);
      e.path = get_string();
      e.version = get_version();
      e.mode = r.u32();
      e.uid = r.u32();
      e.gid = r.u32();
      e.data = get_string();
      for (std::uint32_t x = r.u32(); r.ok() && x > 0; --x) {
        auto name = get_string();
        e.xattrs.emplace_back(std::move(name), get_string());
      }
      valid = type <= static_cast<std::uint8_t>(vfs::FileType::symlink) &&
              (e.path == "/" || valid_path(e.path));
      rec.entries.push_back(std::move(e));
    }
    for (std::uint32_t n = r.u32(); valid && r.ok() && n > 0; --n) {
      auto path = get_string();
      valid = valid_path(path);
      rec.tombstones.emplace_back(std::move(path), get_version());
    }
    if (!valid || !r.ok() || r.remaining() != 0) return Errc::protocol_error;
    return rec;
  }

 private:
  /// FNV-1a, whose every step is a bijection of the running hash, so any
  /// single flipped byte changes it: a corrupted record is rejected and
  /// anti-entropy repairs it like a lost one, rather than merging at the
  /// origin's version with content the origin never wrote.
  static std::uint32_t checksum(std::span<const std::uint8_t> bytes) {
    std::uint32_t hash = 2166136261u;
    for (auto b : bytes) hash = (hash ^ b) * 16777619u;
    return hash;
  }

  /// An absolute, normalised path below the root, as path_of renders it.
  static bool valid_path(std::string_view path) {
    if (path.size() < 2 || path.front() != '/') return false;
    for (std::size_t start = 1; start <= path.size();) {
      auto end = std::min(path.find('/', start), path.size());
      auto comp = path.substr(start, end - start);
      if (comp.empty() || comp == "." || comp == ".." ||
          comp.find('\0') != std::string_view::npos)
        return false;
      start = end + 1;
    }
    return true;
  }
};

namespace {

std::pair<std::string, std::string> dir_and_leaf(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0)
    return {"/", path.substr(slash == std::string::npos ? 0 : 1)};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

std::string child_path(const std::string& dir, const std::string& name) {
  return (dir == "/" ? "" : dir) + "/" + name;
}

}  // namespace

ReplicatedYancFs::ReplicatedYancFs(ReplicaOptions options)
    : options_(options) {}

void ReplicatedYancFs::attach(Transport* transport, Transport::NodeId self,
                              Transport::NodeId primary) {
  transport_ = transport;
  self_ = self;
  primary_ = primary;
}

Transport::NodeId ReplicatedYancFs::join_cluster(Transport& transport,
                                                 Transport::NodeId primary) {
  auto id = transport.join(
      [this](Transport::NodeId from, const std::vector<std::uint8_t>& bytes) {
        handle_message(from, bytes);
      });
  attach(&transport, id, primary);
  return id;
}

void ReplicatedYancFs::rejoin_cluster() {
  if (!transport_) return;
  transport_->rejoin(self_, [this](Transport::NodeId from,
                                   const std::vector<std::uint8_t>& bytes) {
    handle_message(from, bytes);
  });
}

Mode ReplicatedYancFs::mode_for(NodeId node) const {
  auto value = nearest_xattr(node, kConsistencyXattr);
  if (!value) return options_.default_mode;
  std::string text(value->begin(), value->end());
  auto trimmed = trim(text);
  if (trimmed == "eventual") return Mode::eventual;
  if (trimmed == "strict") return Mode::strict;
  return options_.default_mode;
}

Result<NodeId> ReplicatedYancFs::resolve_local(const std::string& path,
                                               bool make_missing) {
  NodeId node = root();
  for (const auto& comp : split_nonempty(path, '/')) {
    auto next = lookup(node, comp);
    if (!next && make_missing &&
        next.error() == make_error_code(Errc::not_found))
      next = mkdir(node, comp, 0755, Credentials::root());
    if (!next) return next.error();
    node = *next;
  }
  return node;
}

void ReplicatedYancFs::bind_metrics(obs::Registry& registry) {
  YancFs::bind_metrics(registry);
  apply_metric_ = registry.counter("dist/replication_apply_total");
  conflict_metric_ = registry.counter("dist/replication_conflict_total");
  lag_metric_ = registry.histogram("dist/replication_lag_ns");
  ae_round_metric_ = registry.counter("dist/anti_entropy_round_total");
  ae_repair_metric_ = registry.counter("dist/anti_entropy_repair_total");
}

// --- sending -------------------------------------------------------------------

std::optional<std::string> ReplicatedYancFs::path_to_replicate(
    NodeId parent, const std::string& name) const {
  if (!replicating()) return std::nullopt;
  auto dir = path_of(parent);
  if (!dir) return std::nullopt;
  return child_path(*dir, name);
}

void ReplicatedYancFs::replicate(NodeId node, bool subtree,
                                 const std::string& moved_from) {
  if (!replicating()) return;
  auto path = path_of(node);
  if (!path) return;
  Record rec;
  rec.version = {++lamport_, self_};
  if (!moved_from.empty() && moved_from != *path) {
    record_tombstone(moved_from, rec.version);
    rec.tombstones.emplace_back(moved_from, rec.version);
  }
  collect(node, *path, subtree, &rec.version, rec);
  send(std::move(rec), node);
}

void ReplicatedYancFs::replicate_removal(NodeId parent,
                                         const std::string& path) {
  Record rec;
  rec.version = {++lamport_, self_};
  record_tombstone(path, rec.version);
  rec.tombstones.emplace_back(path, rec.version);
  send(std::move(rec), parent);
}

void ReplicatedYancFs::send(Record rec, NodeId scope) {
  rec.sent_ns = transport_->clock().now_ns();
  ++local_ops_;
  // Consistency is chosen by the nearest xattr above the changed node.
  if (mode_for(scope) == Mode::strict && self_ != primary_) {
    // Synchronous routing through the primary: the caller pays the round
    // trip (modelled as accounted virtual time; the record itself travels
    // the simulated link so remote visibility is still ordered by arrival).
    sync_delay_ns_ += 2 * static_cast<std::uint64_t>(
                              transport_->latency().count());
    rec.flags |= Record::via_primary;
    // A filter-eaten record here diverges this replica until the next
    // anti-entropy round repairs it; that repair path is the point.
    std::ignore = transport_->send(self_, primary_, rec.encode());
    return;
  }
  transport_->broadcast(self_, rec.encode());
}

void ReplicatedYancFs::send_anti_entropy() {
  if (!transport_) return;
  Record rec;
  rec.flags = Record::repair;
  rec.version = {++lamport_, self_};
  rec.sent_ns = transport_->clock().now_ns();
  collect(root(), "/", /*subtree=*/true, nullptr, rec);
  for (const auto& [path, version] : tombstones_)
    rec.tombstones.emplace_back(path, version);
  if (ae_round_metric_) ae_round_metric_->add();
  transport_->broadcast(self_, rec.encode());
}

bool ReplicatedYancFs::describe(NodeId node, Entry& out) {
  auto st = getattr(node);
  if (!st) return false;
  out.type = st->type;
  out.mode = st->mode;
  out.uid = st->uid;
  out.gid = st->gid;
  if (st->is_symlink()) {
    if (auto target = readlink(node)) out.data = std::move(*target);
  } else if (st->is_file()) {
    if (auto content = read(node, 0, st->size, Credentials::root()))
      out.data = std::move(*content);
  }
  if (auto names = listxattr(node))
    for (auto& name : *names)
      if (auto value = getxattr(node, name))
        out.xattrs.emplace_back(std::move(name),
                                std::string(value->begin(), value->end()));
  return true;
}

void ReplicatedYancFs::collect(NodeId node, const std::string& path,
                               bool subtree, const Version* stamp,
                               Record& rec) {
  Entry entry;
  if (!describe(node, entry)) return;
  entry.path = path;
  entry.version = stamp ? *stamp : version_of(path);
  if (stamp) write_versions_[path] = *stamp;
  bool dir = entry.type == vfs::FileType::directory;
  rec.entries.push_back(std::move(entry));
  if (!subtree || !dir) return;
  auto children = readdir(node);
  if (!children) return;
  for (const auto& child : *children)
    collect(child.node, child_path(path, child.name), true, stamp, rec);
}

// --- receiving -----------------------------------------------------------------

void ReplicatedYancFs::handle_message(Transport::NodeId /*from*/,
                                      const std::vector<std::uint8_t>& bytes) {
  auto rec = Record::decode(bytes);
  if (!rec) {
    log_error("dist", "undecodable replication record");
    return;
  }
  lamport_ = std::max(lamport_, rec->version.first);
  Merged merged = merge(*rec);
  if (rec->flags & Record::repair) {
    repairs_ += merged.changed;
    if (ae_repair_metric_) ae_repair_metric_->add(merged.changed);
    return;
  }
  if (merged.rejected == 0) {
    ++remote_ops_;
    if (apply_metric_) apply_metric_->add();
    if (lag_metric_ && transport_) {
      std::uint64_t now = transport_->clock().now_ns();
      if (now >= rec->sent_ns) lag_metric_->record(now - rec->sent_ns);
    }
  } else {
    ++conflicts_;
    if (conflict_metric_) conflict_metric_->add();
  }

  // Primary fan-out for strict records that were routed through us.
  if ((rec->flags & Record::via_primary) && self_ == primary_) {
    rec->flags &= static_cast<std::uint8_t>(~Record::via_primary);
    auto fanned = rec->encode();
    for (Transport::NodeId node = 0; node < transport_->size(); ++node)
      if (node != self_ && node != rec->version.second)
        // Same deal as broadcast: per-link loss is anti-entropy's job.
        std::ignore = transport_->send(self_, node, fanned);
  }
}

ReplicatedYancFs::Merged ReplicatedYancFs::merge(const Record& rec) {
  applying_remote_ = true;
  Merged out;
  // Deletions first: adopt tombstones we have not seen, and tear down any
  // local subtree the tombstone out-ranks.  A strictly newer local change
  // survives — our own next record re-teaches it to the cluster.
  for (const auto& [path, version] : rec.tombstones) {
    bool existed = resolve_local(path).ok();
    record_tombstone(path, version);
    if (!existed) continue;
    if (newest_in_subtree(path) > version) {
      ++out.rejected;
      continue;
    }
    remove_local(path);
    ++out.changed;
  }
  // Then nodes, parents before children.
  for (const auto& entry : rec.entries) {
    switch (merge_entry(entry)) {
      case Outcome::changed:
        ++out.changed;
        break;
      case Outcome::rejected:
        ++out.rejected;
        break;
      case Outcome::unchanged:
        break;
    }
  }
  applying_remote_ = false;
  return out;
}

ReplicatedYancFs::Outcome ReplicatedYancFs::merge_entry(const Entry& entry) {
  if (tombstoned(entry.path, entry.version)) return Outcome::rejected;
  auto [dir, leaf] = dir_and_leaf(entry.path);
  auto node = resolve_local(entry.path);
  if (!node) {
    // Missing locally: recreate it, and any ancestor it lacks — one whose
    // tombstone is older than this entry, or whose own record is late.
    auto parent = resolve_local(dir, /*make_missing=*/true);
    if (!parent) return Outcome::rejected;
    node = lookup(*parent, leaf);  // a recreated object may hold it already
    if (!node)
      return create_local(*parent, leaf, entry) ? Outcome::changed
                                                : Outcome::rejected;
  }
  Version local = version_of(entry.path);
  if (entry.version < local) return Outcome::rejected;  // ours is newer
  if (entry.version == local) return Outcome::unchanged;
  Entry have;
  if (!describe(*node, have)) return Outcome::rejected;
  bool same_kind = have.type == entry.type &&
                   (have.type != vfs::FileType::symlink ||
                    have.data == entry.data);
  if (same_kind)
    return adopt(*node, have, entry) ? Outcome::changed : Outcome::rejected;
  // Another kind of node under this name: replace it outright.
  remove_local(entry.path);
  auto parent = resolve_local(dir);
  return parent && create_local(*parent, leaf, entry) ? Outcome::changed
                                                       : Outcome::rejected;
}

bool ReplicatedYancFs::create_local(NodeId parent, const std::string& leaf,
                                    const Entry& entry) {
  Credentials root_creds;
  auto made = [&]() -> Result<NodeId> {
    switch (entry.type) {
      case vfs::FileType::directory:
        return mkdir(parent, leaf, entry.mode, root_creds);
      case vfs::FileType::regular:
        return create(parent, leaf, entry.mode, root_creds);
      case vfs::FileType::symlink:
        break;
    }
    return symlink(parent, leaf, entry.data, root_creds);
  }();
  Entry have;
  return made && describe(*made, have) && adopt(*made, have, entry);
}

bool ReplicatedYancFs::adopt(NodeId node, const Entry& have,
                             const Entry& want) {
  Credentials root_creds;
  auto xattr = [](const Entry& e, const std::string& name) {
    return std::find_if(e.xattrs.begin(), e.xattrs.end(),
                        [&](const auto& x) { return x.first == name; });
  };
  // Whole content in one step, so a watcher never sees it half-adopted.
  if (want.type == vfs::FileType::regular && have.data != want.data &&
      !replace(node, want.data, root_creds))
    return false;
  if (have.mode != want.mode && chmod(node, want.mode, root_creds))
    return false;
  if ((have.uid != want.uid || have.gid != want.gid) &&
      chown(node, want.uid, want.gid, root_creds))
    return false;
  for (const auto& [name, value] : have.xattrs)
    if (xattr(want, name) == want.xattrs.end() &&
        removexattr(node, name, root_creds))
      return false;
  for (const auto& [name, value] : want.xattrs) {
    auto it = xattr(have, name);
    if ((it == have.xattrs.end() || it->second != value) &&
        setxattr(node, name, {value.begin(), value.end()}, root_creds))
      return false;
  }
  write_versions_[want.path] = want.version;
  return true;
}

void ReplicatedYancFs::remove_local(const std::string& path) {
  auto node = resolve_local(path);
  if (!node) return;
  auto st = getattr(*node);
  auto [dir, leaf] = dir_and_leaf(path);
  auto parent = resolve_local(dir);
  if (!st || !parent) return;
  Credentials root_creds;
  if (!st->is_dir()) {
    (void)unlink(*parent, leaf, root_creds);
    return;
  }
  // An object goes in one recursive rmdir (§3.2); a plain directory is
  // emptied first.
  if (!rmdir(*parent, leaf, root_creds)) return;
  if (auto children = readdir(*node))
    for (const auto& child : *children)
      remove_local(child_path(path, child.name));
  (void)rmdir(*parent, leaf, root_creds);
}

// --- last-writer-wins bookkeeping ----------------------------------------------

ReplicatedYancFs::Version ReplicatedYancFs::version_of(
    const std::string& path) const {
  auto it = write_versions_.find(path);
  return it == write_versions_.end() ? Version{0, 0} : it->second;
}

ReplicatedYancFs::Version ReplicatedYancFs::newest_in_subtree(
    const std::string& path) const {
  Version newest = version_of(path);
  std::string prefix = path + "/";
  for (auto it = write_versions_.lower_bound(prefix);
       it != write_versions_.end() &&
       it->first.compare(0, prefix.size(), prefix) == 0;
       ++it)
    newest = std::max(newest, it->second);
  return newest;
}

bool ReplicatedYancFs::tombstoned(const std::string& path,
                                  Version version) const {
  // One lookup per ancestor: the cost does not grow with the number of
  // names ever deleted.
  for (std::string_view p = path; p.size() > 1; p = p.substr(0, p.rfind('/')))
    if (auto it = tombstones_.find(p);
        it != tombstones_.end() && !(it->second < version))
      return true;
  return false;
}

void ReplicatedYancFs::record_tombstone(const std::string& path,
                                        Version version) {
  auto [it, inserted] = tombstones_.try_emplace(path, version);
  if (!inserted && it->second < version) it->second = version;
  // The deletion supersedes any knowledge it is newer than; strictly
  // newer changes survive (they out-rank the tombstone).
  if (auto wit = write_versions_.find(path);
      wit != write_versions_.end() && wit->second <= version)
    write_versions_.erase(wit);
  std::string prefix = path + "/";
  for (auto wit = write_versions_.lower_bound(prefix);
       wit != write_versions_.end() &&
       wit->first.compare(0, prefix.size(), prefix) == 0;)
    wit = wit->second <= version ? write_versions_.erase(wit)
                                 : std::next(wit);
}

// --- mutating overrides -------------------------------------------------------

Result<NodeId> ReplicatedYancFs::mkdir(NodeId parent, const std::string& name,
                                       std::uint32_t mode,
                                       const Credentials& creds) {
  auto r = YancFs::mkdir(parent, name, mode, creds);
  if (r) replicate(*r);
  return r;
}

Result<NodeId> ReplicatedYancFs::create(NodeId parent, const std::string& name,
                                        std::uint32_t mode,
                                        const Credentials& creds) {
  auto r = YancFs::create(parent, name, mode, creds);
  if (r) replicate(*r);
  return r;
}

Result<std::uint64_t> ReplicatedYancFs::write(NodeId node,
                                              std::uint64_t offset,
                                              std::string_view data,
                                              const Credentials& creds) {
  auto r = YancFs::write(node, offset, data, creds);
  if (r) replicate(node);
  return r;
}

Status ReplicatedYancFs::truncate(NodeId node, std::uint64_t size,
                                  const Credentials& creds) {
  auto ec = YancFs::truncate(node, size, creds);
  if (!ec) replicate(node);
  return ec;
}

Result<std::uint64_t> ReplicatedYancFs::replace(NodeId node,
                                                std::string_view data,
                                                const Credentials& creds) {
  // Atomic locally (MemFs swaps content under one shard lock) and on the
  // wire: one record carries the new content whole.
  auto r = YancFs::replace(node, data, creds);
  if (r) replicate(node);
  return r;
}

Status ReplicatedYancFs::unlink(NodeId parent, const std::string& name,
                                const Credentials& creds) {
  auto path = path_to_replicate(parent, name);
  auto ec = YancFs::unlink(parent, name, creds);
  if (!ec && path) replicate_removal(parent, *path);
  return ec;
}

Status ReplicatedYancFs::rmdir(NodeId parent, const std::string& name,
                               const Credentials& creds) {
  auto path = path_to_replicate(parent, name);
  auto ec = YancFs::rmdir(parent, name, creds);
  if (!ec && path) replicate_removal(parent, *path);
  return ec;
}

Status ReplicatedYancFs::rename(NodeId old_parent, const std::string& old_name,
                                NodeId new_parent,
                                const std::string& new_name,
                                const Credentials& creds) {
  auto from = path_to_replicate(old_parent, old_name);
  auto ec = YancFs::rename(old_parent, old_name, new_parent, new_name, creds);
  if (!ec && from)
    if (auto node = lookup(new_parent, new_name))
      replicate(*node, /*subtree=*/true, *from);
  return ec;
}

Result<NodeId> ReplicatedYancFs::symlink(NodeId parent,
                                         const std::string& name,
                                         const std::string& target,
                                         const Credentials& creds) {
  auto r = YancFs::symlink(parent, name, target, creds);
  if (r) replicate(*r);
  return r;
}

Status ReplicatedYancFs::chmod(NodeId node, std::uint32_t mode,
                               const Credentials& creds) {
  auto ec = YancFs::chmod(node, mode, creds);
  if (!ec) replicate(node);
  return ec;
}

Status ReplicatedYancFs::chown(NodeId node, vfs::Uid uid, vfs::Gid gid,
                               const Credentials& creds) {
  auto ec = YancFs::chown(node, uid, gid, creds);
  if (!ec) replicate(node);
  return ec;
}

Status ReplicatedYancFs::setxattr(NodeId node, const std::string& name,
                                  std::vector<std::uint8_t> value,
                                  const Credentials& creds) {
  auto ec = YancFs::setxattr(node, name, std::move(value), creds);
  if (!ec) replicate(node);
  return ec;
}

Status ReplicatedYancFs::removexattr(NodeId node, const std::string& name,
                                     const Credentials& creds) {
  auto ec = YancFs::removexattr(node, name, creds);
  if (!ec) replicate(node);
  return ec;
}

// --- Cluster -------------------------------------------------------------------

Cluster::Cluster(net::Scheduler& scheduler, ClusterOptions options)
    : transport_(scheduler, options.link_latency) {
  for (std::size_t i = 0; i < options.nodes; ++i) {
    replicas_.push_back(std::make_shared<ReplicatedYancFs>(
        ReplicaOptions{options.default_mode}));
    replicas_.back()->join_cluster(transport_, /*primary=*/0);
  }
}

}  // namespace yanc::dist
