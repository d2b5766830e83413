#include "yanc/dist/replicated.hpp"

#include <tuple>

#include "yanc/util/bytes.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::dist {

using vfs::Credentials;
using vfs::NodeId;

struct ReplicatedYancFs::Op {
  enum class Kind : std::uint8_t {
    mkdir,
    create,
    write,
    truncate,
    unlink,
    rmdir,
    rename,
    symlink,
    chmod,
    chown,
    setxattr,
    removexattr,
    anti_entropy,  // data = encoded Snapshot
  };
  Kind kind = Kind::mkdir;
  bool via_primary = false;  // strict op awaiting primary fan-out
  std::uint64_t ts = 0;      // Lamport timestamp
  std::uint64_t origin = 0;
  std::uint64_t sent_ns = 0;  // origin's virtual time at emit (lag metric)
  std::string path;
  std::string aux;   // rename destination / symlink target / xattr name
  std::string data;  // write payload / xattr value
  std::uint64_t offset = 0;  // write offset / truncate size
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;

  std::vector<std::uint8_t> encode() const {
    BufWriter w;
    w.u8(static_cast<std::uint8_t>(kind));
    w.u8(via_primary ? 1 : 0);
    w.u64(ts);
    w.u64(origin);
    w.u64(sent_ns);
    w.u64(offset);
    w.u32(mode);
    w.u32(uid);
    w.u32(gid);
    for (const std::string* s : {&path, &aux, &data}) {
      w.u32(static_cast<std::uint32_t>(s->size()));
      w.bytes({reinterpret_cast<const std::uint8_t*>(s->data()), s->size()});
    }
    return w.take();
  }

  static Result<Op> decode(const std::vector<std::uint8_t>& bytes) {
    BufReader r(bytes);
    Op op;
    op.kind = static_cast<Kind>(r.u8());
    op.via_primary = r.u8() != 0;
    op.ts = r.u64();
    op.origin = r.u64();
    op.sent_ns = r.u64();
    op.offset = r.u64();
    op.mode = r.u32();
    op.uid = r.u32();
    op.gid = r.u32();
    for (std::string* s : {&op.path, &op.aux, &op.data}) {
      std::uint32_t len = r.u32();
      auto raw = r.bytes(len);
      s->assign(raw.begin(), raw.end());
    }
    if (!r.ok()) return Errc::protocol_error;
    return op;
  }
};

// A Snapshot is one replica's view of its entire tree, exchanged during
// anti-entropy: preorder entries (parents before children) with the
// last-writer version each path was created/written at, plus the
// tombstones of everything deleted.
struct ReplicatedYancFs::Snapshot {
  struct Entry {
    std::uint8_t type = 0;  // 0 = dir, 1 = file, 2 = symlink
    std::string path;
    std::uint64_t ts = 0;
    std::uint64_t origin = 0;
    std::string data;  // file content / symlink target
  };
  std::vector<Entry> entries;
  std::vector<std::pair<std::string, Version>> tombstones;

  std::vector<std::uint8_t> encode() const {
    BufWriter w;
    auto put_string = [&w](const std::string& s) {
      w.u32(static_cast<std::uint32_t>(s.size()));
      w.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
    };
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w.u8(e.type);
      w.u64(e.ts);
      w.u64(e.origin);
      put_string(e.path);
      put_string(e.data);
    }
    w.u32(static_cast<std::uint32_t>(tombstones.size()));
    for (const auto& [path, version] : tombstones) {
      w.u64(version.first);
      w.u64(version.second);
      put_string(path);
    }
    return w.take();
  }

  static Result<Snapshot> decode(const std::string& bytes) {
    BufReader r({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                 bytes.size()});
    auto get_string = [&r]() {
      std::uint32_t len = r.u32();
      auto raw = r.bytes(len);
      return std::string(raw.begin(), raw.end());
    };
    Snapshot snap;
    std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      Entry e;
      e.type = r.u8();
      e.ts = r.u64();
      e.origin = r.u64();
      e.path = get_string();
      e.data = get_string();
      snap.entries.push_back(std::move(e));
    }
    std::uint32_t t = r.u32();
    for (std::uint32_t i = 0; i < t && r.ok(); ++i) {
      Version version;
      version.first = r.u64();
      version.second = r.u64();
      snap.tombstones.emplace_back(get_string(), version);
    }
    if (!r.ok()) return Errc::protocol_error;
    return snap;
  }
};

namespace {

std::pair<std::string, std::string> dir_and_leaf(const std::string& path) {
  auto slash = path.rfind('/');
  if (slash == std::string::npos || slash == 0)
    return {"/", path.substr(slash == std::string::npos ? 0 : 1)};
  return {path.substr(0, slash), path.substr(slash + 1)};
}

bool covers(const std::string& ancestor, const std::string& path) {
  return path == ancestor ||
         (path.size() > ancestor.size() && path.compare(0, ancestor.size(),
                                                        ancestor) == 0 &&
          path[ancestor.size()] == '/');
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

Result<NodeId> ReplicatedYancFs::resolve_local(const std::string& path) {
  NodeId node = root();
  for (const auto& comp : split_nonempty(path, '/')) {
    auto next = lookup(node, comp);
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

void ReplicatedYancFs::emit(Op op) {
  if (!transport_ || applying_remote_) return;
  op.ts = ++lamport_;
  op.origin = self_;
  op.sent_ns = transport_->clock().now_ns();
  ++local_ops_;
  note_version(op);

  // Consistency is chosen by the nearest xattr above the op's target.
  Mode mode = options_.default_mode;
  if (auto node = resolve_local(op.path))
    mode = mode_for(*node);
  else if (auto parent = resolve_local(dir_and_leaf(op.path).first))
    mode = mode_for(*parent);

  if (mode == Mode::strict && self_ != primary_) {
    // Synchronous routing through the primary: the caller pays the round
    // trip (modelled as accounted virtual time; the op itself travels the
    // simulated link so remote visibility is still ordered by arrival).
    sync_delay_ns_ += 2 * static_cast<std::uint64_t>(
                              transport_->latency().count());
    op.via_primary = true;
    // A filter-eaten op here diverges this replica until the next
    // anti-entropy round repairs it; that repair path is the point.
    std::ignore = transport_->send(self_, primary_, op.encode());
    return;
  }
  transport_->broadcast(self_, op.encode());
}

void ReplicatedYancFs::handle_message(Transport::NodeId from,
                                      const std::vector<std::uint8_t>& bytes) {
  auto op = Op::decode(bytes);
  if (!op) {
    log_error("dist", "undecodable replication op");
    return;
  }
  lamport_ = std::max(lamport_, op->ts);
  if (op->kind == Op::Kind::anti_entropy) {
    auto snap = Snapshot::decode(op->data);
    if (snap)
      apply_anti_entropy(*snap);
    else
      log_error("dist", "undecodable anti-entropy snapshot");
    return;
  }
  note_version(*op);
  bool applied = apply(*op);
  if (applied) {
    ++remote_ops_;
    if (apply_metric_) apply_metric_->add();
    if (lag_metric_ && transport_) {
      std::uint64_t now = transport_->clock().now_ns();
      if (now >= op->sent_ns) lag_metric_->record(now - op->sent_ns);
    }
  } else {
    ++conflicts_;
    if (conflict_metric_) conflict_metric_->add();
  }
  (void)from;

  // Primary fan-out for strict ops that were routed through us.
  if (op->via_primary && self_ == primary_) {
    Op fanned = *op;
    fanned.via_primary = false;
    for (Transport::NodeId node = 0; node < transport_->size(); ++node)
      if (node != self_ && node != op->origin)
        // Same deal as broadcast: per-link loss is anti-entropy's job.
        std::ignore = transport_->send(self_, node, fanned.encode());
  }
}

bool ReplicatedYancFs::apply(const Op& op) {
  applying_remote_ = true;
  auto done = [&](bool ok) {
    applying_remote_ = false;
    return ok;
  };
  Credentials root_creds;
  auto [dir, leaf] = dir_and_leaf(op.path);

  switch (op.kind) {
    case Op::Kind::mkdir: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = mkdir(*parent, leaf, op.mode, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::create: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = create(*parent, leaf, op.mode, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::write:
    case Op::Kind::truncate: {
      // Last-writer-wins on content: a concurrently newer local write
      // (greater ts, or equal ts from a higher node id) survives.
      auto it = write_versions_.find(op.path);
      if (it != write_versions_.end() &&
          it->second > std::make_pair(op.ts, op.origin))
        return done(false);
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      bool ok;
      if (op.kind == Op::Kind::write)
        ok = write(*node, op.offset, op.data, root_creds).ok();
      else
        ok = !truncate(*node, op.offset, root_creds);
      if (ok) write_versions_[op.path] = {op.ts, op.origin};
      return done(ok);
    }
    case Op::Kind::unlink: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto ec = unlink(*parent, leaf, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::rmdir: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto ec = rmdir(*parent, leaf, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::rename: {
      auto [to_dir, to_leaf] = dir_and_leaf(op.aux);
      auto from_parent = resolve_local(dir);
      auto to_parent = resolve_local(to_dir);
      if (!from_parent || !to_parent) return done(false);
      return done(
          !rename(*from_parent, leaf, *to_parent, to_leaf, root_creds));
    }
    case Op::Kind::symlink: {
      auto parent = resolve_local(dir);
      if (!parent) return done(false);
      auto r = symlink(*parent, leaf, op.aux, root_creds);
      return done(r.ok() || r.error() == make_error_code(Errc::exists));
    }
    case Op::Kind::chmod: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      return done(!chmod(*node, op.mode, root_creds));
    }
    case Op::Kind::chown: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      return done(!chown(*node, op.uid, op.gid, root_creds));
    }
    case Op::Kind::setxattr: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      std::vector<std::uint8_t> value(op.data.begin(), op.data.end());
      return done(!setxattr(*node, op.aux, std::move(value), root_creds));
    }
    case Op::Kind::removexattr: {
      auto node = resolve_local(op.path);
      if (!node) return done(false);
      auto ec = removexattr(*node, op.aux, root_creds);
      return done(!ec || ec == make_error_code(Errc::not_found));
    }
    case Op::Kind::anti_entropy:
      break;  // dispatched in handle_message, never reaches apply()
  }
  return done(false);
}

// --- anti-entropy --------------------------------------------------------------

void ReplicatedYancFs::note_version(const Op& op) {
  Version version{op.ts, op.origin};
  switch (op.kind) {
    case Op::Kind::mkdir:
    case Op::Kind::create:
    case Op::Kind::symlink:
    case Op::Kind::write:
    case Op::Kind::truncate: {
      auto& v = write_versions_[op.path];
      v = std::max(v, version);
      break;
    }
    case Op::Kind::unlink:
    case Op::Kind::rmdir:
      record_tombstone(op.path, version);
      break;
    case Op::Kind::rename: {
      // Content knowledge follows the subtree to its new name; the old
      // name gets a tombstone so stale copies of it stay dead.
      std::vector<std::pair<std::string, Version>> moved;
      if (auto it = write_versions_.find(op.path);
          it != write_versions_.end()) {
        moved.emplace_back(op.aux, it->second);
        write_versions_.erase(it);
      }
      std::string prefix = op.path + "/";
      for (auto it = write_versions_.lower_bound(prefix);
           it != write_versions_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;) {
        moved.emplace_back(op.aux + it->first.substr(op.path.size()),
                           it->second);
        it = write_versions_.erase(it);
      }
      record_tombstone(op.path, version);
      for (auto& [path, v] : moved) {
        auto& slot = write_versions_[path];
        slot = std::max(slot, v);
      }
      auto& dest = write_versions_[op.aux];
      dest = std::max(dest, version);
      break;
    }
    default:
      break;  // metadata-only ops don't move the LWW needle
  }
}

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
  for (const auto& [dead, dead_version] : tombstones_)
    if (covers(dead, path) && !(dead_version < version)) return true;
  return false;
}

void ReplicatedYancFs::record_tombstone(const std::string& path,
                                        Version version) {
  auto [it, inserted] = tombstones_.try_emplace(path, version);
  if (!inserted && it->second < version) it->second = version;
  // The deletion supersedes any content knowledge it is newer than;
  // strictly newer writes survive (they out-rank the tombstone).
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

void ReplicatedYancFs::snapshot_subtree(vfs::NodeId node,
                                        const std::string& path,
                                        Snapshot& snap) {
  auto st = getattr(node);
  if (!st) return;
  if (!path.empty()) {
    Snapshot::Entry entry;
    entry.path = path;
    auto version = version_of(path);
    entry.ts = version.first;
    entry.origin = version.second;
    if (st->is_dir()) {
      entry.type = 0;
    } else if (st->is_symlink()) {
      entry.type = 2;
      if (auto target = readlink(node)) entry.data = *target;
    } else {
      entry.type = 1;
      if (auto content = read(node, 0, st->size, Credentials::root()))
        entry.data = std::move(*content);
    }
    snap.entries.push_back(std::move(entry));
  }
  if (!st->is_dir()) return;
  auto children = readdir(node);
  if (!children) return;
  for (const auto& child : *children)
    snapshot_subtree(child.node,
                     (path.empty() ? "" : path) + "/" + child.name, snap);
}

void ReplicatedYancFs::send_anti_entropy() {
  if (!transport_) return;
  Snapshot snap;
  snapshot_subtree(root(), "", snap);
  for (const auto& [path, version] : tombstones_)
    snap.tombstones.emplace_back(path, version);
  Op op;
  op.kind = Op::Kind::anti_entropy;
  op.ts = ++lamport_;
  op.origin = self_;
  op.sent_ns = transport_->clock().now_ns();
  auto bytes = snap.encode();
  op.data.assign(bytes.begin(), bytes.end());
  if (ae_round_metric_) ae_round_metric_->add();
  transport_->broadcast(self_, op.encode());
}

void ReplicatedYancFs::apply_anti_entropy(const Snapshot& snap) {
  applying_remote_ = true;
  // Deletions first: adopt tombstones we have not seen, and tear down any
  // local subtree the tombstone out-ranks.  A strictly newer local write
  // survives — our own next broadcast re-teaches it to the cluster.
  for (const auto& [path, version] : snap.tombstones) {
    bool existed = resolve_local(path).ok();
    record_tombstone(path, version);
    if (existed && !(newest_in_subtree(path) > version)) {
      remove_subtree_local(path);
      ++repairs_;
      if (ae_repair_metric_) ae_repair_metric_->add();
    }
  }
  // Then creations and content, parents before children (preorder).
  for (const auto& entry : snap.entries) {
    Version version{entry.ts, entry.origin};
    if (tombstoned(entry.path, version)) continue;
    merge_entry_local(entry.type, entry.path, version, entry.data);
  }
  applying_remote_ = false;
}

void ReplicatedYancFs::remove_subtree_local(const std::string& path) {
  auto node = resolve_local(path);
  if (!node) return;
  auto st = getattr(*node);
  if (!st) return;
  if (st->is_dir()) {
    if (auto children = readdir(*node))
      for (const auto& child : *children)
        remove_subtree_local(path + "/" + child.name);
  }
  auto [dir, leaf] = dir_and_leaf(path);
  auto parent = resolve_local(dir);
  if (!parent) return;
  Credentials root_creds;
  if (st->is_dir())
    (void)rmdir(*parent, leaf, root_creds);
  else
    (void)unlink(*parent, leaf, root_creds);
}

void ReplicatedYancFs::merge_entry_local(std::uint8_t type,
                                         const std::string& path,
                                         Version version,
                                         const std::string& data) {
  Credentials root_creds;
  Version local = version_of(path);
  if (auto node = resolve_local(path)) {
    if (!(version > local)) return;  // ours is as new or newer
    if (type == 1) {
      // Adopt the newer content wholesale (anti-entropy ships whole
      // files, not deltas).
      if (truncate(*node, 0, root_creds)) return;
      if (!data.empty() && !write(*node, 0, data, root_creds)) return;
      ++repairs_;
      if (ae_repair_metric_) ae_repair_metric_->add();
    }
    write_versions_[path] = version;  // dirs/symlinks: version only
    return;
  }
  // Missing locally: recreate it.  The parent exists already because
  // snapshot entries arrive in preorder (and a missing parent means it
  // was tombstoned, in which case this child was skipped too).
  auto [dir, leaf] = dir_and_leaf(path);
  auto parent = resolve_local(dir);
  if (!parent) return;
  bool created = false;
  switch (type) {
    case 0:
      created = mkdir(*parent, leaf, 0755, root_creds).ok();
      break;
    case 1: {
      auto node = create(*parent, leaf, 0644, root_creds);
      if (node) {
        created = true;
        if (!data.empty()) (void)write(*node, 0, data, root_creds);
      }
      break;
    }
    case 2:
      created = symlink(*parent, leaf, data, root_creds).ok();
      break;
  }
  if (!created) return;
  write_versions_[path] = std::max(local, version);
  ++repairs_;
  if (ae_repair_metric_) ae_repair_metric_->add();
}

// --- mutating overrides -------------------------------------------------------

Result<NodeId> ReplicatedYancFs::mkdir(NodeId parent, const std::string& name,
                                       std::uint32_t mode,
                                       const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::mkdir(parent, name, mode, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::mkdir;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.mode = mode;
    emit(std::move(op));
  }
  return r;
}

Result<NodeId> ReplicatedYancFs::create(NodeId parent, const std::string& name,
                                        std::uint32_t mode,
                                        const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::create(parent, name, mode, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::create;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.mode = mode;
    emit(std::move(op));
  }
  return r;
}

Result<std::uint64_t> ReplicatedYancFs::write(NodeId node,
                                              std::uint64_t offset,
                                              std::string_view data,
                                              const Credentials& creds) {
  auto r = YancFs::write(node, offset, data, creds);
  if (r && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::write;
      op.path = *path;
      op.offset = offset;
      op.data = std::string(data);
      emit(std::move(op));
    }
  }
  return r;
}

Status ReplicatedYancFs::truncate(NodeId node, std::uint64_t size,
                                  const Credentials& creds) {
  auto ec = YancFs::truncate(node, size, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::truncate;
      op.path = *path;
      op.offset = size;
      emit(std::move(op));
    }
  }
  return ec;
}

Result<std::uint64_t> ReplicatedYancFs::replace(NodeId node,
                                                std::string_view data,
                                                const Credentials& creds) {
  // Locally atomic (MemFs swaps content under one shard lock); on the wire
  // it is the existing truncate+write pair — remote application is already
  // asynchronous, so the two-op window adds nothing new there.
  auto r = YancFs::replace(node, data, creds);
  if (r && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op t;
      t.kind = Op::Kind::truncate;
      t.path = *path;
      t.offset = 0;
      emit(std::move(t));
      Op w;
      w.kind = Op::Kind::write;
      w.path = *path;
      w.offset = 0;
      w.data = std::string(data);
      emit(std::move(w));
    }
  }
  return r;
}

Status ReplicatedYancFs::unlink(NodeId parent, const std::string& name,
                                const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::unlink(parent, name, creds);
  if (!ec && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::unlink;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    emit(std::move(op));
  }
  return ec;
}

Status ReplicatedYancFs::rmdir(NodeId parent, const std::string& name,
                               const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto ec = YancFs::rmdir(parent, name, creds);
  if (!ec && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::rmdir;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    emit(std::move(op));
  }
  return ec;
}

Status ReplicatedYancFs::rename(NodeId old_parent, const std::string& old_name,
                                NodeId new_parent,
                                const std::string& new_name,
                                const Credentials& creds) {
  auto from_path = path_of(old_parent);
  auto to_path = path_of(new_parent);
  auto ec = YancFs::rename(old_parent, old_name, new_parent, new_name, creds);
  if (!ec && !applying_remote_ && from_path && to_path) {
    Op op;
    op.kind = Op::Kind::rename;
    op.path = (*from_path == "/" ? "" : *from_path) + "/" + old_name;
    op.aux = (*to_path == "/" ? "" : *to_path) + "/" + new_name;
    emit(std::move(op));
  }
  return ec;
}

Result<NodeId> ReplicatedYancFs::symlink(NodeId parent,
                                         const std::string& name,
                                         const std::string& target,
                                         const Credentials& creds) {
  auto parent_path = path_of(parent);
  auto r = YancFs::symlink(parent, name, target, creds);
  if (r && !applying_remote_ && parent_path) {
    Op op;
    op.kind = Op::Kind::symlink;
    op.path = (*parent_path == "/" ? "" : *parent_path) + "/" + name;
    op.aux = target;
    emit(std::move(op));
  }
  return r;
}

Status ReplicatedYancFs::chmod(NodeId node, std::uint32_t mode,
                               const Credentials& creds) {
  auto ec = YancFs::chmod(node, mode, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::chmod;
      op.path = *path;
      op.mode = mode;
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::chown(NodeId node, vfs::Uid uid, vfs::Gid gid,
                               const Credentials& creds) {
  auto ec = YancFs::chown(node, uid, gid, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::chown;
      op.path = *path;
      op.uid = uid;
      op.gid = gid;
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::setxattr(NodeId node, const std::string& name,
                                  std::vector<std::uint8_t> value,
                                  const Credentials& creds) {
  std::string copy(value.begin(), value.end());
  auto ec = YancFs::setxattr(node, name, std::move(value), creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::setxattr;
      op.path = *path;
      op.aux = name;
      op.data = std::move(copy);
      emit(std::move(op));
    }
  }
  return ec;
}

Status ReplicatedYancFs::removexattr(NodeId node, const std::string& name,
                                     const Credentials& creds) {
  auto ec = YancFs::removexattr(node, name, creds);
  if (!ec && !applying_remote_) {
    if (auto path = path_of(node)) {
      Op op;
      op.kind = Op::Kind::removexattr;
      op.path = *path;
      op.aux = name;
      emit(std::move(op));
    }
  }
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
