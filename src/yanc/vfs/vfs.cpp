#include "yanc/vfs/vfs.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <limits>

#include "yanc/obs/tracer.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/memfs.hpp"

namespace yanc::vfs {

namespace {
constexpr int kMaxSymlinkDepth = 40;

/// Records the wall time of one public Vfs operation into its latency
/// histogram on scope exit.  Sampled 1-in-64: two steady_clock reads per
/// op would cost more than the op itself on the lookup fast path, and the
/// percentile estimate doesn't need every op.
class OpTimer {
 public:
  explicit OpTimer(obs::Histogram* histogram) noexcept {
    static std::atomic<std::uint32_t> tick{0};
    if ((tick.fetch_add(1, std::memory_order_relaxed) & 63u) == 0) {
      histogram_ = histogram;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~OpTimer() {
    if (!histogram_) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  obs::Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

std::string normalize_path(std::string_view path) {
  std::vector<std::string> out;
  for (auto& comp : split_nonempty(path, '/')) {
    if (comp == ".") continue;
    out.push_back(std::move(comp));
  }
  if (out.empty()) return "/";
  std::string result;
  for (const auto& comp : out) {
    result += '/';
    result += comp;
  }
  return result;
}

Vfs::Vfs() : metrics_(std::make_shared<obs::Registry>()) {
  mounts_.emplace("/", Mount{std::make_shared<MemFs>(), MountOptions{}});
  obs_.lookup_total = metrics_->counter("vfs/lookup_total");
  obs_.read_total = metrics_->counter("vfs/read_total");
  obs_.write_total = metrics_->counter("vfs/write_total");
  obs_.metadata_total = metrics_->counter("vfs/metadata_total");
  obs_.dcache_hit_total = metrics_->counter("vfs/dcache_hit_total");
  obs_.dcache_miss_total = metrics_->counter("vfs/dcache_miss_total");
  obs_.op_ns = metrics_->histogram("vfs/op_ns");
}

void Vfs::count_op(OpKind kind) {
  counters_.total.fetch_add(1, std::memory_order_relaxed);
  switch (kind) {
    case OpKind::read:
      counters_.reads.fetch_add(1, std::memory_order_relaxed);
      obs_.read_total->add();
      break;
    case OpKind::write:
      counters_.writes.fetch_add(1, std::memory_order_relaxed);
      obs_.write_total->add();
      break;
    case OpKind::metadata:
      counters_.metadata.fetch_add(1, std::memory_order_relaxed);
      obs_.metadata_total->add();
      break;
    case OpKind::lookup:
      counters_.lookups.fetch_add(1, std::memory_order_relaxed);
      obs_.lookup_total->add();
      break;
  }
}

void Vfs::reset_counters() {
  counters_.total = 0;
  counters_.reads = 0;
  counters_.writes = 0;
  counters_.metadata = 0;
  counters_.lookups = 0;
}

Status Vfs::mount(const std::string& path, FilesystemPtr fs,
                  MountOptions options) {
  if (!fs) return make_error_code(Errc::invalid_argument);
  std::string key = normalize_path(path);
  if (key != "/") {
    // The mount point must exist and be a directory; key the table on the
    // *resolved* logical path so "/a/../mnt" and "/mnt" are one mount, not
    // two, and later mount-point checks agree with the resolver.
    auto target = resolve(key, Credentials::root());
    if (!target) return target.error();
    auto st = target->fs->getattr(target->node);
    if (!st) return st.error();
    if (!st->is_dir()) return make_error_code(Errc::not_dir);
    key = target->logical.empty() ? "/" : target->logical;
  }
  dbg::UniqueLock lock(mounts_mu_);
  auto [it, inserted] = mounts_.emplace(key, Mount{std::move(fs), options});
  if (!inserted) return make_error_code(Errc::busy);
  mount_gen_.fetch_add(1, std::memory_order_release);
  return ok_status();
}

Status Vfs::umount(const std::string& path) {
  std::string key = normalize_path(path);
  if (key != "/") {
    // Canonicalize the same way mount() keyed it (resolving the mount
    // point crosses into the mounted fs, so `logical` IS the mount key).
    if (auto target = resolve(key, Credentials::root()))
      key = target->logical.empty() ? "/" : target->logical;
  }
  if (key == "/") return make_error_code(Errc::busy);
  dbg::UniqueLock lock(mounts_mu_);
  auto it = mounts_.find(key);
  if (it == mounts_.end()) return make_error_code(Errc::not_found);
  // Refuse when another mount lives underneath this one.
  std::string prefix = key + "/";
  for (const auto& [mount_path, mount] : mounts_)
    if (starts_with(mount_path, prefix))
      return make_error_code(Errc::busy);
  mounts_.erase(it);
  mount_gen_.fetch_add(1, std::memory_order_release);
  return ok_status();
}

FilesystemPtr Vfs::mounted_at(const std::string& path) const {
  dbg::SharedLock lock(mounts_mu_);
  auto it = mounts_.find(normalize_path(path));
  return it == mounts_.end() ? nullptr : it->second.fs;
}

bool Vfs::is_mount_point(const std::string& logical_path) const {
  dbg::SharedLock lock(mounts_mu_);
  return mounts_.count(logical_path) != 0;
}

struct Vfs::Frame {
  FilesystemPtr fs;
  NodeId node;
  std::string logical;  // full logical path of this directory ("" = /)
  bool read_only;
};

// Walks `components` on top of `stack`.  `base_depth` is the ".." floor:
// the walk can never pop below it, and absolute symlink targets re-anchor
// there (this is what confines a Namespace to its subtree).  When `deps`
// is non-null, every filesystem entered mid-walk is recorded with its
// change_gen() captured before any of its state is read.
Result<Vfs::Resolved> Vfs::walk_components(std::vector<Frame>& stack,
                                           std::deque<std::string>& components,
                                           const Credentials& creds,
                                           bool follow_final,
                                           std::size_t base_depth,
                                           int& symlinks_left,
                                           DcacheDeps* deps) {
  while (!components.empty()) {
    std::string comp = std::move(components.front());
    components.pop_front();

    if (comp == "..") {
      if (stack.size() > base_depth) stack.pop_back();
      continue;
    }

    Frame& cur = stack.back();
    auto cur_attr = cur.fs->getattr(cur.node);
    if (!cur_attr) return cur_attr.error();
    if (!cur_attr->is_dir()) return Errc::not_dir;
    if (auto st = cur.fs->access(cur.node, 1 /*execute*/, creds); st)
      return st;

    count_op(OpKind::lookup);
    auto child = cur.fs->lookup(cur.node, comp);
    if (!child) return child.error();

    auto child_attr = cur.fs->getattr(*child);
    if (!child_attr) return child_attr.error();

    bool is_final = components.empty();
    if (child_attr->is_symlink() && (!is_final || follow_final)) {
      if (--symlinks_left < 0) return Errc::symlink_loop;
      auto target = cur.fs->readlink(*child);
      if (!target) return target.error();
      if (starts_with(*target, "/")) stack.resize(base_depth);
      auto target_comps = split_nonempty(normalize_path(*target), '/');
      for (auto it = target_comps.rbegin(); it != target_comps.rend(); ++it)
        components.push_front(std::move(*it));
      continue;
    }

    std::string logical = cur.logical + "/" + comp;
    {
      dbg::SharedLock lock(mounts_mu_);
      auto mount_it = mounts_.find(logical);
      if (mount_it != mounts_.end()) {
        if (deps)
          deps->emplace_back(mount_it->second.fs,
                             mount_it->second.fs->change_gen());
        stack.push_back(Frame{mount_it->second.fs,
                              mount_it->second.fs->root(), logical,
                              mount_it->second.options.read_only});
        continue;
      }
    }
    stack.push_back(Frame{cur.fs, *child, logical, cur.read_only});
  }
  const Frame& top = stack.back();
  return Resolved{top.fs, top.node, top.read_only, top.logical};
}

std::string Vfs::dcache_key(const std::string& norm_root,
                            const std::string& norm_path, bool follow_final,
                            const Credentials& creds) {
  // Credentials qualify the key: the walk checks execute permission on
  // every component, so one caller's successful resolution proves nothing
  // for another.
  std::string key;
  key.reserve(norm_root.size() + norm_path.size() + 32);
  key += norm_root;
  key += '\n';
  key += norm_path;
  key += '\n';
  key += follow_final ? '1' : '0';
  key += '\n';
  key += std::to_string(creds.uid);
  key += ':';
  key += std::to_string(creds.gid);
  for (auto g : creds.groups) {
    key += ',';
    key += std::to_string(g);
  }
  return key;
}

Result<Vfs::Resolved> Vfs::resolve(std::string_view path,
                                   const Credentials& creds, bool follow_final,
                                   const std::string& root) {
  std::string norm_root = normalize_path(root);
  std::string norm = normalize_path(path);
  std::string key = dcache_key(norm_root, norm, follow_final, creds);
  // Capture the mount generation before consulting anything: a mount that
  // lands mid-walk invalidates, never validates.
  std::uint64_t mount_gen = mount_gen_.load(std::memory_order_acquire);
  {
    dbg::SharedLock lock(dcache_mu_);
    auto it = dcache_.find(key);
    if (it != dcache_.end() && it->second.mount_gen == mount_gen) {
      bool fresh = true;
      for (const auto& [fs, gen] : it->second.deps) {
        if (fs->change_gen() != gen) {
          fresh = false;
          break;
        }
      }
      if (fresh) {
        // One lookup per hit keeps the syscall counters monotonic and the
        // cached path visibly cheaper than the walked one.
        count_op(OpKind::lookup);
        obs_.dcache_hit_total->add();
        return it->second.resolved;
      }
    }
  }
  obs_.dcache_miss_total->add();

  DcacheDeps deps;
  std::vector<Frame> stack;
  {
    dbg::SharedLock lock(mounts_mu_);
    const Mount& m = mounts_.at("/");
    deps.emplace_back(m.fs, m.fs->change_gen());
    stack.push_back(Frame{m.fs, m.fs->root(), "", m.options.read_only});
  }
  int symlinks_left = kMaxSymlinkDepth;

  // Stage 1: anchor at the namespace root (always following symlinks).
  if (norm_root != "/") {
    std::deque<std::string> root_comps;
    for (auto& comp : split_nonempty(norm_root, '/'))
      root_comps.push_back(std::move(comp));
    auto anchored = walk_components(stack, root_comps, creds, true, 1,
                                    symlinks_left, &deps);
    if (!anchored) return anchored.error();
    auto attr = anchored->fs->getattr(anchored->node);
    if (!attr) return attr.error();
    if (!attr->is_dir()) return Errc::not_dir;
  }
  std::size_t base_depth = stack.size();

  // Stage 2: walk the user-supplied path, confined above base_depth.
  std::deque<std::string> components;
  for (auto& comp : split_nonempty(norm, '/'))
    components.push_back(std::move(comp));
  auto resolved = walk_components(stack, components, creds, follow_final,
                                  base_depth, symlinks_left, &deps);
  if (!resolved) return resolved;  // negative results are never cached

  bool cacheable = true;
  for (const auto& [fs, gen] : deps) {
    if (gen == kUncacheableGen) {
      cacheable = false;
      break;
    }
  }
  if (cacheable) {
    dbg::UniqueLock lock(dcache_mu_);
    if (dcache_.size() >= kDcacheCap) dcache_.clear();
    dcache_[std::move(key)] = DentryEntry{*resolved, std::move(deps),
                                          mount_gen};
  }
  return resolved;
}

Result<Vfs::Resolved> Vfs::resolve_parent(std::string_view path,
                                          const Credentials& creds,
                                          std::string* leaf,
                                          const std::string& root) {
  std::string norm = normalize_path(path);
  if (norm == "/") return Errc::busy;  // the root has no parent entry
  auto slash = norm.rfind('/');
  std::string dir = slash == 0 ? "/" : norm.substr(0, slash);
  *leaf = norm.substr(slash + 1);
  if (*leaf == "..") return Errc::invalid_argument;
  return resolve(dir, creds, true, root);
}

Result<std::shared_ptr<FileHandle>> Vfs::open(std::string_view path, int flags,
                                              std::uint32_t mode,
                                              const Credentials& creds,
                                              const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  namespace of = open_flags;
  int acc = flags & of::accmode;
  bool want_read = acc == of::read_only || acc == of::read_write;
  bool want_write = acc == of::write_only || acc == of::read_write ||
                    (flags & (of::truncate | of::append));

  auto resolved = resolve(path, creds, true, root);
  if (!resolved) {
    if (resolved.error() == make_error_code(Errc::not_found) &&
        (flags & of::create)) {
      std::string leaf;
      auto parent = resolve_parent(path, creds, &leaf, root);
      if (!parent) return parent.error();
      if (parent->read_only) return Errc::read_only;
      auto node = parent->fs->create(parent->node, leaf, mode, creds);
      if (!node) return node.error();
      return std::make_shared<FileHandle>(parent->fs, *node, flags, creds,
                                          this);
    }
    return resolved.error();
  }
  if ((flags & of::create) && (flags & of::excl)) return Errc::exists;

  auto st = resolved->fs->getattr(resolved->node);
  if (!st) return st.error();
  if (st->is_dir()) return Errc::is_dir;
  if (want_write && resolved->read_only) return Errc::read_only;

  std::uint8_t want = 0;
  if (want_read) want |= 4;
  if (want_write) want |= 2;
  if (want)
    if (auto ec = resolved->fs->access(resolved->node, want, creds); ec)
      return ec;

  if (flags & of::truncate)
    if (auto ec = resolved->fs->truncate(resolved->node, 0, creds); ec)
      return ec;

  return std::make_shared<FileHandle>(resolved->fs, resolved->node, flags,
                                      creds, this);
}

Result<std::string> Vfs::read_file(std::string_view path,
                                   const Credentials& creds,
                                   const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::read);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  return resolved->fs->read(resolved->node, 0,
                            std::numeric_limits<std::uint64_t>::max(), creds);
}

Status Vfs::write_file(std::string_view path, std::string_view data,
                       const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  // A path write with no active context is pipeline ingress: a user (or
  // an app outside any traced scope) pushing new intent into the FS.
  // Minting here makes the whole downstream chain — watch emit, driver
  // commit, OpenFlow egress — children of this write.
  obs::TraceRef ingress;
  if (!obs::current_trace() && obs::tracer().enabled())
    ingress = obs::tracer().mint("vfs", "write", std::string(path));
  obs::TraceScope trace_scope(ingress);
  // Deliberately NOT open(O_TRUNC): that truncates in one FS op and writes
  // in a second, leaving a window where concurrent readers see an empty
  // file.  replace() commits the new content in a single step.
  auto handle = open(path, open_flags::write_only | open_flags::create,
                     0644, creds, root);
  if (!handle) return handle.error();
  auto written = (*handle)->replace(data);
  return written ? ok_status() : written.error();
}

Status Vfs::append_file(std::string_view path, std::string_view data,
                        const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  auto handle = open(path,
                     open_flags::write_only | open_flags::create |
                         open_flags::append,
                     0644, creds, root);
  if (!handle) return handle.error();
  auto written = (*handle)->write(data);
  return written ? ok_status() : written.error();
}

Result<Stat> Vfs::stat(std::string_view path, const Credentials& creds,
                       const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  return resolved->fs->getattr(resolved->node);
}

Result<Stat> Vfs::lstat(std::string_view path, const Credentials& creds,
                        const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, false, root);
  if (!resolved) return resolved.error();
  return resolved->fs->getattr(resolved->node);
}

Result<std::vector<DirEntry>> Vfs::readdir(std::string_view path,
                                           const Credentials& creds,
                                           const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (auto ec = resolved->fs->access(resolved->node, 4, creds); ec) return ec;
  return resolved->fs->readdir(resolved->node);
}

Status Vfs::mkdir(std::string_view path, std::uint32_t mode,
                  const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  // Ingress like write_file: `mkdir /net/.../flows/f` is how a flow is
  // born, and in a create-then-commit burst the driver dedups the whole
  // burst onto the `created` event — the ref minted here is the one that
  // survives onto the FLOW_MOD train.
  obs::TraceRef ingress;
  if (!obs::current_trace() && obs::tracer().enabled())
    ingress = obs::tracer().mint("vfs", "mkdir", std::string(path));
  obs::TraceScope trace_scope(ingress);
  std::string leaf;
  auto parent = resolve_parent(path, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  auto node = parent->fs->mkdir(parent->node, leaf, mode, creds);
  return node ? ok_status() : node.error();
}

Status Vfs::mkdir_p(std::string_view path, std::uint32_t mode,
                    const Credentials& creds, const std::string& root) {
  std::string norm = normalize_path(path);
  auto comps = split_nonempty(norm, '/');
  std::string current;
  for (const auto& comp : comps) {
    current += '/';
    current += comp;
    auto st = stat(current, creds, root);
    if (st) {
      if (!st->is_dir()) return make_error_code(Errc::not_dir);
      continue;
    }
    if (auto ec = mkdir(current, mode, creds, root);
        ec && ec != make_error_code(Errc::exists))
      return ec;
  }
  return ok_status();
}

Status Vfs::unlink(std::string_view path, const Credentials& creds,
                   const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  std::string leaf;
  auto parent = resolve_parent(path, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  // Mount-point check on the *resolved* logical path: a lexical check
  // misses "/a/../mnt" and symlinked parents, which name the same entry.
  if (is_mount_point(parent->logical + "/" + leaf))
    return make_error_code(Errc::busy);
  return parent->fs->unlink(parent->node, leaf, creds);
}

Status Vfs::rmdir(std::string_view path, const Credentials& creds,
                  const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  std::string leaf;
  auto parent = resolve_parent(path, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  if (is_mount_point(parent->logical + "/" + leaf))
    return make_error_code(Errc::busy);
  return parent->fs->rmdir(parent->node, leaf, creds);
}

Status Vfs::remove_all(std::string_view path, const Credentials& creds,
                       const std::string& root) {
  // Ingress for deletions: `rm` of a flow dir drives a delete FLOW_MOD
  // through the same pipeline a commit does.
  obs::TraceRef ingress;
  if (!obs::current_trace() && obs::tracer().enabled())
    ingress = obs::tracer().mint("vfs", "remove", std::string(path));
  obs::TraceScope trace_scope(ingress);
  auto st = lstat(path, creds, root);
  if (!st) return st.error();
  if (st->is_dir()) {
    // rmdir first: a schema object (a flow, a switch) is removed whole by
    // its file system, and its fixed subdirectories (a flow's counters/)
    // refuse removal one by one.  Recurse only into a plain non-empty dir.
    auto removed = rmdir(path, creds, root);
    if (removed != make_error_code(Errc::not_empty)) return removed;
    auto entries = readdir(path, creds, root);
    if (!entries) return entries.error();
    for (const auto& entry : *entries) {
      std::string child = std::string(path);
      if (child.empty() || child.back() != '/') child += '/';
      child += entry.name;
      if (auto ec = remove_all(child, creds, root); ec) return ec;
    }
    return rmdir(path, creds, root);
  }
  return unlink(path, creds, root);
}

Status Vfs::rename(std::string_view from, std::string_view to,
                   const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  std::string from_leaf, to_leaf;
  auto from_parent = resolve_parent(from, creds, &from_leaf, root);
  if (!from_parent) return from_parent.error();
  auto to_parent = resolve_parent(to, creds, &to_leaf, root);
  if (!to_parent) return to_parent.error();
  if (is_mount_point(from_parent->logical + "/" + from_leaf) ||
      is_mount_point(to_parent->logical + "/" + to_leaf))
    return make_error_code(Errc::busy);
  if (from_parent->fs.get() != to_parent->fs.get())
    return make_error_code(Errc::cross_device);
  if (from_parent->read_only || to_parent->read_only)
    return make_error_code(Errc::read_only);
  return from_parent->fs->rename(from_parent->node, from_leaf,
                                 to_parent->node, to_leaf, creds);
}

Status Vfs::symlink(std::string_view target, std::string_view linkpath,
                    const Credentials& creds, const std::string& root) {
  count_op(OpKind::write);
  std::string leaf;
  auto parent = resolve_parent(linkpath, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->read_only) return make_error_code(Errc::read_only);
  auto node =
      parent->fs->symlink(parent->node, leaf, std::string(target), creds);
  return node ? ok_status() : node.error();
}

Result<std::string> Vfs::readlink(std::string_view path,
                                  const Credentials& creds,
                                  const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, false, root);
  if (!resolved) return resolved.error();
  return resolved->fs->readlink(resolved->node);
}

Status Vfs::link(std::string_view existing, std::string_view linkpath,
                 const Credentials& creds, const std::string& root) {
  count_op(OpKind::write);
  auto target = resolve(existing, creds, true, root);
  if (!target) return target.error();
  std::string leaf;
  auto parent = resolve_parent(linkpath, creds, &leaf, root);
  if (!parent) return parent.error();
  if (parent->fs.get() != target->fs.get())
    return make_error_code(Errc::cross_device);
  if (parent->read_only) return make_error_code(Errc::read_only);
  return parent->fs->link(target->node, parent->node, leaf, creds);
}

Status Vfs::chmod(std::string_view path, std::uint32_t mode,
                  const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (resolved->read_only) return make_error_code(Errc::read_only);
  return resolved->fs->chmod(resolved->node, mode, creds);
}

Status Vfs::chown(std::string_view path, Uid uid, Gid gid,
                  const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (resolved->read_only) return make_error_code(Errc::read_only);
  return resolved->fs->chown(resolved->node, uid, gid, creds);
}

Status Vfs::truncate(std::string_view path, std::uint64_t size,
                     const Credentials& creds, const std::string& root) {
  OpTimer timer(obs_.op_ns);
  count_op(OpKind::write);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (resolved->read_only) return make_error_code(Errc::read_only);
  return resolved->fs->truncate(resolved->node, size, creds);
}

Status Vfs::setxattr(std::string_view path, const std::string& name,
                     std::vector<std::uint8_t> value, const Credentials& creds,
                     const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (resolved->read_only) return make_error_code(Errc::read_only);
  return resolved->fs->setxattr(resolved->node, name, std::move(value), creds);
}

Result<std::vector<std::uint8_t>> Vfs::getxattr(std::string_view path,
                                                const std::string& name,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  return resolved->fs->getxattr(resolved->node, name);
}

Result<std::vector<std::string>> Vfs::listxattr(std::string_view path,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  return resolved->fs->listxattr(resolved->node);
}

Status Vfs::removexattr(std::string_view path, const std::string& name,
                        const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  if (resolved->read_only) return make_error_code(Errc::read_only);
  return resolved->fs->removexattr(resolved->node, name, creds);
}

Status Vfs::set_acl(std::string_view path, const Acl& acl,
                    const Credentials& creds, const std::string& root) {
  if (auto ec = acl.validate(); ec) return ec;
  return setxattr(path, kAclXattr, acl.encode(), creds, root);
}

Result<Acl> Vfs::get_acl(std::string_view path, const Credentials& creds,
                         const std::string& root) {
  auto raw = getxattr(path, kAclXattr, creds, root);
  if (!raw) return raw.error();
  return Acl::decode(*raw);
}

Status Vfs::access(std::string_view path, std::uint8_t want,
                   const Credentials& creds, const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  return resolved->fs->access(resolved->node, want, creds);
}

Result<std::shared_ptr<WatchHandle>> Vfs::watch(std::string_view path,
                                                std::uint32_t mask,
                                                WatchQueuePtr queue,
                                                const Credentials& creds,
                                                const std::string& root) {
  count_op(OpKind::metadata);
  auto resolved = resolve(path, creds, true, root);
  if (!resolved) return resolved.error();
  auto id = resolved->fs->watch(resolved->node, mask, std::move(queue));
  if (!id) return id.error();
  return std::make_shared<WatchHandle>(resolved->fs, *id);
}

// --- FileHandle -------------------------------------------------------------

FileHandle::FileHandle(FilesystemPtr fs, NodeId node, int flags,
                       Credentials creds, Vfs* vfs)
    : fs_(std::move(fs)), node_(node), flags_(flags), creds_(std::move(creds)),
      vfs_(vfs) {}

bool FileHandle::readable() const noexcept {
  int acc = flags_ & open_flags::accmode;
  return acc == open_flags::read_only || acc == open_flags::read_write;
}

bool FileHandle::writable() const noexcept {
  int acc = flags_ & open_flags::accmode;
  return acc == open_flags::write_only || acc == open_flags::read_write;
}

Result<std::string> FileHandle::read(std::uint64_t size) {
  if (!readable()) return Errc::bad_handle;
  auto data = fs_->read(node_, offset_, size, creds_);
  if (data) offset_ += data->size();
  return data;
}

Result<std::uint64_t> FileHandle::write(std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  if (flags_ & open_flags::append) {
    auto st = fs_->getattr(node_);
    if (!st) return st.error();
    offset_ = st->size;
  }
  auto n = fs_->write(node_, offset_, data, creds_);
  if (n) offset_ += *n;
  return n;
}

Result<std::uint64_t> FileHandle::replace(std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  auto n = fs_->replace(node_, data, creds_);
  if (n) offset_ = *n;
  return n;
}

Result<std::string> FileHandle::pread(std::uint64_t offset,
                                      std::uint64_t size) {
  if (!readable()) return Errc::bad_handle;
  return fs_->read(node_, offset, size, creds_);
}

Result<std::uint64_t> FileHandle::pwrite(std::uint64_t offset,
                                         std::string_view data) {
  if (!writable()) return Errc::bad_handle;
  return fs_->write(node_, offset, data, creds_);
}

Result<Stat> FileHandle::stat() { return fs_->getattr(node_); }

// --- Namespace ---------------------------------------------------------------

Namespace::Namespace(std::shared_ptr<Vfs> vfs, std::string root,
                     Credentials creds)
    : vfs_(std::move(vfs)), root_(normalize_path(root)),
      creds_(std::move(creds)) {}

Result<std::string> Namespace::read_file(std::string_view path) {
  return vfs_->read_file(path, creds_, root_);
}
Status Namespace::write_file(std::string_view path, std::string_view data) {
  return vfs_->write_file(path, data, creds_, root_);
}
Status Namespace::append_file(std::string_view path, std::string_view data) {
  return vfs_->append_file(path, data, creds_, root_);
}
Result<Stat> Namespace::stat(std::string_view path) {
  return vfs_->stat(path, creds_, root_);
}
Result<std::vector<DirEntry>> Namespace::readdir(std::string_view path) {
  return vfs_->readdir(path, creds_, root_);
}
Status Namespace::mkdir(std::string_view path, std::uint32_t mode) {
  return vfs_->mkdir(path, mode, creds_, root_);
}
Status Namespace::unlink(std::string_view path) {
  return vfs_->unlink(path, creds_, root_);
}
Status Namespace::rmdir(std::string_view path) {
  return vfs_->rmdir(path, creds_, root_);
}
Status Namespace::rename(std::string_view from, std::string_view to) {
  return vfs_->rename(from, to, creds_, root_);
}
Status Namespace::symlink(std::string_view target, std::string_view linkpath) {
  return vfs_->symlink(target, linkpath, creds_, root_);
}
Result<std::string> Namespace::readlink(std::string_view path) {
  return vfs_->readlink(path, creds_, root_);
}
Result<std::shared_ptr<WatchHandle>> Namespace::watch(std::string_view path,
                                                      std::uint32_t mask,
                                                      WatchQueuePtr queue) {
  return vfs_->watch(path, mask, std::move(queue), creds_, root_);
}

}  // namespace yanc::vfs
