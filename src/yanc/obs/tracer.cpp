#include "yanc/obs/tracer.hpp"

#include <chrono>
#include <optional>

#include "yanc/util/strings.hpp"

namespace yanc::obs {

namespace {

/// Parses a duration token: digits with an optional ns/us/ms/s suffix.
std::optional<std::uint64_t> parse_duration_ns(std::string_view text) {
  std::uint64_t scale = 1;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ns") {
    text.remove_suffix(2);
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "us") {
    text.remove_suffix(2);
    scale = 1000;
  } else if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    text.remove_suffix(2);
    scale = 1000000;
  } else if (text.size() >= 1 && text.back() == 's') {
    text.remove_suffix(1);
    scale = 1000000000;
  }
  auto value = parse_u64(text);
  if (!value || *value > UINT64_MAX / scale) return std::nullopt;
  return *value * scale;
}

}  // namespace

Tracer& tracer() noexcept {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::clear() {
  ring_.clear();
  dbg::LockGuard lock(mu_);
  wire_.clear();
  wire_order_.clear();
  path_.clear();
  path_order_.clear();
}

void Tracer::set_sample_every(std::uint32_t n) {
  sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

TraceRef Tracer::mint(std::string_view component, std::string_view name,
                      std::string note) {
  if (!enabled()) return {};
  std::uint32_t every = sample_every();
  if (every > 1 &&
      sample_counter_.fetch_add(1, std::memory_order_relaxed) % every != 0)
    return {};
  std::uint64_t id = next_id();
  TraceRef ref{id, id};  // the root span carries its trace's id
  TraceEvent e;
  e.ts_ns = now_ns();
  e.component.assign(component);
  e.name.assign(name);
  e.trace_id = ref.trace_id;
  e.span_id = ref.span_id;
  e.note = std::move(note);
  ring_.record(std::move(e));
  return ref;
}

TraceRef Tracer::child(TraceRef parent, std::string_view component,
                       std::string_view name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t queue_ns,
                       std::string note) {
  if (!parent) return {};
  TraceRef self{parent.trace_id, next_id()};
  record_span(parent, self, component, name, start_ns, end_ns, queue_ns,
              std::move(note));
  return self;
}

void Tracer::annotate(TraceRef parent, std::string_view component,
                      std::string_view name, std::string note) {
  if (!parent) return;
  TraceEvent e;
  e.ts_ns = now_ns();
  e.component.assign(component);
  e.name.assign(name);
  e.trace_id = parent.trace_id;
  e.span_id = next_id();
  e.parent_span_id = parent.span_id;
  e.note = std::move(note);
  ring_.record(std::move(e));
}

void Tracer::record_span(TraceRef parent, TraceRef self,
                         std::string_view component, std::string_view name,
                         std::uint64_t start_ns, std::uint64_t end_ns,
                         std::uint64_t queue_ns, std::string note) {
  std::uint64_t dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  record_stage(component, name, queue_ns, dur_ns);
  std::uint64_t trigger = trigger_ns();
  if (trigger != 0 && queue_ns + dur_ns < trigger) return;
  TraceEvent e;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.component.assign(component);
  e.name.assign(name);
  e.trace_id = self.trace_id;
  e.span_id = self.span_id;
  e.parent_span_id = parent.span_id;
  e.queue_ns = queue_ns;
  e.note = std::move(note);
  ring_.record(std::move(e));
}

void Tracer::record_stage(std::string_view component, std::string_view name,
                          std::uint64_t queue_ns, std::uint64_t service_ns) {
  StageHandles handles;
  {
    dbg::LockGuard lock(mu_);
    if (!registry_) return;
    std::string stage;
    stage.reserve(component.size() + name.size() + 1);
    stage.assign(component);
    stage += '/';
    stage += name;
    auto it = stages_.find(stage);
    if (it == stages_.end()) {
      StageHandles fresh;
      fresh.queue = registry_->histogram("pipeline/" + stage + "/queue_ns");
      fresh.service =
          registry_->histogram("pipeline/" + stage + "/service_ns");
      it = stages_.emplace(std::move(stage), fresh).first;
    }
    handles = it->second;
  }
  if (handles.queue) handles.queue->record(queue_ns);
  if (handles.service) handles.service->record(service_ns);
}

void Tracer::wire_put(std::uint64_t dpid, std::uint32_t xid, TraceRef ref) {
  if (!ref) return;
  dbg::LockGuard lock(mu_);
  WireKey key{dpid, xid};
  if (wire_.emplace(key, Handoff{ref, now_ns()}).second) {
    wire_order_.push_back(key);
    // Shed keys already claimed by take() (amortized O(1): each pushed
    // key is popped at most once), then evict true overflow FIFO.
    while (!wire_order_.empty() && !wire_.count(wire_order_.front()))
      wire_order_.pop_front();
    while (wire_.size() > kMaxInflight && !wire_order_.empty()) {
      wire_.erase(wire_order_.front());
      wire_order_.pop_front();
    }
  }
}

Tracer::Handoff Tracer::wire_take(std::uint64_t dpid, std::uint32_t xid) {
  dbg::LockGuard lock(mu_);
  auto it = wire_.find(WireKey{dpid, xid});
  if (it == wire_.end()) return {};
  Handoff out = it->second;
  wire_.erase(it);
  return out;  // the stale wire_order_ entry is skipped by future evictions
}

void Tracer::path_put(const std::string& path, TraceRef ref) {
  if (!ref) return;
  dbg::LockGuard lock(mu_);
  if (path_.emplace(path, Handoff{ref, now_ns()}).second) {
    path_order_.push_back(path);
    while (!path_order_.empty() && !path_.count(path_order_.front()))
      path_order_.pop_front();
    while (path_.size() > kMaxInflight && !path_order_.empty()) {
      path_.erase(path_order_.front());
      path_order_.pop_front();
    }
  }
}

Tracer::Handoff Tracer::path_take(const std::string& path) {
  dbg::LockGuard lock(mu_);
  auto it = path_.find(path);
  if (it == path_.end()) return {};
  Handoff out = it->second;
  path_.erase(it);
  return out;
}

std::size_t Tracer::inflight() const {
  dbg::LockGuard lock(mu_);
  return wire_.size() + path_.size();
}

void Tracer::bind_metrics(std::shared_ptr<Registry> reg) {
  dbg::LockGuard lock(mu_);
  registry_ = std::move(reg);
  stages_.clear();
}

Span::Span(TraceRef parent, std::string_view component, std::string_view name,
           std::uint64_t queue_ns) {
  if (!parent) return;
  parent_ = parent;
  ref_ = TraceRef{parent.trace_id, tracer().next_id()};
  start_ns_ = Tracer::now_ns();
  queue_ns_ = queue_ns;
  component_.assign(component);
  name_.assign(name);
}

Span::~Span() {
  if (!ref_) return;
  tracer().record_span(parent_, ref_, component_, name_, start_ns_,
                       Tracer::now_ns(), queue_ns_, std::move(note_));
}

void Span::note(std::string_view text) {
  if (!ref_) return;
  if (!note_.empty()) note_ += ',';
  note_ += text;
}

Status apply_trace_ctl(Tracer& tracer, std::string_view line) {
  struct Pending {
    bool start = false, stop = false, clear = false;
    std::optional<std::uint32_t> sample_every;
    std::optional<std::size_t> capacity;
    std::optional<std::uint64_t> trigger_ns;
  } pending;
  std::string normalized(line);
  for (char& c : normalized)
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  for (const auto& raw : split_nonempty(normalized, ' ')) {
    std::string_view token = trim(raw);
    if (token.empty()) continue;
    if (token == "start") {
      pending.start = true;
    } else if (token == "stop") {
      pending.stop = true;
    } else if (token == "clear") {
      pending.clear = true;
    } else if (token.rfind("sample_every=", 0) == 0) {
      auto n = parse_u64(token.substr(13));
      if (!n || *n == 0 || *n > UINT32_MAX)
        return make_error_code(Errc::invalid_argument);
      pending.sample_every = static_cast<std::uint32_t>(*n);
    } else if (token.rfind("capacity=", 0) == 0) {
      auto n = parse_u64(token.substr(9));
      if (!n || *n == 0 || *n > (1u << 24))
        return make_error_code(Errc::invalid_argument);
      pending.capacity = static_cast<std::size_t>(*n);
    } else if (token == "trigger=off") {
      pending.trigger_ns = 0;
    } else if (token.rfind("trigger=dur_ns>", 0) == 0) {
      auto ns = parse_duration_ns(token.substr(15));
      if (!ns) return make_error_code(Errc::invalid_argument);
      pending.trigger_ns = *ns;
    } else {
      return make_error_code(Errc::invalid_argument);
    }
  }
  if (pending.start && pending.stop)
    return make_error_code(Errc::invalid_argument);

  if (pending.clear) tracer.clear();
  if (pending.capacity) tracer.set_capacity(*pending.capacity);
  if (pending.sample_every) tracer.set_sample_every(*pending.sample_every);
  if (pending.trigger_ns) tracer.set_trigger_ns(*pending.trigger_ns);
  if (pending.stop) tracer.stop();
  if (pending.start) tracer.start();
  return ok_status();
}

std::string render_trace_status(const Tracer& tracer) {
  std::string out;
  out += "enabled " + std::to_string(tracer.enabled() ? 1 : 0) + "\n";
  out += "sample_every " + std::to_string(tracer.sample_every()) + "\n";
  out += "trigger_ns " + std::to_string(tracer.trigger_ns()) + "\n";
  out += "capacity " + std::to_string(tracer.ring().capacity()) + "\n";
  out += "events " + std::to_string(tracer.ring().size()) + "\n";
  out += "inflight " + std::to_string(tracer.inflight()) + "\n";
  return out;
}

}  // namespace yanc::obs
