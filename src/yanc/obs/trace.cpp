#include "yanc/obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace yanc::obs {

namespace {

/// Minimal JSON string escaper for component/name/note fields.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// Children may be *recorded* before their parent (a RAII parent span
// closes after the stages nested in it), so the tree is rebuilt from the
// linkage fields rather than ring order.
std::string render_trace(const std::vector<TraceEvent>& events,
                         std::uint64_t trace_id) {
  std::vector<const TraceEvent*> mine;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& e : events) {
    if (e.trace_id != trace_id) continue;
    mine.push_back(&e);
    std::uint64_t start = e.ts_ns - std::min(e.queue_ns, e.ts_ns);
    t0 = std::min(t0, start);
  }
  if (mine.empty()) return {};

  std::set<std::uint64_t> span_ids;
  for (const auto* e : mine) span_ids.insert(e->span_id);
  std::map<std::uint64_t, std::vector<const TraceEvent*>> children;
  std::vector<const TraceEvent*> roots;
  for (const auto* e : mine) {
    if (e->parent_span_id != 0 && span_ids.count(e->parent_span_id))
      children[e->parent_span_id].push_back(e);
    else
      roots.push_back(e);
  }
  auto by_start = [](const TraceEvent* a, const TraceEvent* b) {
    return a->ts_ns - std::min(a->queue_ns, a->ts_ns) <
           b->ts_ns - std::min(b->queue_ns, b->ts_ns);
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children)
    std::sort(kids.begin(), kids.end(), by_start);

  std::string out = "trace " + std::to_string(trace_id) + ": " +
                    std::to_string(mine.size()) + " spans\n";
  // Iterative DFS; depth capped so a pathological parent cycle (ids
  // reused after a clear()) cannot recurse away the stack.
  struct Frame {
    const TraceEvent* e;
    std::size_t depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it)
    stack.push_back({*it, 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    out += std::string(2 * f.depth, ' ');
    out += f.e->component + "/" + f.e->name;
    out += " span=" + std::to_string(f.e->span_id);
    std::uint64_t start = f.e->ts_ns - std::min(f.e->queue_ns, f.e->ts_ns);
    out += " start=+" + std::to_string(start - t0) + "ns";
    out += " queue=" + std::to_string(f.e->queue_ns) + "ns";
    out += " dur=" + std::to_string(f.e->dur_ns) + "ns";
    if (!f.e->note.empty()) out += " note=" + f.e->note;
    out += '\n';
    if (f.depth >= 64) continue;
    auto kids = children.find(f.e->span_id);
    if (kids == children.end()) continue;
    for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it)
      stack.push_back({*it, f.depth + 1});
  }
  return out;
}

// ts/dur are in microseconds per the format; args keep full-precision
// nanoseconds.  Tid rows make concurrent traces render as parallel tracks.
std::string render_chrome_json(const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, std::uint64_t> tids;
  for (const auto& e : events)
    tids.emplace(e.trace_id, tids.size() + 1);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ',';
    first = false;
    std::uint64_t start = e.ts_ns - std::min(e.queue_ns, e.ts_ns);
    out += "{\"ph\":\"X\",\"name\":\"" + json_escape(e.component) + "/" +
           json_escape(e.name) + "\"";
    out += ",\"cat\":\"" + json_escape(e.component) + "\"";
    out += ",\"pid\":1,\"tid\":" + std::to_string(tids[e.trace_id]);
    out += ",\"ts\":" + std::to_string(start / 1000) + "." +
           std::to_string(start % 1000);
    std::uint64_t total = e.queue_ns + e.dur_ns;
    out += ",\"dur\":" + std::to_string(total / 1000) + "." +
           std::to_string(total % 1000);
    out += ",\"args\":{\"trace_id\":" + std::to_string(e.trace_id) +
           ",\"span_id\":" + std::to_string(e.span_id) +
           ",\"parent_span_id\":" + std::to_string(e.parent_span_id) +
           ",\"queue_ns\":" + std::to_string(e.queue_ns) +
           ",\"service_ns\":" + std::to_string(e.dur_ns) +
           ",\"note\":\"" + json_escape(e.note) + "\"}}";
  }
  out += "]}\n";
  return out;
}


void TraceRing::record(TraceEvent e) {
  dbg::LockGuard lock(mu_);
  e.seq = seq_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
    return;
  }
  // Overwrite the oldest record; its successor becomes the new oldest.
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  dbg::LockGuard lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  return out;
}

std::uint64_t TraceRing::dropped() const {
  dbg::LockGuard lock(mu_);
  return seq_ - ring_.size();
}

std::uint64_t TraceRing::recorded() const {
  dbg::LockGuard lock(mu_);
  return seq_;
}

std::size_t TraceRing::size() const {
  dbg::LockGuard lock(mu_);
  return ring_.size();
}

std::size_t TraceRing::capacity() const {
  dbg::LockGuard lock(mu_);
  return capacity_;
}

void TraceRing::clear() {
  dbg::LockGuard lock(mu_);
  ring_.clear();
  head_ = 0;
}

void TraceRing::set_capacity(std::size_t capacity) {
  if (capacity == 0) capacity = 1;
  dbg::LockGuard lock(mu_);
  if (capacity == capacity_) return;
  // Rotate into oldest-first order, then keep the newest `capacity`.
  std::vector<TraceEvent> ordered;
  ordered.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    ordered.push_back(std::move(ring_[(head_ + i) % ring_.size()]));
  if (ordered.size() > capacity)
    ordered.erase(ordered.begin(),
                  ordered.begin() +
                      static_cast<std::ptrdiff_t>(ordered.size() - capacity));
  capacity_ = capacity;
  ring_ = std::move(ordered);
  head_ = 0;
}

std::string TraceRing::dump() const {
  std::string out;
  for (const auto& e : snapshot()) {
    out += std::to_string(e.seq);
    out += ' ';
    out += std::to_string(e.ts_ns);
    out += ' ';
    out += std::to_string(e.dur_ns);
    out += ' ';
    out += e.component;
    out += ' ';
    out += e.name;
    if (e.trace_id != 0) {
      out += " trace=";
      out += std::to_string(e.trace_id);
      out += " span=";
      out += std::to_string(e.span_id);
      out += " parent=";
      out += std::to_string(e.parent_span_id);
      out += " queue_ns=";
      out += std::to_string(e.queue_ns);
      if (!e.note.empty()) {
        out += " note=";
        out += e.note;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace yanc::obs
