// TraceRing: a bounded in-memory ring of timestamped spans and events.
//
// Subsystems record what happened and when against the simulation's
// VirtualClock (or any other nanosecond timestamp source); the ring keeps
// the most recent `capacity` records and counts what it had to drop.
// TraceFs renders the process ring under `/yanc/.trace`, so reading a
// file answers "what did the controller just do" the same way the rest of
// the paper's state model answers "what is the controller's state".
//
// Records optionally carry causal linkage (trace_id / span_id /
// parent_span_id, plus the queue-wait preceding the span's service time):
// the Tracer (yanc/obs/tracer.hpp) threads these through the pipeline and
// TraceFs reconstructs per-trace span trees from them.  Legacy records
// leave the linkage fields zero and render exactly as before.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/dbg/lockdep.hpp"

namespace yanc::obs {

/// One trace record.  `dur_ns == 0` means an instantaneous event; anything
/// else is a span that ended at `ts_ns + dur_ns`.
struct TraceEvent {
  std::uint64_t seq = 0;    // global record ordinal (never wraps)
  std::uint64_t ts_ns = 0;  // start time (virtual or steady clock)
  std::uint64_t dur_ns = 0;
  std::string component;    // "driver", "dist", "vfs", ...
  std::string name;         // "packet_in", "replicate/apply", ...

  // Causal linkage (all zero for untraced records).  `queue_ns` is how
  // long the work waited in a queue before `dur_ns` of service began:
  // the span's wall interval is [ts_ns - queue_ns, ts_ns + dur_ns].
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t queue_ns = 0;
  std::string note;  // free-form annotation ("retry 2", "absorbed=3", ...)
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Records an instantaneous event.
  void event(std::uint64_t ts_ns, std::string_view component,
             std::string_view name) {
    TraceEvent e;
    e.ts_ns = ts_ns;
    e.component.assign(component);
    e.name.assign(name);
    record(std::move(e));
  }
  /// Records a span of `dur_ns` starting at `ts_ns`.
  void span(std::uint64_t ts_ns, std::uint64_t dur_ns,
            std::string_view component, std::string_view name) {
    TraceEvent e;
    e.ts_ns = ts_ns;
    e.dur_ns = dur_ns;
    e.component.assign(component);
    e.name.assign(name);
    record(std::move(e));
  }
  /// Records a fully-populated record (linkage fields included).  `seq`
  /// is assigned by the ring; any caller-provided value is overwritten.
  void record(TraceEvent e);

  /// Oldest-to-newest copy of the retained records: seq values in the
  /// returned vector are strictly increasing, whether or not the ring
  /// has wrapped.
  std::vector<TraceEvent> snapshot() const;

  /// Records evicted because the ring was full.
  std::uint64_t dropped() const;
  /// Total records ever written.
  std::uint64_t recorded() const;
  std::size_t size() const;
  std::size_t capacity() const;

  void clear();
  /// Resizes the ring, keeping the newest records that still fit.
  void set_capacity(std::size_t capacity);

  /// Text rendering, one record per line, oldest first:
  ///   "<seq> <ts_ns> <dur_ns> <component> <name>\n"
  /// Records with causal linkage append
  ///   " trace=<id> span=<id> parent=<id> queue_ns=<n>[ note=<text>]".
  std::string dump() const;

 private:
  /// Caller holds mu_.  Oldest retained record; 0 until the ring wraps.
  std::size_t head_locked() const { return head_; }

  mutable dbg::Mutex<dbg::Rank::obs_trace> mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  std::size_t head_ = 0;          // index of the oldest record once wrapped
  std::uint64_t seq_ = 0;
};

}  // namespace yanc::obs
