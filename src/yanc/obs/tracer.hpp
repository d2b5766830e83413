// Causal tracing for the controller pipeline.
//
// A TraceRef (trace_id, span_id) is minted at an ingress point — a
// packet-in arriving at the software switch, or a user write into the
// yanc FS — and carried through every stage the work crosses: the
// OpenFlow channel, the driver's watch shards, vfs watch events
// (surviving coalescing: a merged event keeps the refs it absorbed),
// app event buffers, and the FLOW_MOD egress train.  Each stage records
// a child span into the process TraceRing, splitting the time the work
// *waited* in a queue (queue_ns) from the time the stage *worked* on it
// (dur_ns), so `/yanc/.trace/by-id/<id>` can answer "where did this
// flow's four milliseconds go" stage by stage.
//
// Propagation uses two mechanisms:
//
//  - A thread-local current ref (TraceScope).  Everything the pipeline
//    does synchronously on the ingress thread — FS writes, watch emits —
//    inherits the ref with no plumbing: WatchRegistry::emit stamps the
//    current ref onto the events it fans out.
//
//  - Side-band correlation maps for the two asynchronous handoffs whose
//    carriers cannot grow a context field: raw OpenFlow bytes crossing a
//    net::Channel (keyed by (datapath_id, xid); fault hooks mutate those
//    byte queues directly, so metadata cannot ride alongside) and pkt_*
//    event directories crossing from the driver to an app (keyed by the
//    directory path).  put() stamps an enqueue timestamp; take() on the
//    consuming side yields the ref plus the measured queue-wait.  Maps
//    are bounded: entries whose consumer never arrives (a dropped
//    message) are evicted FIFO, so faults cannot leak memory.
//
// Cost when tracing is off: every hook is gated on one relaxed atomic
// load, mint() returns a zero ref, and a zero ref makes every downstream
// call a no-op — the same "pay only when armed" discipline yanc::dbg
// established for lock checking.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "yanc/dbg/lockdep.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/obs/trace.hpp"
#include "yanc/util/result.hpp"

namespace yanc::obs {

/// A causal context: which trace this work belongs to and which span is
/// its parent.  Zero-initialized means "untraced" and disarms every
/// tracing call it is passed to.
struct TraceRef {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  explicit operator bool() const noexcept { return trace_id != 0; }
};

namespace detail {
inline thread_local TraceRef t_current_trace{};
}  // namespace detail

/// The calling thread's current context (zero when none is active).
inline TraceRef current_trace() noexcept { return detail::t_current_trace; }

/// RAII: installs `ref` as the thread's current context, restoring the
/// previous one on destruction.  A zero ref installs nothing and leaves
/// any active context in place — so the ingress pattern ("mint only when
/// no context is active, then open a scope") composes when nested: the
/// inner ingress's zero scope must not sever the outer trace from the
/// watch events emitted under it.
class TraceScope {
 public:
  explicit TraceScope(TraceRef ref) noexcept
      : prev_(detail::t_current_trace) {
    if (ref) detail::t_current_trace = ref;
  }
  ~TraceScope() { detail::t_current_trace = prev_; }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceRef prev_;
};

class Tracer;

/// Process-global tracer.  One pipeline, one tracer: the switch side and
/// the controller side of a channel must share the correlation maps.
Tracer& tracer() noexcept;

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 4096) : ring_(capacity) {}

  // --- capture control (driven by apply_trace_ctl) -------------------------
  void start() { enabled_.store(true, std::memory_order_relaxed); }
  void stop() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Clears the ring and both correlation maps (not the id counter: refs
  /// already in flight stay unique).
  void clear();

  /// Mint one trace per N ingress events (1 = every event).
  void set_sample_every(std::uint32_t n);
  std::uint32_t sample_every() const noexcept {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Trigger predicate: when nonzero, a timed span is recorded into the
  /// ring only if queue_ns + dur_ns >= trigger.  Anchors (mint) and
  /// annotations always record, so a filtered trace keeps its skeleton.
  void set_trigger_ns(std::uint64_t ns) {
    trigger_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t trigger_ns() const noexcept {
    return trigger_ns_.load(std::memory_order_relaxed);
  }

  void set_capacity(std::size_t capacity) { ring_.set_capacity(capacity); }

  /// Wall time for span boundaries.  Deliberately the steady clock, not
  /// the simulation's virtual clock: queue-wait vs service attribution
  /// measures the controller process, which runs in real time even when
  /// the data plane it serves is simulated.
  static std::uint64_t now_ns() noexcept;

  // --- span recording -----------------------------------------------------
  /// Mints a root context at an ingress point, honoring sampling.
  /// Returns a zero ref (disarming all downstream calls) when tracing is
  /// off or this ingress lost the sampling draw.
  TraceRef mint(std::string_view component, std::string_view name,
                std::string note = {});

  /// Records a completed child span of `parent` and returns the child's
  /// ref (so later stages can parent to it).  `start_ns`..`end_ns` is the
  /// service interval; `queue_ns` is the wait that preceded it.  No-op
  /// returning zero when `parent` is zero.
  TraceRef child(TraceRef parent, std::string_view component,
                 std::string_view name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::uint64_t queue_ns,
                 std::string note = {});

  /// Records an instantaneous annotation under `parent` (fault events:
  /// "retry 2", "connection lost").  Bypasses the trigger filter.
  void annotate(TraceRef parent, std::string_view component,
                std::string_view name, std::string note);

  // --- side-band correlation ----------------------------------------------
  struct Handoff {
    TraceRef ref;
    std::uint64_t ts_ns = 0;  // when the producer enqueued the work
    explicit operator bool() const noexcept { return bool(ref); }
  };

  /// Associates an in-flight OpenFlow message with a ref.  No-op for a
  /// zero ref.
  void wire_put(std::uint64_t dpid, std::uint32_t xid, TraceRef ref);
  /// Claims (and removes) the association; zero Handoff when absent.
  Handoff wire_take(std::uint64_t dpid, std::uint32_t xid);

  /// Same for a pkt_* event directory handed from driver to apps.
  void path_put(const std::string& path, TraceRef ref);
  Handoff path_take(const std::string& path);

  /// Outstanding correlation entries (leak check for fault tests).
  std::size_t inflight() const;

  // --- plumbing ------------------------------------------------------------
  TraceRing& ring() noexcept { return ring_; }
  const TraceRing& ring() const noexcept { return ring_; }

  /// Binds per-stage latency histograms
  /// (`pipeline/<component>/<name>/{queue_ns,service_ns}`) into `reg`.
  /// The registry is retained; rebinding drops cached stage handles.
  void bind_metrics(std::shared_ptr<Registry> reg);

 private:
  friend class Span;  // records under its pre-allocated ref

  std::uint64_t next_id() noexcept {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Shared record path: `self` is the already-assigned child ref.
  void record_span(TraceRef parent, TraceRef self, std::string_view component,
                   std::string_view name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t queue_ns,
                   std::string note);
  void record_stage(std::string_view component, std::string_view name,
                    std::uint64_t queue_ns, std::uint64_t service_ns);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> sample_every_{1};
  std::atomic<std::uint64_t> sample_counter_{0};
  std::atomic<std::uint64_t> trigger_ns_{0};
  std::atomic<std::uint64_t> ids_{0};
  TraceRing ring_;

  // Bounded so a consumer that never arrives (dropped message, app that
  // never drains) cannot grow the maps without limit.
  static constexpr std::size_t kMaxInflight = 4096;

  using WireKey = std::pair<std::uint64_t, std::uint32_t>;
  mutable dbg::Mutex<dbg::Rank::obs_tracer> mu_;
  std::map<WireKey, Handoff> wire_;
  std::deque<WireKey> wire_order_;
  std::map<std::string, Handoff> path_;
  std::deque<std::string> path_order_;
  std::shared_ptr<Registry> registry_;
  struct StageHandles {
    Histogram* queue = nullptr;
    Histogram* service = nullptr;
  };
  std::map<std::string, StageHandles, std::less<>> stages_;
};

/// RAII service-time span: measures from construction to destruction and
/// records a child of `parent` at destruction.  Inert (no clock reads, no
/// allocation) when constructed with a zero parent.  `ref()` is valid
/// immediately, so nested stages can parent to a still-open span.
///
/// Span guards time a *stage*; holding one across a blocking wait or a
/// `co_` suspension would book the wait as service time, so yanc-analyze's
/// span-wait rule rejects that pattern.
class Span {
 public:
  Span(TraceRef parent, std::string_view component, std::string_view name,
       std::uint64_t queue_ns = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The child span's ref (zero when the span is inert).
  TraceRef ref() const noexcept { return ref_; }
  explicit operator bool() const noexcept { return bool(ref_); }

  /// Appends an annotation to the note recorded at destruction.
  void note(std::string_view text);

 private:
  TraceRef parent_{};
  TraceRef ref_{};
  std::uint64_t start_ns_ = 0;
  std::uint64_t queue_ns_ = 0;
  std::string component_;
  std::string name_;
  std::string note_;
};

/// The capture-control grammar apply_trace_ctl accepts; reading
/// `/yanc/.trace/ctl` shows it.
inline constexpr std::string_view kTraceCtlGrammar =
    "# start | stop | clear | sample_every=N | capacity=N |"
    " trigger=dur_ns>DUR | trigger=off\n";

/// Applies one ctl line (whitespace-separated kTraceCtlGrammar tokens,
/// DUR = digits with an optional ns/us/ms/s suffix) to `tracer`.  Every
/// token is parsed before any applies: an invalid line fails with
/// invalid_argument and changes nothing.
Status apply_trace_ctl(Tracer& tracer, std::string_view line);

/// What is in force (enabled, sample_every, trigger_ns, capacity) plus the
/// ring's event count and the in-flight handoffs, one "key value" a line.
std::string render_trace_status(const Tracer& tracer);

}  // namespace yanc::obs
