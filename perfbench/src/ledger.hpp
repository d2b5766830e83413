// The per-layer ledger: spans the benchmark records around every call it
// makes into a yanc layer, the self times derived from them, and the
// sensitivity self-check's injected spin.
//
// Spans come only from the benchmark's own code.  A root span covers one
// timed unit of a workload (a request, a burst half, a load pass); every
// layer call made inside it is a child span sharing the root's trace id.
// Layer calls never nest in each other here, so a layer span's self time
// is its duration and the root's self time is the loop's own work.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Counter values at one instant, by name; per-layer counts are deltas.
using Snapshot = std::map<std::string, double>;

/// Every span name the benchmark records.  Roots belong to the `bench`
/// layer; the rest are named `<layer>.<call>` after src/yanc/<layer>.
enum class Call : std::uint8_t {
  request,       // reactive latency phase: one frame injected -> delivered
  load_pass,     // reactive load phase: one pass over every pool
  housekeeping,  // reactive: rmdir of the app's flows until tables empty
  burst_add,     // commit workloads: first write -> every flow on hardware
  burst_delete,  // commit workloads: first rmdir -> tables empty
  write_flow,    // netfs::write_flow
  rmdir,         // Vfs::rmdir of a flow directory
  driver_poll,   // OfDriver::poll
  sw_pump,       // Switch::pump
  net_send,      // Host::send_frame
  net_deliver,   // Scheduler::run_until_idle
  apps_poll,     // LearningSwitch::poll
  dist_commit,   // Harness::commit_flow
  cluster_tick,  // Harness::tick
  count
};

struct CallInfo {
  const char* name;   // span name, e.g. "driver.poll"
  const char* layer;  // module under src/yanc/, or "bench"
};
const CallInfo& info(Call call);
/// Call whose layer is `layer`, for --inject; false when none is.
bool layer_exists(const std::string& layer);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t trace_id = 0;
  std::int32_t parent = -1;  // index into the same recorder, -1 = root
  Call call = Call::request;
};

/// The sensitivity self-check's slowdown: a spin of this share of the
/// layer's mean call time.
inline constexpr double kInjectPct = 25.0;

/// The sensitivity self-check: after each call into `layer`, spin for
/// kInjectPct percent of that layer's mean call time, measured while the
/// workload first warms up.  The mean, not the median: Harness::tick takes
/// about 4.5 ms after a commit and 1 ms after a delete, and the median of
/// the warm-up's few ticks falls on either hump.
struct Injection {
  std::string layer;  // empty = off
  std::uint64_t spin_ns = 0;
  bool calibrated = false;
  std::vector<std::uint64_t> calibration;  // warm-up call times, ns

  bool active() const { return !layer.empty(); }
  /// Fixes spin_ns from the calibration samples (0 when the workload
  /// never called the layer).
  void calibrate();
};

/// The driving thread's span log.  Untraced recorders time nothing,
/// except calls into an injected layer (to calibrate or to spin).  A
/// tracing recorder also sums, over its root spans only, the deltas of the
/// counters its probe reads, so the benchmark's own untimed reads (gate
/// checks, housekeeping lists) stay out of the per-layer counts.
class Recorder {
 public:
  Recorder(bool tracing, std::size_t capacity, Injection* injection)
      : tracing_(tracing), capacity_(capacity), injection_(injection) {
    if (tracing_) spans_.reserve(capacity_);
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool tracing() const noexcept { return tracing_; }
  /// True once the span log is nine tenths full: traced phases start no
  /// new unit then, so memory stays bounded whatever the machine's speed,
  /// and the unit in progress still fits.
  bool full() const noexcept {
    return tracing_ && spans_.size() >= capacity_ - capacity_ / 10;
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Counter deltas summed over every root span recorded so far.
  const Snapshot& counted() const noexcept { return counted_; }

  /// The counters to difference across each root span (tracing only).
  void set_probe(std::function<Snapshot()> probe) { probe_ = std::move(probe); }

  /// Opens a root span with a fresh trace id; layer calls until end_root()
  /// become its children.  The probe reads before the span starts.
  void begin_root(Call call) {
    trace_id_ = ++traces_;
    if (!tracing_ || spans_.size() >= capacity_) return;
    if (probe_) at_root_ = probe_();
    root_ = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, trace_id_, -1, call});
  }
  /// Closes the root span; the probe reads after it ends.
  void end_root() {
    if (root_ < 0) return;
    spans_[static_cast<std::size_t>(root_)].end_ns = now_ns();
    root_ = -1;
    if (!probe_) return;
    for (const auto& [name, value] : probe_()) {
      auto before = at_root_.find(name);
      counted_[name] += value - (before == at_root_.end() ? 0 : before->second);
    }
  }

  /// Runs `fn` as one call into a layer.
  template <typename F>
  decltype(auto) call(Call call, F&& fn) {
    bool injected = injection_ && injection_->active() &&
                    injection_->layer == info(call).layer;
    if (!tracing_ && !injected) return fn();
    std::uint64_t start = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      finish(call, start, injected);
    } else {
      decltype(auto) result = fn();
      finish(call, start, injected);
      return result;
    }
  }

 private:
  void finish(Call call, std::uint64_t start, bool injected);

  bool tracing_;
  std::size_t capacity_;
  Injection* injection_;
  std::vector<Span> spans_;
  std::int32_t root_ = -1;
  std::uint32_t trace_id_ = 0;
  std::uint32_t traces_ = 0;
  std::function<Snapshot()> probe_;
  Snapshot at_root_;
  Snapshot counted_;
};

/// Per-span-name totals derived from one or more span logs.
struct CallStats {
  std::uint64_t self_ns = 0;
  std::vector<std::uint64_t> durations_ns;
};
using Ledger = std::map<Call, CallStats>;

/// Self time of every span: its duration minus its children's.
Ledger derive_ledger(const std::vector<Span>& spans);

/// Writes the spans as TSV (trace, span, parent, name, start, end; times
/// in ns from the first span).  Returns false when the file could not be
/// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Value at percentile `p` (nearest rank); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double percentile_ns(std::vector<std::uint64_t> values, double p);

}  // namespace perfbench
