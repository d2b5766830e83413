#include "ledger.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::array<CallInfo, static_cast<std::size_t>(Call::count)> kCalls{{
    {"bench.request", "bench"},
    {"bench.load_pass", "bench"},
    {"bench.housekeeping", "bench"},
    {"bench.burst_add", "bench"},
    {"bench.burst_delete", "bench"},
    {"netfs.write_flow", "netfs"},
    {"netfs.rmdir", "netfs"},
    {"driver.poll", "driver"},
    {"sw.pump", "sw"},
    {"net.send", "net"},
    {"net.deliver", "net"},
    {"apps.poll", "apps"},
    {"dist.commit_call", "dist"},
    {"cluster.tick", "cluster"},
}};

}  // namespace

const CallInfo& info(Call call) {
  return kCalls[static_cast<std::size_t>(call)];
}

bool layer_exists(const std::string& layer) {
  return layer != "bench" &&
         std::any_of(kCalls.begin(), kCalls.end(),
                     [&](const CallInfo& c) { return layer == c.layer; });
}

void Injection::calibrate() {
  std::uint64_t total = 0;
  for (std::uint64_t ns : calibration) total += ns;
  if (!calibration.empty())
    spin_ns = static_cast<std::uint64_t>(
        static_cast<double>(total) / static_cast<double>(calibration.size()) *
        kInjectPct / 100.0);
  calibrated = true;
}

void Recorder::finish(Call call, std::uint64_t start, bool injected) {
  if (injected) {
    if (!injection_->calibrated) {
      injection_->calibration.push_back(now_ns() - start);
    } else {
      std::uint64_t until = now_ns() + injection_->spin_ns;
      while (now_ns() < until) {
      }
    }
  }
  if (tracing_ && spans_.size() < capacity_)
    spans_.push_back({start, now_ns(), trace_id_, root_, call});
}

Ledger derive_ledger(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  Ledger ledger;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // root still open: not timed
    std::uint64_t dur = s.end_ns - s.start_ns;
    CallStats& stats = ledger[s.call];
    stats.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    stats.durations_ns.push_back(dur);
  }
  return ledger;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "trace\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out, "%u\t%zu\t%d\t%s\t%llu\t%llu\n", s.trace_id, i,
                 s.parent, info(s.call).name,
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0));
  }
  return std::fclose(out) == 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double percentile_ns(std::vector<std::uint64_t> values, double p) {
  return percentile(std::vector<double>(values.begin(), values.end()), p);
}

}  // namespace perfbench
