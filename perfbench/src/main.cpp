// perfbench: the full-stack controller benchmark (see ../README.md).
//
//   perfbench --workload <reactive|bulk_commit|replicated_commit>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>] [--inject <layer>]
//
// Prints human-readable detail on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
// timed work is cut into kSlices slices, each followed by a throwaway
// set-up that is timed.  With --trace 0 the metrics are the end-to-end set;
// with --trace 1 each slice runs an untraced half and then a traced half,
// and the metrics are the per-layer ledger of the traced halves.  Exit code 0 only when the
// correctness gate passed.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "workload.hpp"

using namespace perfbench;

namespace {

/// Slices per run.  Each end-to-end metric is read from kSlices samples
/// spread over the run (see end_to_end): the timed work is cut into slices,
/// and a throwaway set-up is timed after each.
constexpr int kSlices = 12;
/// Spans the driving thread may record in a traced phase (32 MiB).
constexpr std::size_t kSpanCapacity = 1 << 20;
/// The ledger check: layer self times plus the bench's own self time must
/// equal the timed wall time within this share of it.
constexpr double kLedgerSlack = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  std::string inject;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<reactive|bulk_commit|replicated_commit> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] "
               "[--inject <layer>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--spans") a.spans = value;
      else if (flag == "--inject") a.inject = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (!a.inject.empty() && !layer_exists(a.inject))
    usage("--inject names no measured layer: " + a.inject);
  return a;
}

using Factory = std::function<std::unique_ptr<Workload>(const Config&, Recorder&)>;

const std::map<std::string, Factory>& factories() {
  static const std::map<std::string, Factory> f{
      {"reactive", make_reactive},
      {"bulk_commit", make_bulk_commit},
      {"replicated_commit", make_replicated_commit},
  };
  return f;
}

std::string number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result's metrics, in output order.
struct Metrics {
  std::vector<Metric> rows;
  void add(std::string name, double value, std::string unit) {
    rows.push_back({std::move(name), value, std::move(unit)});
  }
  std::string json() const {
    std::string out = "{";
    for (const Metric& m : rows) {
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Tally merged(const std::vector<Tally>& slices) {
  Tally total;
  for (const Tally& t : slices) total.merge(t);
  return total;
}

/// `per_slice(slice)` for every slice that did timed work.
template <typename F>
std::vector<double> over_slices(const std::vector<Tally>& slices, F per_slice) {
  std::vector<double> values;
  for (const Tally& t : slices)
    if (t.wall_s > 0) values.push_back(per_slice(t));
  return values;
}

double lowest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
double highest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double add_rate(const Tally& t) {
  return ratio(static_cast<double>(t.flows_added), t.add_s);
}
double delete_rate(const Tally& t) {
  return ratio(static_cast<double>(t.flows_deleted), t.delete_s);
}
double latency_p90(const Tally& t) { return percentile(t.latency_us, 90); }

/// Rates and latencies are read at the slowest slice, set-up at the
/// fastest set-up.  The host's speed drifts between a normal level and
/// spells up to ~1.5x faster that last seconds; these are the estimators
/// that held steadiest across runs (README.md, Steadiness).
void end_to_end(const std::vector<Tally>& slices,
                const std::vector<double>& setups, Metrics& m) {
  m.add("setup_s", lowest(setups), "s");
  m.add("lat_p90_us", highest(over_slices(slices, latency_p90)), "us");
  m.add("commit_rate", lowest(over_slices(slices, add_rate)), "flows/s");
  m.add("delete_rate", lowest(over_slices(slices, delete_rate)), "flows/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

/// The per-layer ledger of a traced phase.  Throws GateError when the
/// spans do not add up to the timed wall time.
void per_layer(const std::vector<Tally>& untraced,
               const std::vector<Tally>& traced, const Recorder& rec,
               const Snapshot& hist, Metrics& m) {
  const Tally t = merged(traced);
  auto delta = [&](const std::string& name) {
    auto it = rec.counted().find(name);
    return it == rec.counted().end() ? 0.0 : it->second;
  };
  auto hist_value = [&](const std::string& name) {
    auto it = hist.find(name);
    return it == hist.end() ? 0.0 : it->second;
  };
  const Ledger main = derive_ledger(rec.spans());

  const double wall_ns = t.wall_s * 1e9;
  double layer_ns = 0, bench_ns = 0;
  for (const auto& [call, stats] : main)
    (std::strcmp(info(call).layer, "bench") == 0 ? bench_ns : layer_ns) +=
        static_cast<double>(stats.self_ns);
  const double gap = ratio(std::abs(layer_ns + bench_ns - wall_ns), wall_ns);
  std::fprintf(stderr,
               "ledger: layers %.1f%% + bench %.1f%% of %.3f s timed wall "
               "(gap %.3f%%, slack %.1f%%)\n",
               100 * ratio(layer_ns, wall_ns), 100 * ratio(bench_ns, wall_ns),
               t.wall_s, 100 * gap, 100 * kLedgerSlack);
  if (wall_ns <= 0 || gap > kLedgerSlack)
    throw GateError("ledger check: span self times do not add up to the "
                    "timed wall time");

  auto share = [&](Call c) {
    auto it = main.find(c);
    return it == main.end() ? 0.0
                            : ratio(static_cast<double>(it->second.self_ns),
                                    wall_ns);
  };
  auto p50_us = [&](Call c) {
    auto it = main.find(c);
    return it == main.end() ? 0.0
                            : percentile_ns(it->second.durations_ns, 50) / 1e3;
  };
  const double ops = static_cast<double>(t.ops);
  const double flows = static_cast<double>(t.flows_committed);

  m.add("vfs.ops_per_op", ratio(delta("vfs.ops"), ops), "count");
  m.add("vfs.writes_per_op", ratio(delta("vfs.writes"), ops), "count");
  m.add("vfs.lookups_per_op", ratio(delta("vfs.lookups"), ops), "count");
  m.add("vfs.dcache_hit_ratio",
        ratio(delta("vfs/dcache_hit_total"),
              delta("vfs/dcache_hit_total") + delta("vfs/dcache_miss_total")),
        "ratio");
  m.add("vfs.op_ns_p50", hist_value("vfs.op_ns_p50"), "ns");
  m.add("vfs.watch_coalesced", ratio(delta("watch/coalesced_total"), ops),
        "count");
  m.add("vfs.watch_drops", delta("netfs/watch_drop_total"), "count");

  m.add("netfs.write_flow_share", share(Call::write_flow), "ratio");
  m.add("netfs.write_flow_us_p50", p50_us(Call::write_flow), "us");
  m.add("netfs.rmdir_share", share(Call::rmdir), "ratio");
  m.add("netfs.rmdir_us_p50", p50_us(Call::rmdir), "us");
  m.add("netfs.typed_writes_per_flow",
        ratio(delta("netfs/typed_write_total"), flows), "count");
  m.add("netfs.validation_fails", delta("netfs/validation_fail_total"),
        "count");

  m.add("driver.poll_share", share(Call::driver_poll), "ratio");
  m.add("driver.poll_us_p50", p50_us(Call::driver_poll), "us");
  m.add("driver.idle_poll_ratio",
        ratio(static_cast<double>(t.idle_polls), static_cast<double>(t.polls)),
        "ratio");
  m.add("driver.batch_mean",
        ratio(delta("driver/of/batch_size.sum"),
              delta("driver/of/batch_size.count")),
        "count");
  m.add("driver.retries", delta("driver/of/retry_total"), "count");
  m.add("driver.audit_repairs", delta("driver/of/audit_repair_total"), "count");
  m.add("driver.send_fails", delta("driver/of/send_fail_total"), "count");

  m.add("ofp.msgs_in_per_op", ratio(delta("driver/of/msg_in_total"), ops),
        "count");
  m.add("ofp.msgs_out_per_op", ratio(delta("driver/of/msg_out_total"), ops),
        "count");
  m.add("ofp.flow_mods_per_flow",
        ratio(delta("driver/of/flow_mod_total"), flows), "count");

  m.add("sw.pump_share", share(Call::sw_pump), "ratio");
  m.add("sw.pump_us_p50", p50_us(Call::sw_pump), "us");
  m.add("sw.miss_ratio",
        ratio(delta("sw/flow_miss_total"),
              delta("sw/flow_hit_total") + delta("sw/flow_miss_total")),
        "ratio");
  m.add("sw.table_size_max", static_cast<double>(t.table_max), "count");

  m.add("net.deliver_share", share(Call::net_deliver), "ratio");
  m.add("net.send_share", share(Call::net_send), "ratio");
  m.add("net.frames_per_request", ratio(delta("net.frames"), ops), "count");

  m.add("apps.poll_share", share(Call::apps_poll), "ratio");
  m.add("apps.poll_us_p50", p50_us(Call::apps_poll), "us");
  m.add("apps.flows_per_request", ratio(delta("apps.flows"), ops), "count");

  m.add("dist.commit_call_share", share(Call::dist_commit), "ratio");
  m.add("dist.commit_call_us_p50", p50_us(Call::dist_commit), "us");
  m.add("dist.msgs_per_flow", ratio(delta("dist.messages"), flows), "count");
  m.add("dist.bytes_per_flow", ratio(delta("dist.bytes"), flows), "B");
  m.add("dist.applies_per_flow",
        ratio(delta("dist/replication_apply_total"), flows), "count");
  m.add("dist.conflicts", delta("dist/replication_conflict_total"), "count");
  m.add("dist.ae_repairs", delta("dist/anti_entropy_repair_total"), "count");
  m.add("dist.lag_ns_p50", hist_value("dist.lag_ns_p50"), "ns");

  m.add("cluster.tick_share", share(Call::cluster_tick), "ratio");
  m.add("cluster.tick_us_p50", p50_us(Call::cluster_tick), "us");
  m.add("cluster.ticks_per_burst",
        ratio(static_cast<double>(t.ticks), static_cast<double>(t.bursts)),
        "count");

  // Each slice's untraced half against its own traced half, which ran
  // right after it.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i)
    if (traced[i].add_s > 0 && untraced[i].add_s > 0)
      overhead.push_back(
          100 * (ratio(add_rate(untraced[i]), add_rate(traced[i])) - 1));
  m.add("obs.trace_overhead_pct", percentile(overhead, 50), "%");
  m.add("bench.self_share", ratio(bench_ns, wall_ns), "ratio");
  const Tally u = merged(untraced);
  m.add("bench.error_ratio",
        ratio(static_cast<double>(u.failed + t.failed),
              static_cast<double>(u.attempted + t.attempted)),
        "ratio");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto factory = factories().find(args.workload);
  if (factory == factories().end()) usage("unknown workload " + args.workload);

  Injection injection;
  injection.layer = args.inject;

  std::vector<Tally> untraced(kSlices), traced(kSlices);
  Metrics metrics;
  try {
    Recorder off(false, 0, &injection);
    Recorder on(args.trace, kSpanCapacity, &injection);
    Recorder warm(false, 0, &injection);
    std::vector<double> setups;
    // Set-up number `i` (0..kSlices) with its own seed; the first is the
    // workload the run measures, the rest are timed and dropped.
    auto set_up = [&](int i) {
      Config cfg;
      cfg.seed = args.seed * (kSlices + 1) + static_cast<std::uint64_t>(i);
      std::uint64_t t0 = now_ns();
      std::unique_ptr<Workload> w = factory->second(cfg, warm);
      setups.push_back(seconds_between(t0, now_ns()));
      // The first warm-up measured the injected layer; later ones spin.
      if (injection.active() && !injection.calibrated) {
        injection.calibrate();
        std::fprintf(stderr, "inject: %s +%llu ns per call (%.0f%% of mean)\n",
                     injection.layer.c_str(),
                     static_cast<unsigned long long>(injection.spin_ns),
                     kInjectPct);
      }
      return w;
    };

    std::unique_ptr<Workload> w = set_up(0);
    on.set_probe([&w] { return w->snapshot(); });
    const double slice_s = args.seconds / kSlices / (args.trace ? 2 : 1);
    for (int i = 0; i < kSlices; ++i) {
      // Traced and untraced halves alternate, so obs.trace_overhead_pct
      // compares work done at the same moments of a shared machine.
      w->run(slice_s, off, untraced[i]);
      if (args.trace && !on.full()) w->run(slice_s, on, traced[i]);
      std::fprintf(stderr,
                   "slice %2d: add %.1f flows/s, delete %.1f flows/s, "
                   "p90 %.1f us; next set-up ",
                   i, add_rate(untraced[i]), delete_rate(untraced[i]),
                   latency_p90(untraced[i]));
      set_up(i + 1);
      std::fprintf(stderr, "%.4f s\n", setups.back());
    }
    w->final_check();

    if (!args.trace) {
      end_to_end(untraced, setups, metrics);
    } else {
      if (!args.spans.empty() && !write_spans(args.spans, on.spans()))
        throw GateError("cannot write spans to " + args.spans);
      per_layer(untraced, traced, on, w->histograms(), metrics);
    }
  } catch (const GateError& e) {
    std::fprintf(stderr, "perfbench: CORRECTNESS GATE FAILED: %s\n", e.what());
    // The failed check itself counts as one failed operation.
    const Tally u = merged(untraced), t = merged(traced);
    print_result(false, u.attempted + t.attempted + 1,
                 u.failed + t.failed + 1, Metrics{});
    return 1;
  }

  const Tally u = merged(untraced), t = merged(traced);
  const std::uint64_t attempted = u.attempted + t.attempted;
  const std::uint64_t failed = u.failed + t.failed;
  for (const Metric& m : metrics.rows)
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  const bool correct = failed == 0;
  if (!correct)
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
