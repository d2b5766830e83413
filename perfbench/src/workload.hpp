// What every workload provides to the driver in main.cpp, and the shared
// pieces the four workloads are built from.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "yanc/flow/flowspec.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/util/result.hpp"
#include "yanc/vfs/vfs.hpp"

namespace perfbench {

/// A correctness-gate failure: the run stops and reports correct=false.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What one timed phase measured.  Times are seconds of timed wall time on
/// the driving thread; untimed gate checks and housekeeping bookkeeping
/// fall outside them.
struct Tally {
  /// Per-request latency, µs: the workload's request (see README.md).
  std::vector<double> latency_us;
  double add_s = 0;               // first write -> flows on hardware
  std::uint64_t flows_added = 0;  // flows that reached hardware in add_s
  /// Every flow a timed unit committed (reactive latency requests too):
  /// the denominator of per-flow counts.
  std::uint64_t flows_committed = 0;
  double delete_s = 0;            // first rmdir -> tables empty
  std::uint64_t flows_deleted = 0;
  /// Timed wall time on the driving thread: what the ledger must sum to.
  double wall_s = 0;
  /// Completed end-to-end ops, the denominator of per-op counts.
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t polls = 0;       // OfDriver::poll calls made by the bench
  std::uint64_t idle_polls = 0;  // ... that returned 0
  std::uint64_t ticks = 0;       // Harness::tick calls
  std::uint64_t bursts = 0;
  std::size_t table_max = 0;     // largest switch table seen after a unit

  /// One timed unit put `flows` on hardware in `seconds`.
  void added(std::uint64_t flows, double seconds) {
    add_s += seconds;
    flows_added += flows;
    flows_committed += flows;
    wall_s += seconds;
  }
  /// One timed unit removed `flows` from hardware in `seconds`.
  void deleted(std::uint64_t flows, double seconds) {
    delete_s += seconds;
    flows_deleted += flows;
    wall_s += seconds;
  }
  /// Adds another phase's tally to this one.
  void merge(const Tally& other);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the closed loop for about `seconds` of timed work (a traced
  /// phase also stops when its span log fills).
  virtual void run(double seconds, Recorder& rec, Tally& tally) = 0;
  /// End-of-run correctness gate; throws GateError.
  virtual void final_check() = 0;
  /// Every counter the per-layer ledger reads (see README.md).
  virtual Snapshot snapshot() = 0;
  /// Histogram percentiles over the instance's life (these cannot be
  /// taken as deltas): vfs/op_ns and dist/replication_lag_ns p50.
  virtual Snapshot histograms() = 0;
};

struct Config {
  std::uint64_t seed = 1;
};

/// Builds and warms up a workload; the time this takes is setup_s.
/// `warm` is the recorder the warm-up runs under (it calibrates an
/// injected layer).
std::unique_ptr<Workload> make_reactive(const Config& cfg, Recorder& warm);
std::unique_ptr<Workload> make_bulk_commit(const Config& cfg, Recorder& warm);
std::unique_ptr<Workload> make_replicated_commit(const Config& cfg,
                                                 Recorder& warm);

// --- shared helpers ---------------------------------------------------------

/// Records a Status: counts the attempt, and the failure if any.
inline bool check(const yanc::Status& status, Tally& tally) {
  ++tally.attempted;
  if (status) {
    ++tally.failed;
    return false;
  }
  return true;
}

/// The gate: the switch's table equals its committed flow dirs, and both
/// equal `expected` (sorted spec strings) when given.
void gate_table(yanc::vfs::Vfs& vfs, const std::string& flows_dir,
                const yanc::sw::Switch& sw,
                const std::vector<std::string>* expected,
                const std::string& where);

/// Adds Vfs::counters() and the registry counters the ledger reads,
/// summed over `vfses`.
void add_vfs_counters(
    const std::vector<std::shared_ptr<yanc::vfs::Vfs>>& vfses, Snapshot& out);

/// A proactive flow: distinct per index, content from the seed.
yanc::flow::FlowSpec random_flow(std::mt19937_64& rng, int index);

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns);

/// `prefix` followed by `n` in decimal.  Built by appending: GCC 12 warns
/// (-Wrestrict, a false positive) on `"lit" + std::to_string(n)`.
inline std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace perfbench
