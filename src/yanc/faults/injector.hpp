// Injector: one seeded source of scheduled misfortune for the whole
// process.
//
// Holds a FaultPlan per scope (channel = driver<->switch connections,
// transport = inter-replica links), draws every decision from a single
// util::Rng, and counts what it did in the obs registry
// (faults/drop_total, ...) so recovery tests can assert that the faults
// they configured actually fired.  The same seed and the same plan always
// produce the same schedule — a failing stress run is replayed by its
// seed alone.
//
// Wiring:
//   listener.set_fault_hook_factory(faults::channel_hook_factory(inj));
//   dist::attach_faults(transport, inj);              // see transport.hpp
//   faults::mount_faults_fs(vfs, inj);                // /yanc/.faults
#pragma once

#include <memory>

#include "yanc/faults/plan.hpp"
#include "yanc/net/channel.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/util/rng.hpp"
#include "yanc/vfs/synth_fs.hpp"

namespace yanc::faults {

enum class Scope { channel, transport };

/// What the injector decided for one wire message (transport scope).
/// Corruption, when rolled, is already applied to the message in place.
struct WireFate {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;  // deliver after messages sent later
  bool delay = false;    // deliver much later than link latency
};

class Injector {
 public:
  explicit Injector(std::uint64_t seed = 1) : rng_(seed) {}

  /// Restarts the fault schedule from `seed`.
  void reseed(std::uint64_t seed);
  std::uint64_t seed() const;

  FaultPlan plan(Scope scope) const;
  void set_plan(Scope scope, FaultPlan plan);

  /// Registers faults/{drop,duplicate,reorder,corrupt,delay,disconnect}_total.
  void bind_metrics(obs::Registry& registry);

  /// Rolls the dice for one message in `scope`; flips a byte of `message`
  /// in place when corruption fires.  Returns std::nullopt when the plan
  /// says to sever the connection instead.
  std::optional<WireFate> decide(Scope scope,
                                 std::vector<std::uint8_t>& message);

 private:
  mutable dbg::Mutex<dbg::Rank::faults_injector> mu_;
  util::Rng rng_;
  FaultPlan plans_[2];

  struct Counters {
    obs::Counter* drop = nullptr;
    obs::Counter* duplicate = nullptr;
    obs::Counter* reorder = nullptr;
    obs::Counter* corrupt = nullptr;
    obs::Counter* delay = nullptr;
    obs::Counter* disconnect = nullptr;
  } counters_;
};

/// A per-connection net::FaultHook driven by `injector`; install via
/// Listener::set_fault_hook_factory so every connection gets its own
/// delay stash.
std::function<std::shared_ptr<net::FaultHook>()> channel_hook_factory(
    std::shared_ptr<Injector> injector);

/// Serves `injector`'s knobs as files at `mount_path` and binds its
/// counters into `vfs`'s metrics registry.  Reads show the live plan;
/// writes parse, then apply, so an invalid policy fails with EINVAL and
/// never takes effect:
///
///   $ echo 'drop=0.05' > /yanc/.faults/channel/policy      # switch links
///   $ echo 'drop=0.3'  > /yanc/.faults/transport/policy    # replica links
///   $ echo 7 > /yanc/.faults/seed                          # replay seed 7
///   $ echo off > /yanc/.faults/channel/policy              # heal
///
/// A sibling of /yanc/.stats: one subtree injects the failures, the other
/// watches the recovery.
Result<std::shared_ptr<vfs::SynthFs>> mount_faults_fs(
    vfs::Vfs& vfs, std::shared_ptr<Injector> injector,
    const std::string& mount_path = "/yanc/.faults");

}  // namespace yanc::faults
