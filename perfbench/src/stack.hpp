// One controller process as the single-node workloads drive it: a Vfs
// with the yanc FS at /net, an OfDriver with default options, and
// software switches on a simulated network, all stepped by the
// benchmark's own loop.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workload.hpp"
#include "yanc/apps/learning_switch.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/net/simnet.hpp"
#include "yanc/sw/switch.hpp"

namespace perfbench {

/// Steps a request or burst may take before the gate calls it lost.
inline constexpr int kRoundCap = 256;

class Stack {
 public:
  /// `switches` switches with ports 1 and 2, connected and handshaken.
  explicit Stack(int switches);

  std::shared_ptr<yanc::vfs::Vfs> vfs;
  yanc::net::Scheduler scheduler;
  yanc::net::Network network{scheduler};
  std::unique_ptr<yanc::driver::OfDriver> driver;
  /// Set by the reactive workload; polled in every step.
  std::unique_ptr<yanc::apps::LearningSwitch> app;
  std::vector<std::unique_ptr<yanc::sw::Switch>> switches;
  /// /net/switches/<name>/flows for each switch, in switch order.
  std::vector<std::string> flows_dirs;

  /// One scheduling round: driver, app, every switch, then the network.
  /// Returns the units of work done.
  std::size_t step(Recorder& rec, Tally& tally);

  /// Steps until `done()` holds and a step does no work (every barrier
  /// acked); throws GateError after kRoundCap steps.
  void settle(Recorder& rec, Tally& tally, const std::function<bool()>& done,
              const std::string& what);

  bool tables_hold(std::size_t n) const;

  /// The counters every single-node workload reports.
  Snapshot snapshot() const;
  Snapshot histograms() const;
};

}  // namespace perfbench
