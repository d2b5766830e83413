// The slicer (§4.2): materializes a *network view* that is a slice of its
// parent — a subset of switches/ports confined to a header-space predicate
// (e.g. "tp_dst=22 traffic on sw1 and sw2").
//
// Per the paper, a view application "interacts with two portions of the
// file system simultaneously, providing a translation between them":
//   parent -> view : switch and port directories are mirrored; packet-ins
//                    that match the slice are re-delivered into the view's
//                    events/ buffers.
//   view -> parent : flows committed in the view are intersected with the
//                    slice predicate (so a tenant can never program traffic
//                    outside its slice), outputs are confined to the
//                    slice's ports, and the result is committed on the
//                    parent switch.
// Views stack arbitrarily: the parent root can itself be a view.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "yanc/flow/flowspec.hpp"
#include "yanc/netfs/handles.hpp"

namespace yanc::view {

struct SliceConfig {
  std::string name;
  /// Header-space predicate; flows in the view are intersected with it.
  flow::Match predicate;
  /// Switches included in the slice; empty = every parent switch.
  std::vector<std::string> switches;
  /// Per-switch port subsets; a switch absent from the map exposes all
  /// its ports.
  std::map<std::string, std::set<std::uint16_t>> ports;
};

class Slicer {
 public:
  Slicer(std::shared_ptr<vfs::Vfs> vfs, std::string parent_root,
         SliceConfig config);

  /// Creates the view directory and mirrors the sliced switches/ports.
  Status init();

  /// One duty cycle: push committed view flows to the parent, remove
  /// deleted ones, and re-deliver slice-matching packet-ins into the
  /// view's event buffers.  Returns units of work done.
  Result<std::size_t> poll();

  const std::string& view_root() const noexcept { return view_root_; }
  const SliceConfig& config() const noexcept { return config_; }

  /// Flows rejected because they did not intersect the slice.
  std::uint64_t rejected_flows() const noexcept { return rejected_; }

 private:
  bool switch_in_slice(const std::string& name) const;
  bool port_in_slice(const std::string& sw, std::uint16_t port) const;
  /// view spec -> parent spec; nullopt when outside the slice.
  std::optional<flow::FlowSpec> translate(const std::string& sw,
                                          const flow::FlowSpec& spec) const;
  std::string parent_flow_name(const std::string& flow) const;
  std::size_t sync_flows();
  std::size_t forward_events();

  std::shared_ptr<vfs::Vfs> vfs_;
  std::string parent_root_;
  std::string view_root_;
  SliceConfig config_;
  std::optional<netfs::EventBufferHandle> parent_events_;
  // View switch -> its committed flows pushed to the parent.
  std::map<std::string, netfs::FlowFollower> followers_;
  std::uint64_t rejected_ = 0;
};

}  // namespace yanc::view
