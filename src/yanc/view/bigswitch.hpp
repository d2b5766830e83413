// The big-switch virtualizer (§4.2): "network virtualization ... provides
// any arbitrary transformation, such as combining multiple switches and
// forming a new topology" — here the classic one-big-switch abstraction.
//
// The view contains a single virtual switch whose ports are chosen edge
// ports of the (physical or parent-view) network.  A flow committed on the
// virtual switch is compiled into per-hop flows along shortest paths in
// the parent topology; packet-ins arriving on edge ports surface in the
// view with the *virtual* ingress port.  Stacks on top of slices and vice
// versa, because both sides are just file trees.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "yanc/netfs/handles.hpp"
#include "yanc/topo/graph.hpp"

namespace yanc::view {

struct BigSwitchConfig {
  std::string view_name;
  std::string switch_name = "big0";
  /// Virtual port i+1 maps to edge_ports[i] in the parent network.
  std::vector<topo::PortRef> edge_ports;
};

class BigSwitch {
 public:
  BigSwitch(std::shared_ptr<vfs::Vfs> vfs, std::string parent_root,
            BigSwitchConfig config);

  /// Creates the view and the virtual switch directory.
  Status init();

  /// One duty cycle: compile committed virtual flows onto parent paths,
  /// retract removed ones, lift matching packet-ins into the view.
  Result<std::size_t> poll();

  const std::string& view_root() const noexcept { return view_root_; }
  std::string virtual_switch_path() const {
    return view_root_ + "/switches/" + config_.switch_name;
  }

  /// Virtual port number for an edge port (0 when not mapped).
  std::uint16_t virtual_port(const topo::PortRef& edge) const;

  std::uint64_t compiled_flows() const noexcept { return compiled_; }
  std::uint64_t rejected_flows() const noexcept { return rejected_; }

 private:
  std::size_t sync_flows();
  std::size_t forward_events();
  /// Installs the parent flows realizing `spec` (ingress -> egress pairs).
  Status compile_flow(const std::string& flow_name,
                      const flow::FlowSpec& spec);
  void retract_flow(const std::string& flow_name);

  std::shared_ptr<vfs::Vfs> vfs_;
  std::string parent_root_;
  std::string view_root_;
  BigSwitchConfig config_;
  std::optional<netfs::EventBufferHandle> parent_events_;
  netfs::FlowFollower follower_;  // virtual flows compiled so far
  // flow -> parent flow paths installed for it
  std::map<std::string, std::vector<std::string>> installed_;
  std::uint64_t compiled_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace yanc::view
