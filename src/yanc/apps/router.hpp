// The reactive router daemon (§8): "a router daemon handles all table
// misses and sets up paths based on exact match through the network."
//
// Pure yanc application: consumes table-miss packet-ins from its events/
// buffer, learns host locations into hosts/ (mac, ip, location symlink),
// computes shortest paths over the peer-symlink topology, installs
// exact-match flows with an idle timeout along the path, and re-injects
// the triggering packet via packet_out so the first packet is not lost.
// Broadcast frames (ARP requests) are flooded to every edge port.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "yanc/net/packet.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/topo/graph.hpp"

namespace yanc::apps {

struct RouterOptions {
  std::string net_root = "/net";
  std::string app_name = "router";
  std::uint16_t flow_idle_timeout = 30;
  std::uint16_t flow_priority = 100;
};

class RouterDaemon {
 public:
  RouterDaemon(std::shared_ptr<vfs::Vfs> vfs, RouterOptions options = {});

  /// Consumes pending packet-ins; returns how many were handled.
  Result<std::size_t> poll();

  std::uint64_t paths_installed() const noexcept { return paths_; }
  std::uint64_t floods() const noexcept { return floods_; }
  std::uint64_t hosts_learned() const noexcept { return learned_; }

 private:
  Status handle_packet(const netfs::PacketInInfo& pkt);
  Status learn_host(const MacAddress& mac,
                    const std::optional<Ipv4Address>& ip,
                    const topo::PortRef& where);
  Status install_path(const topo::Graph& graph,
                      const topo::HostAttachment& src,
                      const topo::HostAttachment& dst,
                      const net::ParsedFrame& parsed,
                      const std::string& data);
  Status flood_edges(const topo::Graph& graph, const topo::PortRef& origin,
                     const std::string& data);
  Status packet_out(const std::string& switch_name, std::uint16_t port,
                    const std::string& data);
  /// True when (switch, port) has no peer symlink — i.e. a host-facing
  /// edge port (inter-switch ports never learn hosts).
  bool is_edge_port(const topo::Graph& graph, const topo::PortRef& ref) const;

  std::shared_ptr<vfs::Vfs> vfs_;
  RouterOptions options_;
  netfs::EventBufferHandle events_;  // subscribed by the first drain
  std::uint64_t next_out_ = 1;
  std::uint64_t next_flow_ = 1;
  std::uint64_t paths_ = 0;
  std::uint64_t floods_ = 0;
  std::uint64_t learned_ = 0;
};

}  // namespace yanc::apps
