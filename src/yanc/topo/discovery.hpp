// The topology discovery daemon (§4.3): "A topology application will
// handle LLDP messages for discovery and create symbolic links which
// connect source to destination ports."
//
// Pure yanc application: it talks to the network exclusively through the
// file system — packet_out/ directories to emit LLDP probes, an events/
// buffer to receive LLDP packet-ins, and peer symlinks as its output.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "yanc/netfs/handles.hpp"
#include "yanc/topo/graph.hpp"

namespace yanc::topo {

struct DiscoveryOptions {
  std::string net_root = "/net";
  std::string app_name = "topology";
  /// Link is forgotten when not re-confirmed within this many ns.
  std::uint64_t link_ttl_ns = 10'000'000'000ull;  // 10 s
};

class DiscoveryDaemon {
 public:
  DiscoveryDaemon(std::shared_ptr<vfs::Vfs> vfs,
                  DiscoveryOptions options = {});

  /// One duty cycle at virtual time `now_ns`: floods LLDP probes out of
  /// every switch port, consumes received LLDP packet-ins into peer
  /// symlinks, and expires stale links.  Returns links currently known.
  Result<std::size_t> step(std::uint64_t now_ns);

  /// Only consume pending packet-ins (no new probes).
  Result<std::size_t> consume(std::uint64_t now_ns);

  std::size_t known_links() const noexcept { return last_seen_.size(); }

 private:
  Status send_probes();
  Status record_link(const PortRef& src, const PortRef& dst,
                     std::uint64_t now_ns);
  void expire_links(std::uint64_t now_ns);

  std::shared_ptr<vfs::Vfs> vfs_;
  DiscoveryOptions options_;
  netfs::EventBufferHandle events_;  // subscribed by the first drain
  std::uint64_t next_probe_ = 1;
  // Directed link (src -> dst) -> last confirmation time.
  std::map<std::pair<PortRef, PortRef>, std::uint64_t> last_seen_;
};

}  // namespace yanc::topo
