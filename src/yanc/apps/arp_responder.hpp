// Proxy-ARP daemon (§2 names ARP as a canonical per-protocol application).
// Answers ARP requests from the hosts/ registry via packet_out, so known
// hosts resolve each other without network-wide broadcast.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "yanc/netfs/handles.hpp"

namespace yanc::apps {

struct ArpResponderOptions {
  std::string net_root = "/net";
  std::string app_name = "arp";
};

class ArpResponder {
 public:
  ArpResponder(std::shared_ptr<vfs::Vfs> vfs,
               ArpResponderOptions options = {});

  /// Consumes pending packet-ins; answers ARP requests it can resolve.
  Result<std::size_t> poll();

  std::uint64_t replies_sent() const noexcept { return replies_; }

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  ArpResponderOptions options_;
  netfs::EventBufferHandle events_;  // subscribed by the first drain
  std::uint64_t next_out_ = 1;
  std::uint64_t replies_ = 0;
};

}  // namespace yanc::apps
