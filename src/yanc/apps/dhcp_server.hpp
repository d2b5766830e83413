// DHCP daemon (§2: "there should be a distinct application for each
// protocol the network needs to support such as DHCP, ARP, and LLDP").
//
// Minimal DHCPv4 over the packet-in/packet-out file interface:
// DISCOVER -> OFFER, REQUEST -> ACK, addresses from a configured pool.
// Granted leases are recorded as host objects (mac, ip) in hosts/, so the
// rest of the control plane (router, ARP responder, auditor) immediately
// knows every leased endpoint — applications composing through the FS.
#pragma once

#include <map>
#include <span>
#include <memory>
#include <optional>
#include <string>

#include "yanc/net/packet.hpp"
#include "yanc/netfs/handles.hpp"

namespace yanc::apps {

/// Minimal DHCP message (the fields this daemon uses).
struct DhcpMessage {
  std::uint8_t op = 1;  // 1=request, 2=reply
  std::uint32_t xid = 0;
  MacAddress chaddr;
  Ipv4Address yiaddr;       // your address (in replies)
  std::uint8_t msg_type = 0;  // option 53
  std::optional<Ipv4Address> requested_ip;  // option 50
};

namespace dhcp_type {
inline constexpr std::uint8_t discover = 1;
inline constexpr std::uint8_t offer = 2;
inline constexpr std::uint8_t request = 3;
inline constexpr std::uint8_t ack = 5;
inline constexpr std::uint8_t nak = 6;
}  // namespace dhcp_type

/// Builds the UDP payload of a DHCP message.
std::vector<std::uint8_t> encode_dhcp(const DhcpMessage& message);
Result<DhcpMessage> decode_dhcp(std::span<const std::uint8_t> payload);

struct DhcpServerOptions {
  std::string net_root = "/net";
  std::string app_name = "dhcp";
  Ipv4Address server_ip{0x0a000001};           // 10.0.0.1
  MacAddress server_mac = MacAddress::from_u64(0x02000000dc01ull);
  Ipv4Address pool_start{0x0a000064};          // 10.0.0.100
  std::uint32_t pool_size = 100;
};

class DhcpServer {
 public:
  DhcpServer(std::shared_ptr<vfs::Vfs> vfs, DhcpServerOptions options = {});

  Result<std::size_t> poll();

  std::uint64_t offers_sent() const noexcept { return offers_; }
  std::uint64_t acks_sent() const noexcept { return acks_; }
  const std::map<std::uint64_t, Ipv4Address>& leases() const noexcept {
    return leases_;
  }

 private:
  Result<Ipv4Address> lease_for(const MacAddress& mac);
  Status reply(const netfs::PacketInInfo& pkt, const DhcpMessage& request,
               std::uint8_t type, Ipv4Address addr);
  Status record_host(const MacAddress& mac, Ipv4Address ip);

  std::shared_ptr<vfs::Vfs> vfs_;
  DhcpServerOptions options_;
  netfs::EventBufferHandle events_;  // subscribed by the first drain
  std::map<std::uint64_t, Ipv4Address> leases_;  // mac -> ip
  std::uint32_t next_offset_ = 0;
  std::uint64_t next_out_ = 1;
  std::uint64_t offers_ = 0;
  std::uint64_t acks_ = 0;
};

}  // namespace yanc::apps
