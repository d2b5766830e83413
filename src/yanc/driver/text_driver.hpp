// An experimental-protocol driver — the paper's §4.1 point made concrete:
// "a handful [of switches speak] a separate OpenFlow 1.3 driver, and
// others a driver for an experimental protocol being developed ...
// supporting new protocols only requires a new driver to write new files,
// it does not require modifications to the core controller and interface
// provided to applications."
//
// TEXT/1 is a deliberately trivial line protocol:
//   device -> driver:  HELLO id=<hex> ports=<p1,p2,...>
//                      PACKETIN port=<n> data=<hex>
//                      BYE
//   driver -> device:  FLOW <name> <flowspec-to_string>
//                      UNFLOW <name>
//
// The driver populates the very same /net/switches/<s> tree the OpenFlow
// drivers do.  Applications — router, pusher, shell one-liners — cannot
// tell a TEXT/1 device from an OpenFlow switch, which is the whole point.
#pragma once

#include <memory>
#include <string>

#include "yanc/net/channel.hpp"
#include "yanc/netfs/flowio.hpp"

namespace yanc::driver {

struct TextDriverOptions {
  std::string net_root = "/net";
  std::string switch_name_prefix = "xsw";
};

class TextDriver {
 public:
  TextDriver(std::shared_ptr<vfs::Vfs> vfs, TextDriverOptions options = {});
  ~TextDriver();

  net::Listener& listener() noexcept { return listener_; }

  /// One quantum: accept, parse device lines, apply FS changes.
  std::size_t poll();

  std::size_t connected_devices() const;

 private:
  struct Connection;

  void handle_line(Connection& conn, const std::string& line);
  void on_hello(Connection& conn, const std::string& line);
  std::size_t sync_flows(Connection& conn);
  void deliver_packet_in(Connection& conn,
                         const std::vector<std::string>& tokens);

  std::shared_ptr<vfs::Vfs> vfs_;
  TextDriverOptions options_;
  net::Listener listener_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_index_ = 1;
  std::uint64_t next_pkt_ = 1;
};

}  // namespace yanc::driver
