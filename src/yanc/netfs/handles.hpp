// Typed convenience handles over the yanc file system — the non-shared-
// memory half of "libyanc" (§8.1): network-centric calls that compile down
// to ordinary file I/O, so applications using them still interoperate with
// shell scripts, cron jobs and every other process poking the same files.
//
// A NetDir points at a yanc root: "/net" for the master view, or
// "/net/views/<v>" for any nested view — the API is identical either way,
// which is how view transparency (§4.2) manifests in code.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "yanc/flow/flowspec.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/packetio.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::netfs {

class SwitchHandle;
class PortHandle;
class FlowHandle;
class HostHandle;
class EventBufferHandle;

class NetDir {
 public:
  NetDir(std::shared_ptr<vfs::Vfs> vfs, std::string base = "/net",
         vfs::Credentials creds = {});

  const std::string& base() const noexcept { return base_; }
  vfs::Vfs& vfs() noexcept { return *vfs_; }
  const vfs::Credentials& credentials() const noexcept { return creds_; }

  // switches/
  Result<std::vector<std::string>> switch_names() const;
  [[nodiscard]] Status add_switch(const std::string& name);
  [[nodiscard]] Status remove_switch(const std::string& name);
  SwitchHandle switch_at(const std::string& name) const;

  // hosts/
  [[nodiscard]] Status add_host(const std::string& name, const MacAddress& mac,
                  const Ipv4Address& ip);
  HostHandle host_at(const std::string& name) const;

  // views/ — a view is just another NetDir rooted deeper (§4.2).
  Result<std::vector<std::string>> view_names() const;
  [[nodiscard]] Status create_view(const std::string& name);
  NetDir view(const std::string& name) const;

  // events/ — private packet-in buffers (§3.5).
  Result<EventBufferHandle> open_events(const std::string& app_name);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string base_;
  vfs::Credentials creds_;
};

/// A switch directory (Fig. 3 left).
class SwitchHandle {
 public:
  SwitchHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
               vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<std::uint64_t> datapath_id() const;
  [[nodiscard]] Status set_datapath_id(std::uint64_t id);
  Result<bool> connected() const;
  [[nodiscard]] Status set_connected(bool up);
  Result<std::string> protocol_version() const;
  [[nodiscard]] Status set_protocol_version(const std::string& version);

  // ports/
  Result<std::vector<std::string>> port_names() const;
  [[nodiscard]] Status add_port(std::uint16_t port_no, const MacAddress& mac,
                  const std::string& if_name);
  PortHandle port_at(const std::string& name) const;
  PortHandle port_at(std::uint16_t port_no) const;

  // flows/
  Result<std::vector<std::string>> flow_names() const;
  FlowHandle flow_at(const std::string& name) const;
  /// Creates flows/<name> and writes `spec` (committed when commit=true).
  [[nodiscard]] Status add_flow(const std::string& name, const flow::FlowSpec& spec,
                  bool commit = true);
  [[nodiscard]] Status remove_flow(const std::string& name);

  /// Reads a file directly under the switch dir ("capabilities", ...).
  Result<std::string> read_field(const std::string& file) const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A port directory (§3.3).
class PortHandle {
 public:
  PortHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<std::uint16_t> port_no() const;
  Result<MacAddress> hw_addr() const;

  /// Topology: the `peer` symlink (§3.3).
  [[nodiscard]] Status set_peer(const std::string& peer_port_path);
  Result<std::string> peer() const;  // ENOENT when no link
  [[nodiscard]] Status clear_peer();

  Result<bool> link_down() const;
  Result<bool> port_down() const;

  Result<std::uint64_t> counter(const std::string& name) const;
  [[nodiscard]] Status bump_counter(const std::string& name, std::uint64_t delta);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A flow directory (Fig. 3 right) with the §3.4 commit protocol.
class FlowHandle {
 public:
  FlowHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<flow::FlowSpec> read() const;
  [[nodiscard]] Status write(const flow::FlowSpec& spec, bool commit = true);
  Result<std::uint64_t> commit();
  Result<std::uint64_t> version() const;
  Result<flow::FlowStats> stats() const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A host directory with its `location` link.
class HostHandle {
 public:
  HostHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;
  Result<MacAddress> mac() const;
  Result<Ipv4Address> ip() const;
  [[nodiscard]] Status set_location(const std::string& port_path);
  Result<std::string> location() const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// An application's private packet-in buffer (events/<app>/, §3.5).
/// Drivers deposit pkt_* directories; the application polls or watches,
/// then consumes them.
class EventBufferHandle {
 public:
  EventBufferHandle() = default;
  EventBufferHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
                    vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }

  /// Reads (netfs::read_packet_in) and consumes everything pending,
  /// oldest first by name.  Creates the buffer when it does not exist,
  /// so an app subscribes by draining.
  Result<std::vector<PacketInInfo>> drain();
  /// Registers a watch for new packet-ins.
  Result<std::shared_ptr<vfs::WatchHandle>> watch(vfs::WatchQueuePtr queue);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

}  // namespace yanc::netfs
