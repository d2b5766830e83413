// packetio: conversion between the §3.5 packet objects and structs, the
// packet counterpart of flowio.  A packet-in is a pkt_* directory that a
// driver (or a view) writes into every events/<app>/ buffer and the app
// consumes; a packet-out request is a packet_out/<n> directory that an
// app writes, send=1 last, and the driver consumes.  mkdir fills in the
// schema defaults (netfs/schema.cpp), so writers only write what they set.
#pragma once

#include <cstdint>
#include <string>

#include "yanc/obs/tracer.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::netfs {

/// One decoded packet-in event (§3.5): the files of a pkt_* directory.
struct PacketInInfo {
  std::string name;      // directory name inside the buffer
  std::string datapath;  // switch name
  std::uint16_t in_port = 0;
  std::string reason;    // "no_match" | "action"
  std::uint32_t buffer_id = 0;
  std::uint16_t total_len = 0;  // frame length before truncation
  std::string data;      // raw frame bytes

  // Causal context handed over with the directory (zero when untraced);
  // `trace_queue_ns` is how long the event sat in the buffer, which the
  // reader's span should pass as queue_ns.
  obs::TraceRef trace;
  std::uint64_t trace_queue_ns = 0;
};

/// Creates `info.name` in every buffer under `events_root`, writes each
/// field that differs from its schema default, and hands `info.trace` to
/// each directory's reader.  Returns the number of buffers reached.
std::size_t deliver_packet_in(vfs::Vfs& vfs, const std::string& events_root,
                              const PacketInInfo& info,
                              const vfs::Credentials& creds = {});

/// Reads a pkt_* directory and claims the context handed over with it
/// (first reader wins).  Fails only when `datapath` cannot be read.
Result<PacketInInfo> read_packet_in(vfs::Vfs& vfs, const std::string& pkt_dir,
                                    const vfs::Credentials& creds = {});

/// One packet-out request: the files of a packet_out/<n> directory.
struct PacketOutRequest {
  std::uint16_t in_port = 0;
  std::string out;   // output ports: "3", "1 2", "flood"
  std::string data;  // raw frame bytes
};

/// Creates `switch_dir`/packet_out/`name`, writes the fields `req` sets,
/// then send=1.  If a write fails (an `out` the schema rejects is
/// invalid_argument) the request is removed and the error returned: like
/// a flow (§3.4), a half-written request is never sent.
[[nodiscard]] Status write_packet_out(vfs::Vfs& vfs,
                                      const std::string& switch_dir,
                                      const std::string& name,
                                      const PacketOutRequest& req,
                                      const vfs::Credentials& creds = {});

/// Reads a request whose send flag is set: would_block while it is not,
/// not_found once the directory is gone.
Result<PacketOutRequest> read_packet_out(vfs::Vfs& vfs,
                                         const std::string& request_dir,
                                         const vfs::Credentials& creds = {});

}  // namespace yanc::netfs
