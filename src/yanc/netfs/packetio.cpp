#include "yanc/netfs/packetio.hpp"

#include "yanc/util/strings.hpp"

namespace yanc::netfs {

using vfs::Credentials;
using vfs::Vfs;

namespace {

// Trimmed contents of <dir>/<name>; empty when the file is absent.
std::string read_text(Vfs& vfs, const std::string& dir, const char* name,
                      const Credentials& creds) {
  auto data = vfs.read_file(dir + "/" + name, creds);
  return data ? std::string(trim(*data)) : std::string();
}

template <typename T>
T read_number(Vfs& vfs, const std::string& dir, const char* name,
              const Credentials& creds) {
  return static_cast<T>(parse_u64(read_text(vfs, dir, name, creds)).value_or(0));
}

}  // namespace

std::size_t deliver_packet_in(Vfs& vfs, const std::string& events_root,
                              const PacketInInfo& info,
                              const Credentials& creds) {
  auto apps = vfs.readdir(events_root, creds);
  if (!apps) return 0;
  std::size_t reached = 0;
  for (const auto& app : *apps) {
    if (app.type != vfs::FileType::directory) continue;
    std::string dir = events_root + "/" + app.name + "/" + info.name;
    if (vfs.mkdir(dir, 0755, creds)) continue;
    auto put = [&](const char* name, std::string_view value) {
      (void)vfs.write_file(dir + "/" + name, value, creds);
    };
    if (!info.datapath.empty()) put("datapath", info.datapath);
    if (info.in_port) put("in_port", std::to_string(info.in_port));
    if (!info.reason.empty() && info.reason != "no_match")
      put("reason", info.reason);
    if (info.buffer_id) put("buffer_id", std::to_string(info.buffer_id));
    if (info.total_len) put("total_len", std::to_string(info.total_len));
    if (!info.data.empty()) put("data", info.data);
    obs::tracer().path_put(dir, info.trace);
    ++reached;
  }
  return reached;
}

Result<PacketInInfo> read_packet_in(Vfs& vfs, const std::string& dir,
                                    const Credentials& creds) {
  PacketInInfo info;
  info.name = dir.substr(dir.rfind('/') + 1);
  auto dp = vfs.read_file(dir + "/datapath", creds);
  if (!dp) return dp.error();
  info.datapath = trim(*dp);
  info.in_port = read_number<std::uint16_t>(vfs, dir, "in_port", creds);
  info.reason = read_text(vfs, dir, "reason", creds);
  info.buffer_id = read_number<std::uint32_t>(vfs, dir, "buffer_id", creds);
  info.total_len = read_number<std::uint16_t>(vfs, dir, "total_len", creds);
  if (auto d = vfs.read_file(dir + "/data", creds)) info.data = *d;
  // The time since the writer's put is the event's buffer wait.
  if (obs::tracer().enabled()) {
    if (auto handoff = obs::tracer().path_take(dir)) {
      info.trace = handoff.ref;
      std::uint64_t now = obs::Tracer::now_ns();
      info.trace_queue_ns = now > handoff.ts_ns ? now - handoff.ts_ns : 0;
    }
  }
  return info;
}

Status write_packet_out(Vfs& vfs, const std::string& switch_dir,
                        const std::string& name, const PacketOutRequest& req,
                        const Credentials& creds) {
  std::string dir = switch_dir + "/packet_out/" + name;
  if (auto ec = vfs.mkdir(dir, 0755, creds); ec) return ec;
  Status ec;
  auto put = [&](const char* file, std::string_view value) {
    if (!ec) ec = vfs.write_file(dir + "/" + file, value, creds);
  };
  if (req.in_port) put("in_port", std::to_string(req.in_port));
  if (!req.out.empty()) put("out", req.out);
  if (!req.data.empty()) put("data", req.data);
  put("send", "1");
  if (ec) (void)vfs.rmdir(dir, creds);
  return ec;
}

Result<PacketOutRequest> read_packet_out(Vfs& vfs, const std::string& dir,
                                         const Credentials& creds) {
  auto send = vfs.read_file(dir + "/send", creds);
  if (!send) return send.error();
  if (trim(*send) != "1") return Errc::would_block;
  PacketOutRequest req;
  req.in_port = read_number<std::uint16_t>(vfs, dir, "in_port", creds);
  req.out = read_text(vfs, dir, "out", creds);
  if (auto data = vfs.read_file(dir + "/data", creds)) req.data = *data;
  return req;
}

}  // namespace yanc::netfs
