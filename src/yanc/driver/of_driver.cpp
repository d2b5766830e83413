#include "yanc/driver/of_driver.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "yanc/obs/tracer.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::driver {

using flow::FlowSpec;
using vfs::Credentials;
using vfs::NodeId;

// An in-flight tracked request (flow-commit barrier, the features
// handshake), keyed by xid in its connection's `pending` map.  `flows`
// lists every commit the request covers — a train's barrier vouches for
// all of them, so a timeout re-pushes all of them.  Empty means the
// handshake.
struct OfDriver::PendingRequest {
  std::vector<std::string> flows;
  std::uint64_t deadline = 0;  // tick at which to retry
  std::uint32_t retries = 0;
  // Tracing state of the covered train (empty when untraced): each
  // trace gets a commit_ack span when the barrier reply lands, or a
  // fault annotation when the train dies; leftover wire handoffs under
  // these xids are reclaimed either way so nothing leaks.
  std::vector<obs::TraceRef> traces;
  std::vector<std::uint32_t> xids;
  std::uint64_t sent_ns = 0;  // when the train left (ack queue = RTT)
};

struct OfDriver::Connection {
  net::Channel channel;
  enum class State { handshaking, ready } state = State::handshaking;
  std::uint64_t dpid = 0;
  std::string name;  // directory name under switches/
  std::string path;  // absolute switch directory path
  std::uint32_t next_xid = 1;

  // Per-switch watch shard: this connection's slice of the file system's
  // event stream.  Sharding keeps one slow or overflowing switch from
  // forcing a rescan of every other switch, and gives the drain
  // a natural unit — one burst, one switch, one wire train.
  vfs::WatchQueuePtr fs_queue;

  // Egress burst: FLOW_MODs queued since the last flush.  Sealed buffers
  // each pack up to kMaxBatch messages; the whole burst leaves in one
  // vectored send_batch capped by a single barrier.
  struct Egress {
    std::vector<net::Message> bufs;        // sealed packed buffers
    std::optional<ofp::BatchEncoder> enc;  // buffer being filled
    std::vector<std::string> flows;        // commits riding this train
    std::size_t mods = 0;                  // FLOW_MODs in the burst
    std::uint64_t counter_delta = 0;       // deferred counters/flow_mods
    std::uint32_t retries = 0;             // max over contributing pushes
    // Causal contexts riding the train, and the FLOW_MOD xids they were
    // wire_put under (parallel staging, consumed independently: traces
    // feed the barrier's commit_ack spans, xids feed handoff cleanup
    // when the train dies).  Both empty when tracing is off, so the
    // fast path never touches them.
    std::vector<obs::TraceRef> traces;
    std::vector<std::uint32_t> xids;
  } egress;

  // --- liveness / recovery state (ticks = driver poll counter) ---------
  std::uint64_t last_recv_tick = 0;  // last message from the switch
  std::uint64_t last_ping_tick = 0;  // last keepalive we sent
  std::uint64_t last_audit_tick = 0;
  bool down_marked = false;  // status=down already written
  // A newer connection presented the same dpid and owns the switch
  // directory now; this zombie must not touch the FS on its way out.
  bool superseded = false;

  // In-flight tracked requests, keyed by xid.
  std::map<std::uint32_t, PendingRequest> pending;
  std::uint32_t audit_xid = 0;  // outstanding audit flow-stats request

  struct FlowState {
    std::uint64_t pushed_version = 0;
    FlowSpec pushed;  // last spec sent to hardware
    std::shared_ptr<vfs::WatchHandle> version_watch;
    NodeId version_node = vfs::kInvalidNode;
  };
  std::map<std::string, FlowState> flows;
  // Deletions the driver itself performed (flow_removed mirroring); the
  // resulting FS delete event must not bounce a FLOW_MOD back.
  std::set<std::string> suppress_delete;

  // Keeps non-flow watches alive: flows/, packet_out/, per-port config,
  // per-packet-out send files.  Keyed by watched path.
  std::map<std::string, std::shared_ptr<vfs::WatchHandle>> watches;
  std::map<std::string, NodeId> watch_nodes;
  // Last configuration reported by the hardware, per port: (port_down,
  // no_flood).  PORT_MOD is only sent when the FS diverges from this, so
  // the driver's own PortStatus mirroring can never echo into a loop.
  std::map<std::uint16_t, std::pair<bool, bool>> port_hw_config;
};

struct OfDriver::WatchContext {
  enum class Kind {
    flows_dir,
    flow_version,
    port_config,
    pktout_dir,
    pktout_send,
  };
  Kind kind;
  Connection* conn = nullptr;
  std::string name;  // flow / port / packet-out directory name
};

namespace {

/// Watch events drained per batch; also the most FLOW_MODs packed into one
/// wire buffer (a longer burst spans several buffers in one vectored send).
constexpr std::size_t kMaxBatch = 256;

/// Closes out a dead train's causal state: reclaims any wire handoff the
/// switch never consumed and stamps `what` ("retry 2", "connection lost")
/// onto each carried trace, so a reconstructed chain ends at the fault
/// instead of dangling open.  Both vectors are empty when tracing was off
/// at staging time, making this free on the fault paths too.
void release_train(std::uint64_t dpid, const std::vector<std::uint32_t>& xids,
                   const std::vector<obs::TraceRef>& traces,
                   const std::string& what) {
  auto& tracer = obs::tracer();
  for (std::uint32_t xid : xids) (void)tracer.wire_take(dpid, xid);
  for (const auto& ref : traces)
    tracer.annotate(ref, "driver", "train_fault", what);
}

/// RAII commit-stage trace: opens a "driver/commit" span parented to the
/// first carried ref and installs it as the thread's context, so the
/// FLOW_MOD egress this push produces inherits the trace.  Every
/// *additional* ref — absorbed by watch-queue coalescing or by the
/// drain's per-flow dedup — gets a zero-width child span closing
/// its chain at this stage: one wire train, every contributing trace
/// accounted for.  Inert when `refs` is empty.
class CommitTrace {
 public:
  CommitTrace(const std::vector<obs::TraceRef>& refs, std::uint64_t ts_ns)
      : span_(refs.empty() ? obs::TraceRef{} : refs.front(), "driver",
              "commit", queue_ns(ts_ns)),
        scope_(span_.ref()) {
    if (refs.size() <= 1) return;
    std::uint64_t now = obs::Tracer::now_ns();
    for (std::size_t i = 1; i < refs.size(); ++i)
      (void)obs::tracer().child(refs[i], "driver", "commit", now, now,
                                queue_ns(ts_ns), "coalesced");
  }

 private:
  static std::uint64_t queue_ns(std::uint64_t ts_ns) {
    if (ts_ns == 0) return 0;
    std::uint64_t now = obs::Tracer::now_ns();
    return now > ts_ns ? now - ts_ns : 0;
  }

  obs::Span span_;
  obs::TraceScope scope_;
};

}  // namespace

OfDriver::OfDriver(std::shared_ptr<vfs::Vfs> vfs, DriverOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {
  auto& reg = *vfs_->metrics();
  metrics_.msg_in_total = reg.counter("driver/of/msg_in_total");
  metrics_.msg_out_total = reg.counter("driver/of/msg_out_total");
  metrics_.packet_in_total = reg.counter("driver/of/packet_in_total");
  metrics_.packet_out_total = reg.counter("driver/of/packet_out_total");
  metrics_.flow_mod_total = reg.counter("driver/of/flow_mod_total");
  metrics_.send_fail_total = reg.counter("driver/of/send_fail_total");
  metrics_.egress_gated_total = reg.counter("driver/of/egress_gated_total");
  metrics_.keepalive_timeout_total =
      reg.counter("driver/of/keepalive_timeout_total");
  metrics_.retry_total = reg.counter("driver/of/retry_total");
  metrics_.resync_total = reg.counter("driver/of/resync_total");
  metrics_.audit_total = reg.counter("driver/of/audit_total");
  metrics_.audit_repair_total = reg.counter("driver/of/audit_repair_total");
  metrics_.echo_rtt_ns = reg.histogram("driver/of/echo_rtt_ns");
  metrics_.batch_size = reg.histogram("driver/of/batch_size");
  metrics_.watch_depth = reg.gauge("netfs/watch_queue_depth");
  metrics_.watch_drops = reg.counter("netfs/watch_drop_total");
  metrics_.watch_coalesced = reg.counter("watch/coalesced_total");
}

OfDriver::~OfDriver() = default;

std::size_t OfDriver::connected_switches() const {
  std::size_t n = 0;
  for (const auto& conn : connections_)
    if (conn->state == Connection::State::ready && conn->channel.connected())
      ++n;
  return n;
}

Result<std::string> OfDriver::switch_name(std::uint64_t dpid) const {
  for (const auto& conn : connections_)
    if (conn->dpid == dpid && conn->state == Connection::State::ready)
      return conn->name;
  return Errc::not_found;
}

std::uint32_t OfDriver::send(Connection& conn, const ofp::Message& message) {
  // Cluster self-fence: a node that does not own this dpid must not
  // mutate it.  queue_flow_mod gates FLOW_MODs before they join a burst;
  // this catches the direct sends (PACKET_OUT, PORT_MOD).
  if (options_.egress_gate && !options_.egress_gate(conn.dpid) &&
      (std::holds_alternative<ofp::PacketOut>(message) ||
       std::holds_alternative<ofp::PortMod>(message))) {
    metrics_.egress_gated_total->add();
    return 0;
  }
  std::uint32_t xid = conn.next_xid++;
  auto bytes = ofp::encode(options_.version, xid, message);
  if (!bytes) {
    log_error("driver", "cannot encode " + ofp::message_name(message) +
                            " for OpenFlow " +
                            ofp::version_name(options_.version));
    return 0;
  }
  if (!conn.channel.send(std::move(*bytes))) {
    // Peer hung up (or a fault hook severed the link) — the reap pass
    // will mark the switch down; don't count the message as sent.
    metrics_.send_fail_total->add();
    return 0;
  }
  metrics_.msg_out_total->add();
  if (std::holds_alternative<ofp::PacketOut>(message))
    metrics_.packet_out_total->add();
  return xid;
}

void OfDriver::queue_flow_mod(Connection& conn, const ofp::FlowMod& fm) {
  if (options_.egress_gate && !options_.egress_gate(conn.dpid)) {
    // Not the owner of this dpid: swallow the mod before it reaches the
    // burst — the owner's takeover resync replays the committed state.
    metrics_.egress_gated_total->add();
    return;
  }
  auto& eg = conn.egress;
  if (!eg.enc) eg.enc.emplace(options_.version);
  std::uint32_t xid = conn.next_xid++;
  if (auto ec = eg.enc->append(xid, fm); ec) {
    log_error("driver", "cannot encode flow_mod for OpenFlow " +
                            ofp::version_name(options_.version) + ": " +
                            ec.message());
    return;
  }
  ++eg.mods;
  if (auto ref = obs::current_trace()) {
    obs::tracer().wire_put(conn.dpid, xid, ref);
    eg.traces.push_back(ref);
    eg.xids.push_back(xid);
  }
  if (eg.enc->count() >= kMaxBatch)
    eg.bufs.push_back(eg.enc->take());  // seal; enc is empty and reusable
}

void OfDriver::flush_egress(Connection& conn) {
  auto& eg = conn.egress;
  if (eg.mods == 0) {
    // Nothing queued; still settle any counter bumps owed (deletes whose
    // encode failed cannot happen, but keep the invariant simple).
    if (eg.counter_delta) {
      bump_counter(conn.path + "/counters/flow_mods", eg.counter_delta);
      eg.counter_delta = 0;
    }
    return;
  }

  // One barrier covers the whole train: until its reply arrives none of
  // the burst's commits are assumed to have survived the wire (§3.4).
  std::uint32_t barrier_xid = 0;
  if (!eg.flows.empty()) {
    if (!eg.enc) eg.enc.emplace(options_.version);
    std::uint32_t xid = conn.next_xid++;
    if (!eg.enc->append(xid, ofp::BarrierRequest{}))
      barrier_xid = xid;  // Status: falsy == ok
  }
  if (eg.enc && !eg.enc->empty()) eg.bufs.push_back(eg.enc->take());

  metrics_.batch_size->record(eg.mods);
  std::size_t messages = eg.mods + (barrier_xid ? 1 : 0);
  std::uint64_t flow_mods = eg.mods;
  std::uint64_t counter_delta = eg.counter_delta;
  std::vector<std::string> flows = std::move(eg.flows);
  std::uint32_t retries = eg.retries;
  std::vector<obs::TraceRef> traces = std::move(eg.traces);
  std::vector<std::uint32_t> xids = std::move(eg.xids);
  bool ok = conn.channel.send_batch(std::move(eg.bufs));
  eg = Connection::Egress{};

  if (counter_delta)
    bump_counter(conn.path + "/counters/flow_mods", counter_delta);
  if (!ok) {
    // Peer gone (or a fault hook severed the link mid-burst): the reap /
    // reconnect resync re-pushes from the FS record.
    metrics_.send_fail_total->add();
    release_train(conn.dpid, xids, traces, "send failed; awaiting resync");
    return;
  }
  metrics_.msg_out_total->add(messages);
  metrics_.flow_mod_total->add(flow_mods);
  if (barrier_xid) {
    std::uint64_t wait = options_.request_timeout
                         << std::min<std::uint32_t>(retries, 16);
    auto& req = conn.pending[barrier_xid];
    req = PendingRequest{};
    req.flows = std::move(flows);
    req.deadline = tick_ + wait;
    req.retries = retries;
    if (!traces.empty()) {
      req.traces = std::move(traces);
      req.xids = std::move(xids);
      req.sent_ns = obs::Tracer::now_ns();
    }
  } else if (!traces.empty()) {
    // A train of pure deletes carries no barrier; no ack span is coming,
    // so close the carried traces here rather than leaking them.
    release_train(conn.dpid, {}, traces, "unbarriered train shipped");
  }
}

std::size_t OfDriver::poll() {
  ++tick_;
  std::size_t work = accept_new();
  // Pump even channels whose peer already closed: messages the switch
  // managed to send before dying are still queued (half-close) and must
  // be processed before the connection is reaped.
  for (auto& conn : connections_) work += pump_connection(*conn);
  // One watch shard per switch: a burst of commits on sw1 drains — and
  // ships — without touching sw2's queue, and an overflow rescans only
  // its own switch.
  for (auto& conn : connections_) work += drain_shard(*conn);
  service_timers();
  // Ship every burst the poll accumulated (drains, audit repairs,
  // retries) — one vectored train per switch per quantum.
  for (auto& conn : connections_) flush_egress(*conn);

  // Reap dead connections: mark the FS, drop watches.
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->channel.connected()) {
      ++it;
      continue;
    }
    Connection* conn = it->get();
    mark_down(*conn);
    for (auto ctx = watch_contexts_.begin(); ctx != watch_contexts_.end();)
      ctx = ctx->second.conn == conn ? watch_contexts_.erase(ctx)
                                     : std::next(ctx);
    it = connections_.erase(it);
    ++work;
  }
  return work;
}

std::size_t OfDriver::accept_new() {
  std::size_t accepted = 0;
  while (auto channel = listener_.accept()) {
    auto conn = std::make_unique<Connection>();
    conn->channel = std::move(*channel);
    conn->last_recv_tick = tick_;
    conn->last_audit_tick = tick_;
    conn->fs_queue =
        std::make_shared<vfs::WatchQueue>(options_.fs_queue_capacity);
    conn->fs_queue->set_coalescing(true);
    conn->fs_queue->bind_metrics(metrics_.watch_depth, metrics_.watch_drops,
                                 metrics_.watch_coalesced);
    send(*conn, ofp::Hello{});
    request_features(*conn, 0);
    connections_.push_back(std::move(conn));
    ++accepted;
  }
  return accepted;
}

std::size_t OfDriver::pump_connection(Connection& conn) {
  std::size_t handled = 0;
  while (auto msg = conn.channel.try_recv()) {
    // Peers may pack several length-framed messages per buffer (the
    // switch side of the batched pipeline); split before decoding.
    auto frames = ofp::split_frames(*msg);
    if (!frames) {
      // Speaking the wrong dialect (or garbage): hang up, per §4.1 a
      // different driver owns that protocol version.
      log_error("driver", "unframeable message; closing connection");
      conn.channel.close();
      return handled;
    }
    for (auto frame : *frames) {
      auto decoded = ofp::decode(frame);
      if (!decoded) {
        log_error("driver", "undecodable message; closing connection");
        conn.channel.close();
        return handled;
      }
      if (decoded->header.version != options_.version) {
        send(conn, ofp::Error{0 /*HELLO_FAILED*/, 0 /*INCOMPATIBLE*/, {}});
        conn.channel.close();
        return handled;
      }
      metrics_.msg_in_total->add();
      conn.last_recv_tick = tick_;
      handle_switch_message(conn, *decoded);
      ++handled;
    }
  }
  return handled;
}

void OfDriver::handle_switch_message(Connection& conn,
                                     const ofp::Decoded& decoded) {
  const auto& m = decoded.message;
  // Reply-type messages acknowledge the tracked request with the same
  // xid.  (Switch-originated traffic keeps its own xid space and is not
  // consulted, so it cannot spuriously clear a pending retry.)
  if (std::holds_alternative<ofp::BarrierReply>(m) ||
      std::holds_alternative<ofp::FeaturesReply>(m) ||
      std::holds_alternative<ofp::EchoReply>(m) ||
      std::holds_alternative<ofp::StatsReply>(m) ||
      std::holds_alternative<ofp::Error>(m)) {
    auto it = conn.pending.find(decoded.header.xid);
    if (it != conn.pending.end()) {
      const auto& req = it->second;
      if (!req.traces.empty()) {
        // The barrier's reply vouches for every commit on the train:
        // close each carried trace with a commit_ack whose queue-wait is
        // the train's wire round-trip, then reclaim any handoff a lossy
        // link kept the switch from consuming (the audit repairs the
        // flow; the trace must not leak meanwhile).
        std::uint64_t now = obs::Tracer::now_ns();
        std::uint64_t rtt =
            req.sent_ns != 0 && now > req.sent_ns ? now - req.sent_ns : 0;
        for (const auto& ref : req.traces)
          (void)obs::tracer().child(ref, "driver", "commit_ack", now, now,
                                    rtt);
        for (std::uint32_t xid : req.xids)
          (void)obs::tracer().wire_take(conn.dpid, xid);
      }
      conn.pending.erase(it);
    }
  }
  if (std::holds_alternative<ofp::Hello>(m)) return;
  if (auto* echo = std::get_if<ofp::EchoRequest>(&m)) {
    send(conn, ofp::EchoReply{echo->data});
    return;
  }
  if (auto* reply = std::get_if<ofp::EchoReply>(&m)) {
    // ping_switches() stamps the request with the send time; the switch
    // echoes it back verbatim, so reply time minus payload = RTT.
    if (reply->data.size() == 8) {
      std::uint64_t sent = 0;
      for (int i = 0; i < 8; ++i)
        sent |= static_cast<std::uint64_t>(reply->data[i]) << (8 * i);
      auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
      if (static_cast<std::uint64_t>(now) >= sent)
        metrics_.echo_rtt_ns->record(static_cast<std::uint64_t>(now) - sent);
    }
    return;
  }
  if (auto* features = std::get_if<ofp::FeaturesReply>(&m)) {
    on_features(conn, *features);
    return;
  }
  if (auto* pi = std::get_if<ofp::PacketIn>(&m)) {
    on_packet_in(conn, *pi, decoded.header.xid);
    return;
  }
  if (auto* ps = std::get_if<ofp::PortStatus>(&m)) {
    on_port_status(conn, *ps);
    return;
  }
  if (auto* fr = std::get_if<ofp::FlowRemoved>(&m)) {
    on_flow_removed(conn, *fr);
    return;
  }
  if (auto* sr = std::get_if<ofp::StatsReply>(&m)) {
    on_stats_reply(conn, *sr, decoded.header.xid);
    return;
  }
  if (auto* err = std::get_if<ofp::Error>(&m)) {
    log_error("driver", conn.name + ": switch reported error type=" +
                            std::to_string(err->type) +
                            " code=" + std::to_string(err->code));
    return;
  }
  // barrier replies etc. need no action
}

void OfDriver::on_features(Connection& conn,
                           const ofp::FeaturesReply& features) {
  conn.dpid = features.datapath_id;

  // A reborn switch supersedes any zombie connection still carrying its
  // dpid: close the zombie and flag it so its reap cannot stomp the
  // status/connected files this connection is about to own.
  for (auto& other : connections_) {
    if (other.get() == &conn || other->dpid != conn.dpid || conn.dpid == 0)
      continue;
    other->superseded = true;
    other->channel.close();
  }

  // Reconnect support: reuse an existing directory whose id matches.
  std::string switches = options_.net_root + "/switches";
  if (auto entries = vfs_->readdir(switches)) {
    for (const auto& e : *entries) {
      auto id = vfs_->read_file(switches + "/" + e.name + "/id");
      if (!id) continue;
      auto parsed = parse_hex_u64(trim(*id));
      if (parsed && *parsed == conn.dpid && *parsed != 0) {
        conn.name = e.name;
        break;
      }
    }
  }
  // Fresh name: skip over names already taken by other switches (possibly
  // created by another driver instance on a replicated file system).
  while (conn.name.empty()) {
    std::string candidate = options_.switch_name_prefix +
                            std::to_string(next_switch_index_++);
    if (!vfs_->stat(switches + "/" + candidate)) conn.name = candidate;
  }
  conn.path = switches + "/" + conn.name;

  if (auto ec = vfs_->mkdir(conn.path);
      ec && ec != make_error_code(Errc::exists)) {
    log_error("driver", "cannot create " + conn.path + ": " + ec.message());
    conn.channel.close();
    return;
  }

  (void)vfs_->write_file(conn.path + "/id", "0x" + to_hex(conn.dpid, 8));
  (void)vfs_->write_file(conn.path + "/num_buffers",
                         std::to_string(features.n_buffers));
  (void)vfs_->write_file(conn.path + "/num_tables",
                         std::to_string(features.n_tables));
  (void)vfs_->write_file(conn.path + "/capabilities",
                         "0x" + to_hex(features.capabilities, 4));
  (void)vfs_->write_file(conn.path + "/actions",
                         "0x" + to_hex(features.actions, 4));
  (void)vfs_->write_file(conn.path + "/protocol_version",
                         ofp::version_name(options_.version));
  (void)vfs_->write_file(conn.path + "/connected", "1");
  (void)vfs_->write_file(conn.path + "/status", "up");

  create_switch_tree(conn, features.ports);
  conn.state = Connection::State::ready;

  // Identity strings arrive via desc stats; 1.3 ports via port_desc.
  ofp::StatsRequest desc;
  desc.kind = ofp::StatsKind::desc;
  send(conn, desc);
  if (options_.version == ofp::Version::of13) {
    ofp::StatsRequest ports;
    ports.kind = ofp::StatsKind::port_desc;
    send(conn, ports);
  }
}

namespace {

/// Registers `queue` on the node `path` resolves to; returns (handle, node).
Result<std::pair<std::shared_ptr<vfs::WatchHandle>, NodeId>> watch_node(
    vfs::Vfs& vfs, const std::string& path, std::uint32_t mask,
    vfs::WatchQueuePtr queue) {
  auto resolved = vfs.resolve(path, Credentials::root());
  if (!resolved) return resolved.error();
  auto id = resolved->fs->watch(resolved->node, mask, std::move(queue));
  if (!id) return id.error();
  return std::make_pair(
      std::make_shared<vfs::WatchHandle>(resolved->fs, *id), resolved->node);
}

}  // namespace

void OfDriver::create_switch_tree(Connection& conn,
                                  const std::vector<ofp::PortDesc>& ports) {
  for (const auto& port : ports) create_port_dir(conn, port);

  // Watch flows/ for new and deleted flow directories.
  std::string flows_dir = conn.path + "/flows";
  if (auto w = watch_node(*vfs_, flows_dir,
                          vfs::event::created | vfs::event::deleted,
                          conn.fs_queue)) {
    conn.watches[flows_dir] = w->first;
    watch_contexts_[w->second] =
        WatchContext{WatchContext::Kind::flows_dir, &conn, {}};
  }
  // Watch packet_out/ for new requests.
  std::string pktout_dir = conn.path + "/packet_out";
  if (auto w = watch_node(*vfs_, pktout_dir, vfs::event::created,
                          conn.fs_queue)) {
    conn.watches[pktout_dir] = w->first;
    watch_contexts_[w->second] =
        WatchContext{WatchContext::Kind::pktout_dir, &conn, {}};
  }

  // Flows may already exist (reconnect): adopt and push committed ones.
  // This is the FS-driven resync — the directory tree, not driver RAM,
  // is the record a reborn switch is restored from (§3.4).  Every push
  // joins the egress train, so the train's growth counts the resync.
  std::size_t queued = conn.egress.flows.size();
  rescan_flows(conn);
  metrics_.resync_total->add(conn.egress.flows.size() - queued);
}

void OfDriver::create_port_dir(Connection& conn, const ofp::PortDesc& port) {
  std::string port_path =
      conn.path + "/ports/" + std::to_string(port.port_no);
  if (auto ec = vfs_->mkdir(port_path);
      ec && ec != make_error_code(Errc::exists))
    return;
  (void)vfs_->write_file(port_path + "/port_no",
                         std::to_string(port.port_no));
  (void)vfs_->write_file(port_path + "/hw_addr", port.hw_addr.to_string());
  (void)vfs_->write_file(port_path + "/name", port.name);
  (void)vfs_->write_file(port_path + "/config.port_down",
                         port.port_down ? "1" : "0");
  (void)vfs_->write_file(port_path + "/state.link_down",
                         port.link_down ? "1" : "0");
  (void)vfs_->write_file(port_path + "/curr_speed",
                         std::to_string(port.curr_speed_kbps));
  (void)vfs_->write_file(port_path + "/max_speed",
                         std::to_string(port.max_speed_kbps));
  conn.port_hw_config[port.port_no] = {port.port_down, port.no_flood};

  // Administrative changes to the port flow back as PORT_MOD (§3.1's
  // `echo 1 > config.port_down`).
  for (const char* file : {"config.port_down", "config.no_flood"}) {
    std::string cfg = port_path + "/" + file;
    if (auto w = watch_node(*vfs_, cfg, vfs::event::modified,
                            conn.fs_queue)) {
      conn.watches[cfg] = w->first;
      watch_contexts_[w->second] =
          WatchContext{WatchContext::Kind::port_config, &conn,
                       std::to_string(port.port_no)};
    }
  }
}

void OfDriver::watch_flow(Connection& conn, const std::string& flow_name) {
  std::string version_path =
      conn.path + "/flows/" + flow_name + "/version";
  auto w = watch_node(*vfs_, version_path, vfs::event::modified,
                      conn.fs_queue);
  if (!w) return;
  auto& state = conn.flows[flow_name];
  state.version_watch = w->first;
  state.version_node = w->second;
  watch_contexts_[w->second] =
      WatchContext{WatchContext::Kind::flow_version, &conn, flow_name};
}

void OfDriver::push_flow(Connection& conn, const std::string& flow_name,
                         std::uint32_t retries) {
  auto state_it = conn.flows.find(flow_name);
  if (state_it == conn.flows.end()) return;
  auto& state = state_it->second;

  std::string flow_dir = conn.path + "/flows/" + flow_name;
  auto spec = netfs::read_flow(*vfs_, flow_dir);
  if (!spec) {
    log_error("driver", "unreadable flow " + flow_dir + ": " +
                            spec.error().message());
    return;
  }
  if (spec->version == 0 || spec->version <= state.pushed_version)
    return;  // not committed / already on hardware (§3.4)

  // If the identity (match, priority, table) changed, the old hardware
  // entry must go first; OpenFlow add only replaces identical identities.
  if (state.pushed_version > 0 &&
      (state.pushed.match != spec->match ||
       state.pushed.priority != spec->priority ||
       state.pushed.table_id != spec->table_id)) {
    ofp::FlowMod del;
    del.command = ofp::FlowMod::Command::remove_strict;
    del.spec = state.pushed;
    queue_flow_mod(conn, del);
  }

  ofp::FlowMod add;
  add.command = ofp::FlowMod::Command::add;
  add.spec = *spec;
  add.flags = ofp::kFlagSendFlowRemoved;
  queue_flow_mod(conn, add);
  ++conn.egress.counter_delta;
  // A barrier covers the commit; until its reply arrives the flow_mod is
  // not assumed to have survived the wire.  The burst's flush appends it:
  // one barrier vouches for the whole train.
  conn.egress.flows.push_back(flow_name);
  conn.egress.retries = std::max(conn.egress.retries, retries);

  state.pushed_version = spec->version;
  state.pushed = *spec;
}

// Everything except flow pushes.  Returns true when it consumed the
// event; flow-commit events (flows_dir, flow_version) are left for
// drain_shard, which dedups them per burst.
bool OfDriver::handle_aux_event(Connection& conn, const vfs::Event& event,
                                const WatchContext& ctx,
                                std::set<NodeId>& seen_level_triggered) {
  switch (ctx.kind) {
    case WatchContext::Kind::flows_dir:
    case WatchContext::Kind::flow_version:
      return false;
    case WatchContext::Kind::port_config: {
      if (!seen_level_triggered.insert(event.node).second) return true;
      std::string port_path = conn.path + "/ports/" + ctx.name;
      ofp::PortMod pm;
      pm.port_no =
          static_cast<std::uint16_t>(parse_u64(ctx.name).value_or(0));
      if (auto mac = vfs_->read_file(port_path + "/hw_addr"))
        if (auto parsed = MacAddress::parse(trim(*mac)))
          pm.hw_addr = *parsed;
      if (auto down = vfs_->read_file(port_path + "/config.port_down"))
        pm.port_down = trim(*down) == "1";
      if (auto nf = vfs_->read_file(port_path + "/config.no_flood"))
        pm.no_flood = trim(*nf) == "1";
      auto known = conn.port_hw_config.find(pm.port_no);
      if (known != conn.port_hw_config.end() &&
          known->second == std::make_pair(pm.port_down, pm.no_flood))
        return true;  // FS already agrees with hardware: nothing to do
      send(conn, pm);
      return true;
    }
    case WatchContext::Kind::pktout_dir:
      if (event.is(vfs::event::created)) {
        std::string send_path =
            conn.path + "/packet_out/" + event.name + "/send";
        if (auto w = watch_node(*vfs_, send_path, vfs::event::modified,
                                conn.fs_queue)) {
          conn.watches[send_path] = w->first;
          watch_contexts_[w->second] = WatchContext{
              WatchContext::Kind::pktout_send, &conn, event.name};
        }
        // The app may have set send=1 before this watch existed.
        if (auto flag = vfs_->read_file(send_path);
            flag && trim(*flag) == "1")
          send_packet_out_dir(conn, event.name);
      }
      return true;
    case WatchContext::Kind::pktout_send: {
      if (!seen_level_triggered.insert(event.node).second) return true;
      std::string send_path =
          conn.path + "/packet_out/" + ctx.name + "/send";
      if (auto flag = vfs_->read_file(send_path); flag && trim(*flag) == "1")
        send_packet_out_dir(conn, ctx.name);
      return true;
    }
  }
  return true;
}

void OfDriver::handle_flow_deleted(Connection& conn,
                                   const std::string& name) {
  auto it = conn.flows.find(name);
  if (it == conn.flows.end()) return;
  if (conn.suppress_delete.erase(name) == 0 &&
      it->second.pushed_version > 0) {
    ofp::FlowMod del;
    del.command = ofp::FlowMod::Command::remove_strict;
    del.spec = it->second.pushed;
    queue_flow_mod(conn, del);
    ++conn.egress.counter_delta;
  }
  watch_contexts_.erase(it->second.version_node);
  conn.flows.erase(it);
}

std::size_t OfDriver::drain_shard(Connection& conn) {
  std::size_t handled = 0;
  // Level-triggered contexts (flow versions, port configs, packet-out
  // send flags) are read-current-state handlers: several queued MODIFY
  // events for the same node collapse into one action per drain.
  std::set<NodeId> seen_level_triggered;
  // A burst's commit events dedup to one read+push per flow: a create
  // immediately followed by its version commit — the common write_flow
  // pattern — costs one FS read instead of two.  Deletions are handled
  // in event order (so a delete queued between two commits still lands
  // between the surviving pushes on the wire), and a flow deleted after
  // being marked dirty simply fails the final read and pushes nothing:
  // the terminal state wins.
  std::vector<std::string> dirty;
  std::set<std::string> dirty_set;
  auto mark_dirty = [&](const std::string& name) {
    if (dirty_set.insert(name).second) dirty.push_back(name);
  };
  // Per-flow causal state for the deferred pushes: a burst dedups many
  // events into one push, so the push must carry every ref those events
  // held (including refs coalescing packed into a single event) and the
  // *oldest* enqueue time — queue-wait is measured from the first work
  // the push answers for.  Bounded like the event's own ref list.
  struct PendingTrace {
    std::vector<obs::TraceRef> refs;
    std::uint64_t ts_ns = 0;
  };
  std::map<std::string, PendingTrace> flow_traces;
  auto absorb_trace = [&](const std::string& name, const vfs::Event& event) {
    if (event.trace.empty()) return;
    auto& pending = flow_traces[name];
    for (const auto& ref : event.trace) {
      if (pending.refs.size() >= vfs::kMaxTraceRefs) break;
      pending.refs.push_back(ref);
    }
    if (event.trace_ts_ns != 0 &&
        (pending.ts_ns == 0 || event.trace_ts_ns < pending.ts_ns))
      pending.ts_ns = event.trace_ts_ns;
  };
  std::vector<vfs::Event> batch;
  while (conn.fs_queue->try_pop_batch(batch, kMaxBatch) > 0) {
    for (const auto& event : batch) {
      ++handled;
      if (event.is(vfs::event::overflow)) {
        // This shard overflowed: rescan this switch (only this switch).
        log_error("driver",
                  conn.name + ": watch queue overflow; rescanning");
        if (conn.state == Connection::State::ready) rescan_flows(conn);
        continue;
      }
      auto ctx_it = watch_contexts_.find(event.node);
      if (ctx_it == watch_contexts_.end()) continue;
      WatchContext ctx = ctx_it->second;
      if (handle_aux_event(conn, event, ctx, seen_level_triggered))
        continue;

      if (ctx.kind == WatchContext::Kind::flows_dir) {
        if (event.is(vfs::event::created)) {
          watch_flow(conn, event.name);
          mark_dirty(event.name);
          absorb_trace(event.name, event);
        } else if (event.is(vfs::event::deleted)) {
          CommitTrace trace(event.trace, event.trace_ts_ns);
          handle_flow_deleted(conn, event.name);
        }
      } else {  // flow_version: level-triggered, once per burst
        if (seen_level_triggered.insert(event.node).second)
          mark_dirty(ctx.name);
        // Refs accumulate even for deduped repeats: the one push answers
        // for every commit event the burst folded into it.
        absorb_trace(ctx.name, event);
      }
    }
    batch.clear();
  }
  // Push every dirty flow once, in first-marked order; push_flow reads
  // the *current* FS state, so a recreate during the burst pushes the
  // new incarnation and a deletion pushes nothing.
  for (const auto& name : dirty) {
    auto traced = flow_traces.find(name);
    CommitTrace trace(
        traced == flow_traces.end() ? std::vector<obs::TraceRef>{}
                                    : traced->second.refs,
        traced == flow_traces.end() ? 0 : traced->second.ts_ns);
    push_flow(conn, name);
  }
  return handled;
}

void OfDriver::rescan_flows(Connection& conn) {
  std::string flows_dir = conn.path + "/flows";
  auto names = vfs_->readdir(flows_dir);
  if (!names) return;

  std::set<std::string> present;
  for (const auto& e : *names) {
    present.insert(e.name);
    auto it = conn.flows.find(e.name);
    if (it != conn.flows.end()) {
      // The flow may have been deleted and recreated under the same name
      // while events were being lost, leaving our version watch armed on
      // a dead inode.  Compare nodes and re-arm when they differ.
      auto resolved = vfs_->resolve(flows_dir + "/" + e.name + "/version",
                                    Credentials::root());
      if (resolved && resolved->node == it->second.version_node) {
        push_flow(conn, e.name);
        continue;
      }
      // Different version node: the flow was deleted and recreated.  The
      // spec the dead incarnation pushed is no longer in the FS, so take
      // it off the hardware before adopting the new one.
      handle_flow_deleted(conn, e.name);
    }
    watch_flow(conn, e.name);
    push_flow(conn, e.name);
  }

  // Deletions whose events were lost: the hardware entry must go too.
  std::vector<std::string> gone;
  for (const auto& [name, state] : conn.flows)
    if (!present.count(name)) gone.push_back(name);
  for (const auto& name : gone) handle_flow_deleted(conn, name);
}

void OfDriver::abandon_switch(std::uint64_t dpid) {
  if (dpid == 0) return;
  for (auto& connp : connections_) {
    Connection& conn = *connp;
    if (conn.dpid != dpid || !conn.channel.connected()) continue;
    // No reply is coming over a channel we are about to close: end the
    // tracked trains' traces at the release instead of leaking them.
    for (auto& [xid, request] : conn.pending)
      release_train(conn.dpid, request.xids, request.traces,
                    "lease released");
    conn.pending.clear();
    // superseded = the reap must not write status=down: the successor
    // owns the directory record now and has already marked it up.
    conn.superseded = true;
    conn.channel.close();
  }
}

void OfDriver::mark_down(Connection& conn) {
  // However the switch died, no reply is coming for anything still
  // tracked: close out every carried trace so chains end at the fault
  // instead of leaking, even for zombies the guard below skips.
  for (auto& [xid, request] : conn.pending)
    release_train(conn.dpid, request.xids, request.traces, "connection lost");
  conn.pending.clear();
  if (conn.down_marked || conn.superseded || conn.path.empty()) return;
  conn.down_marked = true;
  (void)vfs_->write_file(conn.path + "/status", "down");
  (void)vfs_->write_file(conn.path + "/connected", "0");
}

void OfDriver::request_features(Connection& conn, std::uint32_t retries) {
  std::uint32_t xid = send(conn, ofp::FeaturesRequest{});
  if (!xid) return;
  auto& req = conn.pending[xid];
  req = PendingRequest{};
  // Bounded exponential backoff: timeout doubles per retry (shift capped
  // so the arithmetic can't overflow).
  req.deadline = tick_ + (options_.request_timeout
                          << std::min<std::uint32_t>(retries, 16));
  req.retries = retries;
}

void OfDriver::retry_request(Connection& conn,
                             const PendingRequest& request) {
  metrics_.retry_total->add();
  std::uint32_t retries = request.retries + 1;
  // The lost train's wire handoffs are dead (reclaim them) and its
  // traces record the fault; the surviving refs then ride the retry
  // train, so the eventual ack still closes every original trace.
  release_train(conn.dpid, request.xids, request.traces,
                "retry " + std::to_string(retries));
  if (request.flows.empty()) {
    // Handshake lost on the wire: ask again.
    if (conn.state == Connection::State::handshaking)
      request_features(conn, retries);
    return;
  }
  // Re-stage the traces: the flush adopts the staged list, so the retry
  // train's tracked request inherits them.
  conn.egress.traces.insert(conn.egress.traces.end(), request.traces.begin(),
                            request.traces.end());
  // The lost barrier vouched for every commit on its train: re-push them
  // all; the flush gathers the re-pushes into one new train.
  for (const auto& flow_name : request.flows) {
    auto it = conn.flows.find(flow_name);
    if (it == conn.flows.end()) continue;  // deleted; audit covers it
    it->second.pushed_version = 0;         // force the re-send
    push_flow(conn, flow_name, retries);
  }
  // The retry count rides the next train even if push_flow skipped work.
  conn.egress.retries = std::max(conn.egress.retries, retries);
}

void OfDriver::service_timers() {
  for (auto& connp : connections_) {
    Connection& conn = *connp;
    if (!conn.channel.connected() || conn.superseded) continue;

    // Liveness: silent for too long -> down; idle -> keepalive echo.
    if (options_.keepalive_timeout &&
        tick_ - conn.last_recv_tick >= options_.keepalive_timeout) {
      metrics_.keepalive_timeout_total->add();
      log_error("driver", (conn.name.empty() ? "<handshake>" : conn.name) +
                              ": keepalive timeout; declaring down");
      mark_down(conn);
      conn.channel.close();
      continue;
    }
    if (options_.keepalive_interval &&
        conn.state == Connection::State::ready &&
        tick_ - conn.last_recv_tick >= options_.keepalive_interval &&
        tick_ - conn.last_ping_tick >= options_.keepalive_interval) {
      conn.last_ping_tick = tick_;
      auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
      ofp::EchoRequest ping;
      ping.data.resize(8);
      for (int i = 0; i < 8; ++i)
        ping.data[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(now) >> (8 * i));
      send(conn, ping);
    }

    // Tracked-request timeouts with bounded retries.
    std::vector<PendingRequest> expired;
    for (auto it = conn.pending.begin(); it != conn.pending.end();) {
      if (tick_ < it->second.deadline) {
        ++it;
        continue;
      }
      expired.push_back(it->second);
      it = conn.pending.erase(it);
    }
    for (const auto& request : expired) {
      if (request.retries >= options_.max_retries) {
        log_error("driver",
                  (conn.name.empty() ? "<handshake>" : conn.name) +
                      ": request abandoned after " +
                      std::to_string(request.retries) +
                      " retries; declaring down");
        release_train(conn.dpid, request.xids, request.traces,
                      "abandoned after " + std::to_string(request.retries) +
                          " retries");
        mark_down(conn);
        conn.channel.close();
        break;
      }
      retry_request(conn, request);
    }
    if (!conn.channel.connected()) continue;

    // Periodic audit: barriers confirm ordering, not delivery of what
    // came before them on a lossy link; the audit compares the FS (the
    // record) against hardware (flow stats) and repairs the difference.
    // An audit still outstanding after a whole further interval is
    // presumed lost (request or reply eaten by the wire) and replaced —
    // its xid must not wedge auditing for good.
    if (options_.audit_interval && conn.state == Connection::State::ready &&
        tick_ - conn.last_audit_tick >= options_.audit_interval) {
      conn.last_audit_tick = tick_;
      absorb_duplicate_dirs(conn);
      ofp::StatsRequest flows;
      flows.kind = ofp::StatsKind::flow;
      conn.audit_xid = send(conn, flows);
      if (conn.audit_xid) metrics_.audit_total->add();
    }
  }
}

void OfDriver::absorb_duplicate_dirs(Connection& conn) {
  // Only the shard's current owner may arbitrate a split identity; a
  // deposed driver merging toward ITS tree would undo the successor's.
  if (options_.egress_gate && !options_.egress_gate(conn.dpid)) return;
  std::string switches = options_.net_root + "/switches";
  auto entries = vfs_->readdir(switches);
  if (!entries) return;
  for (const auto& e : *entries) {
    if (e.name == conn.name) continue;
    std::string dir = switches + "/" + e.name;
    auto id = vfs_->read_file(dir + "/id");
    if (!id) continue;
    auto parsed = parse_hex_u64(trim(*id));
    if (!parsed || *parsed != conn.dpid) continue;
    bool in_flight = false;
    if (auto flows = vfs_->readdir(dir + "/flows")) {
      for (const auto& f : *flows) {
        auto spec = netfs::read_flow(*vfs_, dir + "/flows/" + f.name);
        if (!spec || spec->version == 0) {
          // No version file yet.  This may be a committed flow whose
          // version write is still replicating toward us; a tombstone
          // written now carries a newer timestamp and would eat that
          // write when it lands — an acknowledged commit lost.  Hold the
          // removal for a later audit (bounded below, so a genuinely
          // uncommitted stray cannot pin the duplicate forever).
          in_flight = true;
          continue;
        }
        std::string ours = conn.path + "/flows/" + f.name;
        auto mine = netfs::read_flow(*vfs_, ours);
        // Same name on both sides: ours wins — the lease makes this tree
        // the one the switch currently enforces.
        if (mine && mine->version > 0) continue;
        metrics_.resync_total->add();
        // The write lands in our own watched flows/ dir, so the normal
        // commit pipeline pushes it to hardware.
        if (netfs::write_flow(*vfs_, ours, *spec))
          log_error("driver", conn.name + ": duplicate-dir flow " + f.name +
                                  " could not be re-committed");
      }
    }
    if (in_flight && absorb_deferred_[dir]++ < 2) continue;
    absorb_deferred_.erase(dir);
    log_error("driver", conn.name + ": absorbing duplicate directory " +
                            e.name + " for dpid " + std::to_string(conn.dpid));
    // rmdir, not remove_all: the switch object allows recursive rmdir,
    // while remove_all's recursion would trip over the schema's fixed
    // dirs (flows/, ports/ ... are not individually removable).
    (void)vfs_->rmdir(dir);
  }
}

void OfDriver::audit_reconcile(Connection& conn, const ofp::StatsReply& sr) {
  // Ground truth is the FS: every committed flows/<name> must be on the
  // hardware, and nothing else may be.
  std::string flows_dir = conn.path + "/flows";
  auto names = vfs_->readdir(flows_dir);
  if (!names) return;

  std::vector<const flow::FlowSpec*> hardware;
  for (const auto& entry : sr.flows) hardware.push_back(&entry.spec);
  std::vector<bool> claimed(hardware.size(), false);

  for (const auto& e : *names) {
    auto spec = netfs::read_flow(*vfs_, flows_dir + "/" + e.name);
    if (!spec || spec->version == 0) continue;  // uncommitted: not expected
    bool found = false;
    for (std::size_t i = 0; i < hardware.size(); ++i) {
      if (claimed[i]) continue;
      if (hardware[i]->match == spec->match &&
          hardware[i]->priority == spec->priority &&
          hardware[i]->table_id == spec->table_id) {
        claimed[i] = found = true;
        break;
      }
    }
    if (found) continue;
    // Committed in the FS, absent from hardware: a flow_mod died on the
    // wire after its barrier survived.  Re-push from the record.
    metrics_.audit_repair_total->add();
    metrics_.resync_total->add();
    auto it = conn.flows.find(e.name);
    if (it == conn.flows.end()) {
      watch_flow(conn, e.name);
      it = conn.flows.find(e.name);
      if (it == conn.flows.end()) continue;
    }
    it->second.pushed_version = 0;
    push_flow(conn, e.name);
  }

  // Hardware entries no FS flow claims: stale state from a previous life
  // (or a delete whose flow_mod was lost).  Remove them.
  for (std::size_t i = 0; i < hardware.size(); ++i) {
    if (claimed[i]) continue;
    metrics_.audit_repair_total->add();
    ofp::FlowMod del;
    del.command = ofp::FlowMod::Command::remove_strict;
    del.spec = *hardware[i];
    queue_flow_mod(conn, del);
  }
}

void OfDriver::send_packet_out_dir(Connection& conn, const std::string& name) {
  std::string dir = conn.path + "/packet_out/" + name;
  ofp::PacketOut po;
  if (auto in = vfs_->read_file(dir + "/in_port"))
    po.in_port =
        static_cast<std::uint16_t>(parse_u64(trim(*in)).value_or(0));
  if (auto out = vfs_->read_file(dir + "/out")) {
    for (const auto& tok : split_nonempty(trim(*out), ' ')) {
      auto action = flow::parse_action("out", tok);
      if (action) po.actions.push_back(*action);
    }
  }
  if (auto data = vfs_->read_file(dir + "/data"))
    po.data.assign(data->begin(), data->end());
  send(conn, po);
  bump_counter(conn.path + "/counters/packet_outs");

  // Consume the request (watch contexts for the send file die with it).
  if (auto resolved = vfs_->resolve(dir + "/send", Credentials::root()))
    watch_contexts_.erase(resolved->node);
  conn.watches.erase(dir + "/send");
  (void)vfs_->rmdir(dir);
}

void OfDriver::on_packet_in(Connection& conn, const ofp::PacketIn& pi,
                            std::uint32_t xid) {
  metrics_.packet_in_total->add();
  // Claim the context the switch staged under this message's xid: the
  // wait since wire_put is the packet-in's time on the channel.  The
  // span's scope covers the pkt_* fan-out below, so the FS events those
  // writes emit — and the per-app handoffs — all parent to this stage.
  obs::Tracer::Handoff handoff;
  if (obs::tracer().enabled()) handoff = obs::tracer().wire_take(conn.dpid, xid);
  obs::Span trace_span(handoff.ref, "driver", "packet_in",
                       handoff ? obs::Tracer::now_ns() - handoff.ts_ns : 0);
  obs::TraceScope trace_scope(trace_span.ref());
  bump_counter(conn.path + "/counters/packet_ins");
  std::string events_dir = options_.net_root + "/events";
  auto apps = vfs_->readdir(events_dir);
  if (!apps) return;
  // Concurrent delivery to every interested application (§3.5): each app's
  // private buffer receives its own copy.
  char seq[24];
  std::snprintf(seq, sizeof seq, "pkt_%010llu",
                static_cast<unsigned long long>(next_pkt_seq_++));
  for (const auto& app : *apps) {
    if (app.type != vfs::FileType::directory) continue;
    std::string pkt_dir = events_dir + "/" + app.name + "/" + seq;
    if (vfs_->mkdir(pkt_dir)) continue;
    (void)vfs_->write_file(pkt_dir + "/datapath", conn.name);
    (void)vfs_->write_file(pkt_dir + "/in_port",
                           std::to_string(pi.in_port));
    (void)vfs_->write_file(pkt_dir + "/reason",
                           pi.reason == ofp::PacketIn::Reason::no_match
                               ? "no_match"
                               : "action");
    (void)vfs_->write_file(pkt_dir + "/buffer_id",
                           std::to_string(pi.buffer_id));
    (void)vfs_->write_file(pkt_dir + "/total_len",
                           std::to_string(pi.total_len));
    (void)vfs_->write_file(
        pkt_dir + "/data",
        std::string_view(reinterpret_cast<const char*>(pi.data.data()),
                         pi.data.size()));
    // Each app drains its buffer on its own thread; hand the context over
    // keyed by the pkt directory (the only identity that crosses).
    obs::tracer().path_put(pkt_dir, trace_span.ref());
  }
}

void OfDriver::on_port_status(Connection& conn, const ofp::PortStatus& ps) {
  std::string port_path =
      conn.path + "/ports/" + std::to_string(ps.desc.port_no);
  switch (ps.reason) {
    case ofp::PortStatus::Reason::add:
      create_port_dir(conn, ps.desc);
      break;
    case ofp::PortStatus::Reason::remove:
      (void)vfs_->rmdir(port_path);
      break;
    case ofp::PortStatus::Reason::modify:
      conn.port_hw_config[ps.desc.port_no] = {ps.desc.port_down,
                                              ps.desc.no_flood};
      (void)vfs_->write_file(port_path + "/state.link_down",
                             ps.desc.link_down ? "1" : "0");
      (void)vfs_->write_file(port_path + "/config.port_down",
                             ps.desc.port_down ? "1" : "0");
      break;
  }
}

void OfDriver::on_flow_removed(Connection& conn, const ofp::FlowRemoved& fr) {
  bump_counter(conn.path + "/counters/flow_expirations");
  for (auto& [name, state] : conn.flows) {
    if (state.pushed.match == fr.match &&
        state.pushed.priority == fr.priority) {
      // Hardware dropped the entry; mirror it out of the FS without
      // bouncing another delete to the switch.
      conn.suppress_delete.insert(name);
      (void)vfs_->rmdir(conn.path + "/flows/" + name);
      return;
    }
  }
}

void OfDriver::on_stats_reply(Connection& conn, const ofp::StatsReply& sr,
                              std::uint32_t xid) {
  if (sr.kind == ofp::StatsKind::flow && xid != 0 &&
      xid == conn.audit_xid) {
    conn.audit_xid = 0;
    audit_reconcile(conn, sr);
  }
  switch (sr.kind) {
    case ofp::StatsKind::desc:
      (void)vfs_->write_file(conn.path + "/manufacturer", sr.manufacturer);
      (void)vfs_->write_file(conn.path + "/hw_desc", sr.hw_desc);
      (void)vfs_->write_file(conn.path + "/sw_desc", sr.sw_desc);
      break;
    case ofp::StatsKind::port_desc:
      for (const auto& port : sr.port_descs) create_port_dir(conn, port);
      break;
    case ofp::StatsKind::flow:
      for (const auto& entry : sr.flows) {
        for (const auto& [name, state] : conn.flows) {
          if (state.pushed.match == entry.spec.match &&
              state.pushed.priority == entry.spec.priority) {
            (void)netfs::write_flow_stats(
                *vfs_, conn.path + "/flows/" + name,
                {entry.packet_count, entry.byte_count});
            break;
          }
        }
      }
      break;
    case ofp::StatsKind::queue:
      for (const auto& q : sr.queues) {
        // Queue directories appear on first use (the switch reports them;
        // administrators may also pre-create them to set rates).
        std::string queue_dir = conn.path + "/ports/" +
                                std::to_string(q.port_no) + "/queues/q" +
                                std::to_string(q.queue_id);
        if (auto st = vfs_->stat(queue_dir); !st) {
          if (vfs_->mkdir(queue_dir)) continue;
          (void)vfs_->write_file(queue_dir + "/queue_id",
                                 std::to_string(q.queue_id));
        }
        (void)vfs_->write_file(queue_dir + "/counters/tx_packets",
                               std::to_string(q.tx_packets));
        (void)vfs_->write_file(queue_dir + "/counters/tx_bytes",
                               std::to_string(q.tx_bytes));
      }
      break;
    case ofp::StatsKind::port:
      for (const auto& port : sr.ports) {
        std::string counters = conn.path + "/ports/" +
                               std::to_string(port.port_no) + "/counters";
        (void)vfs_->write_file(counters + "/rx_packets",
                               std::to_string(port.rx_packets));
        (void)vfs_->write_file(counters + "/tx_packets",
                               std::to_string(port.tx_packets));
        (void)vfs_->write_file(counters + "/rx_bytes",
                               std::to_string(port.rx_bytes));
        (void)vfs_->write_file(counters + "/tx_bytes",
                               std::to_string(port.tx_bytes));
      }
      break;
  }
}

void OfDriver::request_stats() {
  for (auto& conn : connections_) {
    if (conn->state != Connection::State::ready ||
        !conn->channel.connected())
      continue;
    ofp::StatsRequest flows;
    flows.kind = ofp::StatsKind::flow;
    send(*conn, flows);
    ofp::StatsRequest ports;
    ports.kind = ofp::StatsKind::port;
    send(*conn, ports);
    ofp::StatsRequest queues;
    queues.kind = ofp::StatsKind::queue;
    send(*conn, queues);
  }
}

void OfDriver::ping_switches() {
  auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  ofp::EchoRequest ping;
  ping.data.resize(8);
  for (int i = 0; i < 8; ++i)
    ping.data[i] =
        static_cast<std::uint8_t>(static_cast<std::uint64_t>(now) >> (8 * i));
  for (auto& conn : connections_) {
    if (conn->state != Connection::State::ready ||
        !conn->channel.connected())
      continue;
    send(*conn, ping);
  }
}

void OfDriver::bump_counter(const std::string& path, std::uint64_t delta) {
  std::uint64_t value = 0;
  if (auto current = vfs_->read_file(path))
    value = parse_u64(trim(*current)).value_or(0);
  (void)vfs_->write_file(path, std::to_string(value + delta));
}

}  // namespace yanc::driver
