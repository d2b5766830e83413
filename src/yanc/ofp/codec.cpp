#include "yanc/ofp/codec.hpp"

#include "yanc/ofp/oxm.hpp"
#include "yanc/ofp/wire10.hpp"
#include "yanc/util/bytes.hpp"

namespace yanc::ofp {

namespace {

constexpr std::uint8_t kOf10StatsRequest = 16;
constexpr std::uint8_t kOf10StatsReply = 17;
constexpr std::uint8_t kOf10Barrier = 18;
constexpr std::uint8_t kOf13Multipart = 18;
constexpr std::uint8_t kOf13Barrier = 20;

std::uint8_t wire_type(Version v, const Message& m) {
  struct Visitor {
    Version v;
    std::uint8_t operator()(const Hello&) { return 0; }
    std::uint8_t operator()(const Error&) { return 1; }
    std::uint8_t operator()(const EchoRequest&) { return 2; }
    std::uint8_t operator()(const EchoReply&) { return 3; }
    std::uint8_t operator()(const FeaturesRequest&) { return 5; }
    std::uint8_t operator()(const FeaturesReply&) { return 6; }
    std::uint8_t operator()(const PacketIn&) { return 10; }
    std::uint8_t operator()(const FlowRemoved&) { return 11; }
    std::uint8_t operator()(const PortStatus&) { return 12; }
    std::uint8_t operator()(const PacketOut&) { return 13; }
    std::uint8_t operator()(const FlowMod&) { return 14; }
    std::uint8_t operator()(const StatsRequest&) {
      return v == Version::of10 ? kOf10StatsRequest : kOf13Multipart;
    }
    std::uint8_t operator()(const StatsReply&) {
      return v == Version::of10 ? kOf10StatsReply
                                : static_cast<std::uint8_t>(kOf13Multipart + 1);
    }
    std::uint8_t operator()(const BarrierRequest&) {
      return v == Version::of10 ? kOf10Barrier : kOf13Barrier;
    }
    std::uint8_t operator()(const BarrierReply&) {
      return v == Version::of10 ? static_cast<std::uint8_t>(kOf10Barrier + 1)
                                : static_cast<std::uint8_t>(kOf13Barrier + 1);
    }
    std::uint8_t operator()(const PortMod&) {
      return v == Version::of10 ? 15 : 16;
    }
  };
  return std::visit(Visitor{v}, m);
}

Status encode_body(BufWriter& w, Version v, const Message& m);

Status encode_features_reply(BufWriter& w, Version v,
                             const FeaturesReply& f) {
  w.u64(f.datapath_id);
  w.u32(f.n_buffers);
  w.u8(f.n_tables);
  if (v == Version::of10) {
    w.zeros(3);
    w.u32(f.capabilities);
    w.u32(f.actions);
    for (const auto& port : f.ports) wire10::encode_phy_port(w, port);
  } else {
    w.u8(0);  // auxiliary_id
    w.zeros(2);
    w.u32(f.capabilities);
    w.u32(0);  // reserved
  }
  return ok_status();
}

Status encode_flow_mod(BufWriter& w, Version v, const FlowMod& fm) {
  const auto& spec = fm.spec;
  if (v == Version::of10) {
    if (spec.table_id != 0)
      return make_error_code(Errc::not_supported);  // 1.0 has one table
    wire10::encode_match(w, spec.match);
    w.u64(spec.cookie);
    w.u16(static_cast<std::uint16_t>(fm.command));
    w.u16(spec.idle_timeout);
    w.u16(spec.hard_timeout);
    w.u16(spec.priority);
    w.u32(fm.buffer_id);
    w.u16(fm.out_port);
    w.u16(fm.flags);
    auto len = wire10::encode_actions(w, spec.actions);
    return len ? ok_status() : len.error();
  }
  w.u64(spec.cookie);
  w.u64(0);  // cookie_mask
  w.u8(spec.table_id);
  w.u8(static_cast<std::uint8_t>(fm.command));
  w.u16(spec.idle_timeout);
  w.u16(spec.hard_timeout);
  w.u16(spec.priority);
  w.u32(fm.buffer_id);
  w.u32(oxm::port_to_of13(fm.out_port));
  w.u32(0xffffffff);  // out_group: OFPG_ANY
  w.u16(fm.flags);
  w.zeros(2);
  oxm::encode_match(w, spec.match);
  auto len = oxm::encode_instructions(w, spec.actions, spec.goto_table);
  return len ? ok_status() : len.error();
}

Status encode_port_mod(BufWriter& w, Version v, const PortMod& pm) {
  std::uint32_t config = (pm.port_down ? 1u : 0u) |
                         (pm.no_flood ? 1u << 4 : 0u);
  if (v == Version::of10) {
    w.u16(pm.port_no);
    w.bytes(pm.hw_addr.bytes());
    w.u32(config);
    w.u32(0xffffffff);  // mask: change everything we model
    w.u32(0);           // advertise
    w.zeros(4);
  } else {
    w.u32(oxm::port_to_of13(pm.port_no));
    w.zeros(4);
    w.bytes(pm.hw_addr.bytes());
    w.zeros(2);
    w.u32(config);
    w.u32(0xffffffff);
    w.u32(0);
    w.zeros(4);
  }
  return ok_status();
}

Status encode_packet_in(BufWriter& w, Version v, const PacketIn& pi) {
  w.u32(pi.buffer_id);
  w.u16(pi.total_len);
  if (v == Version::of10) {
    w.u16(pi.in_port);
    w.u8(static_cast<std::uint8_t>(pi.reason));
    w.zeros(1);
  } else {
    w.u8(static_cast<std::uint8_t>(pi.reason));
    w.u8(pi.table_id);
    w.u64(0);  // cookie
    flow::Match m;
    m.in_port = pi.in_port;
    oxm::encode_match(w, m);
    w.zeros(2);
  }
  w.bytes(pi.data);
  return ok_status();
}

Status encode_packet_out(BufWriter& w, Version v, const PacketOut& po) {
  w.u32(po.buffer_id);
  if (v == Version::of10) {
    w.u16(po.in_port);
    std::size_t len_pos = w.size();
    w.u16(0);
    auto alen = wire10::encode_actions(w, po.actions);
    if (!alen) return alen.error();
    w.patch_u16(len_pos, *alen);
  } else {
    w.u32(oxm::port_to_of13(po.in_port));
    std::size_t len_pos = w.size();
    w.u16(0);
    w.zeros(6);
    auto alen = oxm::encode_actions(w, po.actions);
    if (!alen) return alen.error();
    w.patch_u16(len_pos, *alen);
  }
  if (po.buffer_id == kNoBuffer) w.bytes(po.data);
  return ok_status();
}

Status encode_flow_removed(BufWriter& w, Version v, const FlowRemoved& fr) {
  if (v == Version::of10) {
    wire10::encode_match(w, fr.match);
    w.u64(fr.cookie);
    w.u16(fr.priority);
    w.u8(static_cast<std::uint8_t>(fr.reason));
    w.zeros(1);
    w.u32(fr.duration_sec);
    w.u32(0);  // duration_nsec
    w.u16(0);  // idle_timeout
    w.zeros(2);
    w.u64(fr.packet_count);
    w.u64(fr.byte_count);
  } else {
    w.u64(fr.cookie);
    w.u16(fr.priority);
    w.u8(static_cast<std::uint8_t>(fr.reason));
    w.u8(fr.table_id);
    w.u32(fr.duration_sec);
    w.u32(0);
    w.u16(0);  // idle_timeout
    w.u16(0);  // hard_timeout
    w.u64(fr.packet_count);
    w.u64(fr.byte_count);
    oxm::encode_match(w, fr.match);
  }
  return ok_status();
}

// StatsKind::queue is wire type 5 in 1.0 but 9 in 1.3.
std::uint16_t stats_kind_to_wire(Version v, StatsKind kind) {
  if (kind == StatsKind::queue && v == Version::of13) return 9;
  return static_cast<std::uint16_t>(kind);
}

StatsKind stats_kind_from_wire(Version v, std::uint16_t wire) {
  if (wire == 9 && v == Version::of13) return StatsKind::queue;
  return static_cast<StatsKind>(wire);
}

Status encode_stats_request(BufWriter& w, Version v, const StatsRequest& sr) {
  w.u16(stats_kind_to_wire(v, sr.kind));
  w.u16(0);  // flags
  if (v == Version::of10) {
    switch (sr.kind) {
      case StatsKind::desc:
        return ok_status();
      case StatsKind::flow:
        wire10::encode_match(w, sr.match);
        w.u8(sr.table_id);
        w.zeros(1);
        w.u16(0xffff);  // out_port: none
        return ok_status();
      case StatsKind::port:
        w.u16(sr.port_no);
        w.zeros(6);
        return ok_status();
      case StatsKind::queue:
        w.u16(sr.port_no);
        w.zeros(2);
        w.u32(sr.queue_id);
        return ok_status();
      case StatsKind::port_desc:
        return make_error_code(Errc::not_supported);  // 1.0: use features
    }
    return make_error_code(Errc::not_supported);
  }
  w.zeros(4);
  switch (sr.kind) {
    case StatsKind::desc:
    case StatsKind::port_desc:
      return ok_status();
    case StatsKind::flow:
      w.u8(sr.table_id);
      w.zeros(3);
      w.u32(0xffffffff);  // out_port: any
      w.u32(0xffffffff);  // out_group: any
      w.zeros(4);
      w.u64(0);  // cookie
      w.u64(0);  // cookie_mask
      oxm::encode_match(w, sr.match);
      return ok_status();
    case StatsKind::port:
      w.u32(sr.port_no == 0xffff ? 0xffffffffu
                                 : oxm::port_to_of13(sr.port_no));
      w.zeros(4);
      return ok_status();
    case StatsKind::queue:
      w.u32(sr.port_no == 0xffff ? 0xffffffffu
                                 : oxm::port_to_of13(sr.port_no));
      w.u32(sr.queue_id);
      return ok_status();
  }
  return make_error_code(Errc::not_supported);
}

Status encode_stats_reply(BufWriter& w, Version v, const StatsReply& sr) {
  w.u16(stats_kind_to_wire(v, sr.kind));
  w.u16(0);  // flags
  if (v != Version::of10) w.zeros(4);
  switch (sr.kind) {
    case StatsKind::desc:
      w.padded_string(sr.manufacturer, 256);
      w.padded_string(sr.hw_desc, 256);
      w.padded_string(sr.sw_desc, 256);
      w.padded_string(sr.serial, 32);
      w.padded_string(sr.dp_desc, 256);
      return ok_status();
    case StatsKind::flow:
      for (const auto& e : sr.flows) {
        std::size_t entry_start = w.size();
        std::size_t len_pos = w.size();
        if (v == Version::of10) {
          w.u16(0);  // length, patched
          w.u8(e.table_id);
          w.zeros(1);
          wire10::encode_match(w, e.spec.match);
          w.u32(e.duration_sec);
          w.u32(0);
          w.u16(e.spec.priority);
          w.u16(e.spec.idle_timeout);
          w.u16(e.spec.hard_timeout);
          w.zeros(6);
          w.u64(e.spec.cookie);
          w.u64(e.packet_count);
          w.u64(e.byte_count);
          auto alen = wire10::encode_actions(w, e.spec.actions);
          if (!alen) return alen.error();
        } else {
          w.u16(0);
          w.u8(e.table_id);
          w.zeros(1);
          w.u32(e.duration_sec);
          w.u32(0);
          w.u16(e.spec.priority);
          w.u16(e.spec.idle_timeout);
          w.u16(e.spec.hard_timeout);
          w.u16(0);  // flags
          w.zeros(4);
          w.u64(e.spec.cookie);
          w.u64(e.packet_count);
          w.u64(e.byte_count);
          oxm::encode_match(w, e.spec.match);
          auto ilen = oxm::encode_instructions(w, e.spec.actions);
          if (!ilen) return ilen.error();
        }
        w.patch_u16(len_pos,
                    static_cast<std::uint16_t>(w.size() - entry_start));
      }
      return ok_status();
    case StatsKind::port:
      for (const auto& p : sr.ports) {
        if (v == Version::of10) {
          w.u16(p.port_no);
          w.zeros(6);
        } else {
          w.u32(oxm::port_to_of13(p.port_no));
          w.zeros(4);
        }
        w.u64(p.rx_packets);
        w.u64(p.tx_packets);
        w.u64(p.rx_bytes);
        w.u64(p.tx_bytes);
        w.u64(p.rx_dropped);
        w.u64(p.tx_dropped);
        w.u64(p.rx_errors);
        w.u64(p.tx_errors);
        // rx_frame_err, rx_over_err, rx_crc_err, collisions
        for (int i = 0; i < 4; ++i) w.u64(0);
        if (v != Version::of10) {
          w.u32(0);  // duration_sec
          w.u32(0);  // duration_nsec
        }
      }
      return ok_status();
    case StatsKind::queue:
      for (const auto& q : sr.queues) {
        if (v == Version::of10) {
          w.u16(q.port_no);
          w.zeros(2);
          w.u32(q.queue_id);
        } else {
          w.u32(oxm::port_to_of13(q.port_no));
          w.u32(q.queue_id);
        }
        w.u64(q.tx_bytes);
        w.u64(q.tx_packets);
        w.u64(q.tx_errors);
        if (v != Version::of10) {
          w.u32(0);  // duration_sec
          w.u32(0);  // duration_nsec
        }
      }
      return ok_status();
    case StatsKind::port_desc:
      if (v == Version::of10) return make_error_code(Errc::not_supported);
      for (const auto& port : sr.port_descs) oxm::encode_port(w, port);
      return ok_status();
  }
  return make_error_code(Errc::not_supported);
}

Status encode_body(BufWriter& w, Version v, const Message& m) {
  struct Visitor {
    BufWriter& w;
    Version v;
    Status operator()(const Hello&) { return ok_status(); }
    Status operator()(const Error& e) {
      w.u16(e.type);
      w.u16(e.code);
      w.bytes(e.data);
      return ok_status();
    }
    Status operator()(const EchoRequest& e) {
      w.bytes(e.data);
      return ok_status();
    }
    Status operator()(const EchoReply& e) {
      w.bytes(e.data);
      return ok_status();
    }
    Status operator()(const FeaturesRequest&) { return ok_status(); }
    Status operator()(const FeaturesReply& f) {
      return encode_features_reply(w, v, f);
    }
    Status operator()(const FlowMod& fm) { return encode_flow_mod(w, v, fm); }
    Status operator()(const PacketIn& pi) {
      return encode_packet_in(w, v, pi);
    }
    Status operator()(const PacketOut& po) {
      return encode_packet_out(w, v, po);
    }
    Status operator()(const PortStatus& ps) {
      w.u8(static_cast<std::uint8_t>(ps.reason));
      w.zeros(7);
      if (v == Version::of10)
        wire10::encode_phy_port(w, ps.desc);
      else
        oxm::encode_port(w, ps.desc);
      return ok_status();
    }
    Status operator()(const FlowRemoved& fr) {
      return encode_flow_removed(w, v, fr);
    }
    Status operator()(const StatsRequest& sr) {
      return encode_stats_request(w, v, sr);
    }
    Status operator()(const StatsReply& sr) {
      return encode_stats_reply(w, v, sr);
    }
    Status operator()(const BarrierRequest&) { return ok_status(); }
    Status operator()(const BarrierReply&) { return ok_status(); }
    Status operator()(const PortMod& pm) { return encode_port_mod(w, v, pm); }
  };
  return std::visit(Visitor{w, v}, m);
}

// --- decode -------------------------------------------------------------------

Result<Message> decode_features_reply(BufReader& r, Version v) {
  FeaturesReply f;
  f.datapath_id = r.u64();
  f.n_buffers = r.u32();
  f.n_tables = r.u8();
  if (v == Version::of10) {
    r.skip(3);
    f.capabilities = r.u32();
    f.actions = r.u32();
    while (r.remaining() >= wire10::kPhyPortSize) {
      auto port = wire10::decode_phy_port(r);
      if (!port) return port.error();
      f.ports.push_back(*port);
    }
  } else {
    r.skip(3);
    f.capabilities = r.u32();
    r.skip(4);
  }
  if (!r.ok()) return Errc::protocol_error;
  return Message{f};
}

Result<Message> decode_flow_mod(BufReader& r, Version v) {
  FlowMod fm;
  if (v == Version::of10) {
    auto match = wire10::decode_match(r);
    if (!match) return match.error();
    fm.spec.match = *match;
    fm.spec.cookie = r.u64();
    fm.command = static_cast<FlowMod::Command>(r.u16());
    fm.spec.idle_timeout = r.u16();
    fm.spec.hard_timeout = r.u16();
    fm.spec.priority = r.u16();
    fm.buffer_id = r.u32();
    fm.out_port = r.u16();
    fm.flags = r.u16();
    if (!r.ok()) return Errc::protocol_error;
    auto actions = wire10::decode_actions(r, r.remaining());
    if (!actions) return actions.error();
    fm.spec.actions = *actions;
  } else {
    fm.spec.cookie = r.u64();
    r.skip(8);  // cookie_mask
    fm.spec.table_id = r.u8();
    fm.command = static_cast<FlowMod::Command>(r.u8());
    fm.spec.idle_timeout = r.u16();
    fm.spec.hard_timeout = r.u16();
    fm.spec.priority = r.u16();
    fm.buffer_id = r.u32();
    fm.out_port = oxm::port_from_of13(r.u32());
    r.skip(4);  // out_group
    fm.flags = r.u16();
    r.skip(2);
    if (!r.ok()) return Errc::protocol_error;
    auto match = oxm::decode_match(r);
    if (!match) return match.error();
    fm.spec.match = *match;
    int goto_table = -1;
    auto actions = oxm::decode_instructions(r, r.remaining(), &goto_table);
    if (!actions) return actions.error();
    fm.spec.actions = *actions;
    fm.spec.goto_table = goto_table;
  }
  return Message{fm};
}

Result<Message> decode_packet_in(BufReader& r, Version v) {
  PacketIn pi;
  pi.buffer_id = r.u32();
  pi.total_len = r.u16();
  if (v == Version::of10) {
    pi.in_port = r.u16();
    pi.reason = static_cast<PacketIn::Reason>(r.u8());
    r.skip(1);
  } else {
    pi.reason = static_cast<PacketIn::Reason>(r.u8());
    pi.table_id = r.u8();
    r.skip(8);  // cookie
    auto match = oxm::decode_match(r);
    if (!match) return match.error();
    if (match->in_port) pi.in_port = *match->in_port;
    r.skip(2);
  }
  if (!r.ok()) return Errc::protocol_error;
  pi.data = r.bytes(r.remaining());
  return Message{pi};
}

Result<Message> decode_packet_out(BufReader& r, Version v) {
  PacketOut po;
  po.buffer_id = r.u32();
  std::uint16_t actions_len;
  if (v == Version::of10) {
    po.in_port = r.u16();
    actions_len = r.u16();
    if (!r.ok()) return Errc::protocol_error;
    auto actions = wire10::decode_actions(r, actions_len);
    if (!actions) return actions.error();
    po.actions = *actions;
  } else {
    po.in_port = oxm::port_from_of13(r.u32());
    actions_len = r.u16();
    r.skip(6);
    if (!r.ok()) return Errc::protocol_error;
    auto actions = oxm::decode_actions(r, actions_len);
    if (!actions) return actions.error();
    po.actions = *actions;
  }
  po.data = r.bytes(r.remaining());
  return Message{po};
}

Result<Message> decode_flow_removed(BufReader& r, Version v) {
  FlowRemoved fr;
  if (v == Version::of10) {
    auto match = wire10::decode_match(r);
    if (!match) return match.error();
    fr.match = *match;
    fr.cookie = r.u64();
    fr.priority = r.u16();
    fr.reason = static_cast<FlowRemoved::Reason>(r.u8());
    r.skip(1);
    fr.duration_sec = r.u32();
    r.skip(4 + 2 + 2);
    fr.packet_count = r.u64();
    fr.byte_count = r.u64();
  } else {
    fr.cookie = r.u64();
    fr.priority = r.u16();
    fr.reason = static_cast<FlowRemoved::Reason>(r.u8());
    fr.table_id = r.u8();
    fr.duration_sec = r.u32();
    r.skip(4 + 2 + 2);
    fr.packet_count = r.u64();
    fr.byte_count = r.u64();
    auto match = oxm::decode_match(r);
    if (!match) return match.error();
    fr.match = *match;
  }
  if (!r.ok()) return Errc::protocol_error;
  return Message{fr};
}

Result<Message> decode_stats_request(BufReader& r, Version v) {
  StatsRequest sr;
  sr.kind = stats_kind_from_wire(v, r.u16());
  r.skip(2);  // flags
  if (v != Version::of10) r.skip(4);
  switch (sr.kind) {
    case StatsKind::desc:
    case StatsKind::port_desc:
      break;
    case StatsKind::flow:
      if (v == Version::of10) {
        auto match = wire10::decode_match(r);
        if (!match) return match.error();
        sr.match = *match;
        sr.table_id = r.u8();
        r.skip(3);
      } else {
        sr.table_id = r.u8();
        r.skip(3 + 4 + 4 + 4 + 8 + 8);
        auto match = oxm::decode_match(r);
        if (!match) return match.error();
        sr.match = *match;
      }
      break;
    case StatsKind::port:
      if (v == Version::of10) {
        sr.port_no = r.u16();
        r.skip(6);
      } else {
        std::uint32_t p = r.u32();
        sr.port_no = p == 0xffffffffu ? 0xffff : oxm::port_from_of13(p);
        r.skip(4);
      }
      break;
    case StatsKind::queue:
      if (v == Version::of10) {
        sr.port_no = r.u16();
        r.skip(2);
        sr.queue_id = r.u32();
      } else {
        std::uint32_t p = r.u32();
        sr.port_no = p == 0xffffffffu ? 0xffff : oxm::port_from_of13(p);
        sr.queue_id = r.u32();
      }
      break;
    default:
      return Errc::not_supported;
  }
  if (!r.ok()) return Errc::protocol_error;
  return Message{sr};
}

Result<Message> decode_stats_reply(BufReader& r, Version v) {
  StatsReply sr;
  sr.kind = stats_kind_from_wire(v, r.u16());
  r.skip(2);
  if (v != Version::of10) r.skip(4);
  switch (sr.kind) {
    case StatsKind::desc:
      sr.manufacturer = r.padded_string(256);
      sr.hw_desc = r.padded_string(256);
      sr.sw_desc = r.padded_string(256);
      sr.serial = r.padded_string(32);
      sr.dp_desc = r.padded_string(256);
      break;
    case StatsKind::flow:
      while (r.ok() && r.remaining() >= 2) {
        FlowStatsEntry e;
        std::uint16_t len = r.u16();
        if (len < 2 || static_cast<std::size_t>(len - 2) > r.remaining()) return Errc::protocol_error;
        BufReader entry = r.sub(len - 2);
        e.table_id = entry.u8();
        e.spec.table_id = e.table_id;
        entry.skip(1);
        if (v == Version::of10) {
          auto match = wire10::decode_match(entry);
          if (!match) return match.error();
          e.spec.match = *match;
          e.duration_sec = entry.u32();
          entry.skip(4);
          e.spec.priority = entry.u16();
          e.spec.idle_timeout = entry.u16();
          e.spec.hard_timeout = entry.u16();
          entry.skip(6);
          e.spec.cookie = entry.u64();
          e.packet_count = entry.u64();
          e.byte_count = entry.u64();
          auto actions = wire10::decode_actions(entry, entry.remaining());
          if (!actions) return actions.error();
          e.spec.actions = *actions;
        } else {
          e.duration_sec = entry.u32();
          entry.skip(4);
          e.spec.priority = entry.u16();
          e.spec.idle_timeout = entry.u16();
          e.spec.hard_timeout = entry.u16();
          entry.skip(2 + 4);
          e.spec.cookie = entry.u64();
          e.packet_count = entry.u64();
          e.byte_count = entry.u64();
          auto match = oxm::decode_match(entry);
          if (!match) return match.error();
          e.spec.match = *match;
          int gt = -1;
          auto actions =
              oxm::decode_instructions(entry, entry.remaining(), &gt);
          if (!actions) return actions.error();
          e.spec.actions = *actions;
        }
        if (!entry.ok()) return Errc::protocol_error;
        sr.flows.push_back(std::move(e));
      }
      break;
    case StatsKind::port: {
      std::size_t entry_size = v == Version::of10 ? 104 : 112;
      while (r.ok() && r.remaining() >= entry_size) {
        PortStatsEntry p;
        if (v == Version::of10) {
          p.port_no = r.u16();
          r.skip(6);
        } else {
          p.port_no = oxm::port_from_of13(r.u32());
          r.skip(4);
        }
        p.rx_packets = r.u64();
        p.tx_packets = r.u64();
        p.rx_bytes = r.u64();
        p.tx_bytes = r.u64();
        p.rx_dropped = r.u64();
        p.tx_dropped = r.u64();
        p.rx_errors = r.u64();
        p.tx_errors = r.u64();
        r.skip(32);
        if (v != Version::of10) r.skip(8);
        sr.ports.push_back(p);
      }
      break;
    }
    case StatsKind::queue: {
      std::size_t entry_size = v == Version::of10 ? 32 : 40;
      while (r.ok() && r.remaining() >= entry_size) {
        QueueStatsEntry q;
        if (v == Version::of10) {
          q.port_no = r.u16();
          r.skip(2);
          q.queue_id = r.u32();
        } else {
          q.port_no = oxm::port_from_of13(r.u32());
          q.queue_id = r.u32();
        }
        q.tx_bytes = r.u64();
        q.tx_packets = r.u64();
        q.tx_errors = r.u64();
        if (v != Version::of10) r.skip(8);
        sr.queues.push_back(q);
      }
      break;
    }
    case StatsKind::port_desc:
      if (v == Version::of10) return Errc::not_supported;
      while (r.ok() && r.remaining() >= oxm::kPortSize) {
        auto port = oxm::decode_port(r);
        if (!port) return port.error();
        sr.port_descs.push_back(*port);
      }
      break;
    default:
      return Errc::not_supported;
  }
  if (!r.ok()) return Errc::protocol_error;
  return Message{sr};
}

}  // namespace

std::string version_name(Version v) {
  return v == Version::of10 ? "1.0" : "1.3";
}

std::string message_name(const Message& m) {
  struct Visitor {
    std::string operator()(const Hello&) { return "hello"; }
    std::string operator()(const Error&) { return "error"; }
    std::string operator()(const EchoRequest&) { return "echo_request"; }
    std::string operator()(const EchoReply&) { return "echo_reply"; }
    std::string operator()(const FeaturesRequest&) {
      return "features_request";
    }
    std::string operator()(const FeaturesReply&) { return "features_reply"; }
    std::string operator()(const FlowMod&) { return "flow_mod"; }
    std::string operator()(const PacketIn&) { return "packet_in"; }
    std::string operator()(const PacketOut&) { return "packet_out"; }
    std::string operator()(const PortStatus&) { return "port_status"; }
    std::string operator()(const FlowRemoved&) { return "flow_removed"; }
    std::string operator()(const StatsRequest&) { return "stats_request"; }
    std::string operator()(const StatsReply&) { return "stats_reply"; }
    std::string operator()(const BarrierRequest&) { return "barrier_request"; }
    std::string operator()(const BarrierReply&) { return "barrier_reply"; }
    std::string operator()(const PortMod&) { return "port_mod"; }
  };
  return std::visit(Visitor{}, m);
}

Result<std::vector<std::uint8_t>> encode(Version v, std::uint32_t xid,
                                         const Message& message) {
  // One message is a batch of one: sharing the framing code keeps the two
  // paths byte-identical (the batch round-trip tests rely on it).
  BatchEncoder batch(v);
  if (auto ec = batch.append(xid, message); ec) return ec;
  return batch.take();
}

Status BatchEncoder::append(std::uint32_t xid, const Message& message) {
  std::size_t base = w_.size();
  w_.u8(static_cast<std::uint8_t>(version_));
  w_.u8(wire_type(version_, message));
  w_.u16(0);  // length, patched
  w_.u32(xid);
  if (auto ec = encode_body(w_, version_, message); ec) {
    w_.truncate(base);
    return ec;
  }
  std::size_t length = w_.size() - base;
  if (length > 0xffff) {
    w_.truncate(base);
    return make_error_code(Errc::overflow);
  }
  w_.patch_u16(base + 2, static_cast<std::uint16_t>(length));
  ++count_;
  return ok_status();
}

std::vector<std::uint8_t> BatchEncoder::take() {
  count_ = 0;
  auto out = w_.take();
  w_ = BufWriter{};
  return out;
}

Result<std::vector<std::span<const std::uint8_t>>> split_frames(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::span<const std::uint8_t>> frames;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    auto header = peek_header(bytes.subspan(pos));
    if (!header) return header.error();
    if (header->length < kHeaderSize || header->length > bytes.size() - pos)
      return Errc::protocol_error;
    frames.push_back(bytes.subspan(pos, header->length));
    pos += header->length;
  }
  return frames;
}

Result<Header> peek_header(std::span<const std::uint8_t> bytes) {
  BufReader r(bytes);
  Header h;
  std::uint8_t version = r.u8();
  h.type = r.u8();
  h.length = r.u16();
  h.xid = r.u32();
  if (!r.ok()) return Errc::protocol_error;
  if (version != static_cast<std::uint8_t>(Version::of10) &&
      version != static_cast<std::uint8_t>(Version::of13))
    return Errc::not_supported;
  h.version = static_cast<Version>(version);
  return h;
}

Result<Decoded> decode(std::span<const std::uint8_t> bytes) {
  auto header = peek_header(bytes);
  if (!header) return header.error();
  if (header->length != bytes.size()) return Errc::protocol_error;
  BufReader r(bytes);
  r.skip(kHeaderSize);
  Version v = header->version;

  auto finish = [&](Message m) -> Result<Decoded> {
    return Decoded{*header, std::move(m)};
  };

  std::uint8_t t = header->type;
  if (t == 0) return finish(Hello{});
  if (t == 1) {
    Error e;
    e.type = r.u16();
    e.code = r.u16();
    e.data = r.bytes(r.remaining());
    if (!r.ok()) return Errc::protocol_error;
    return finish(e);
  }
  if (t == 2) return finish(EchoRequest{r.bytes(r.remaining())});
  if (t == 3) return finish(EchoReply{r.bytes(r.remaining())});
  if (t == 5) return finish(FeaturesRequest{});
  if (t == 6) {
    auto m = decode_features_reply(r, v);
    return m ? finish(*m) : m.error();
  }
  if (t == 10) {
    auto m = decode_packet_in(r, v);
    return m ? finish(*m) : m.error();
  }
  if (t == 11) {
    auto m = decode_flow_removed(r, v);
    return m ? finish(*m) : m.error();
  }
  if (t == 12) {
    PortStatus ps;
    ps.reason = static_cast<PortStatus::Reason>(r.u8());
    r.skip(7);
    if (v == Version::of10) {
      auto port = wire10::decode_phy_port(r);
      if (!port) return port.error();
      ps.desc = *port;
    } else {
      auto port = oxm::decode_port(r);
      if (!port) return port.error();
      ps.desc = *port;
    }
    return finish(ps);
  }
  if (t == 13) {
    auto m = decode_packet_out(r, v);
    return m ? finish(*m) : m.error();
  }
  if (t == 14) {
    auto m = decode_flow_mod(r, v);
    return m ? finish(*m) : m.error();
  }
  if ((v == Version::of10 && t == kOf10StatsRequest) ||
      (v == Version::of13 && t == kOf13Multipart)) {
    auto m = decode_stats_request(r, v);
    return m ? finish(*m) : m.error();
  }
  if ((v == Version::of10 && t == kOf10StatsReply) ||
      (v == Version::of13 && t == kOf13Multipart + 1)) {
    auto m = decode_stats_reply(r, v);
    return m ? finish(*m) : m.error();
  }
  if ((v == Version::of10 && t == kOf10Barrier) ||
      (v == Version::of13 && t == kOf13Barrier))
    return finish(BarrierRequest{});
  if ((v == Version::of10 && t == kOf10Barrier + 1) ||
      (v == Version::of13 && t == kOf13Barrier + 1))
    return finish(BarrierReply{});
  if ((v == Version::of10 && t == 15) || (v == Version::of13 && t == 16)) {
    PortMod pm;
    std::uint32_t config;
    std::array<std::uint8_t, 6> mac{};
    if (v == Version::of10) {
      pm.port_no = r.u16();
      r.bytes(mac);
      config = r.u32();
    } else {
      pm.port_no = oxm::port_from_of13(r.u32());
      r.skip(4);
      r.bytes(mac);
      r.skip(2);
      config = r.u32();
    }
    if (!r.ok()) return Errc::protocol_error;
    pm.hw_addr = MacAddress(mac);
    pm.port_down = config & 1u;
    pm.no_flood = config & (1u << 4);
    return finish(pm);
  }

  return Errc::not_supported;
}

}  // namespace yanc::ofp
