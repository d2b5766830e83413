#include "yanc/view/slicer.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::view {

using flow::Action;
using flow::ActionKind;
using flow::FlowSpec;

Slicer::Slicer(std::shared_ptr<vfs::Vfs> vfs, std::string parent_root,
               SliceConfig config)
    : vfs_(std::move(vfs)), parent_root_(vfs::normalize_path(parent_root)),
      view_root_(parent_root_ + "/views/" + config.name),
      config_(std::move(config)) {}

bool Slicer::switch_in_slice(const std::string& name) const {
  if (config_.switches.empty()) return true;
  for (const auto& s : config_.switches)
    if (s == name) return true;
  return false;
}

bool Slicer::port_in_slice(const std::string& sw, std::uint16_t port) const {
  auto it = config_.ports.find(sw);
  if (it == config_.ports.end()) return true;
  return it->second.count(port) != 0;
}

Status Slicer::init() {
  if (auto ec = vfs_->mkdir(view_root_);
      ec && ec != make_error_code(Errc::exists))
    return ec;

  // Mirror sliced switches and their (sliced) ports into the view.
  netfs::NetDir parent(vfs_, parent_root_);
  netfs::NetDir child(vfs_, view_root_);
  auto switches = parent.switch_names();
  if (!switches) return switches.error();
  for (const auto& sw_name : *switches) {
    if (!switch_in_slice(sw_name)) continue;
    auto ec = child.add_switch(sw_name);
    if (ec && ec != make_error_code(Errc::exists)) return ec;
    auto src = parent.switch_at(sw_name);
    auto dst = child.switch_at(sw_name);
    // Identity is copied so `ls -l` in the view is meaningful.
    if (auto id = src.datapath_id()) (void)dst.set_datapath_id(*id);
    if (auto v = src.protocol_version())
      (void)dst.set_protocol_version(*v);
    if (auto c = src.connected()) (void)dst.set_connected(*c);
    auto ports = src.port_names();
    if (!ports) continue;
    for (const auto& port_name : *ports) {
      auto no = parse_u64(port_name);
      if (!no || !port_in_slice(sw_name, static_cast<std::uint16_t>(*no)))
        continue;
      auto hw = src.port_at(port_name).hw_addr();
      (void)dst.add_port(static_cast<std::uint16_t>(*no),
                         hw ? *hw : MacAddress{}, "sliced");
    }
  }

  auto events = parent.open_events("slicer-" + config_.name);
  if (!events) return events.error();
  parent_events_ = *events;
  return ok_status();
}

std::optional<FlowSpec> Slicer::translate(const std::string& sw,
                                          const FlowSpec& spec) const {
  auto confined = spec.match.intersect(config_.predicate);
  if (!confined) return std::nullopt;  // disjoint from the slice
  FlowSpec out = spec;
  out.match = *confined;
  // Outputs are confined to the slice's ports; flood becomes an explicit
  // list of the slice's ports on this switch.
  std::vector<Action> actions;
  for (const auto& a : spec.actions) {
    if (a.kind != ActionKind::output) {
      actions.push_back(a);
      continue;
    }
    std::uint16_t port = a.port();
    if (port == flow::port_no::flood || port == flow::port_no::all) {
      auto it = config_.ports.find(sw);
      if (it == config_.ports.end()) {
        actions.push_back(a);  // whole switch is in the slice
      } else {
        for (std::uint16_t p : it->second)
          actions.push_back(Action::output(p));
      }
      continue;
    }
    if (port >= flow::port_no::max || port_in_slice(sw, port))
      actions.push_back(a);
    // Outputs to out-of-slice ports are silently dropped from the list.
  }
  out.actions = std::move(actions);
  return out;
}

std::string Slicer::parent_flow_name(const std::string& name) const {
  return "view_" + config_.name + "__" + name;
}

Result<std::size_t> Slicer::poll() {
  std::size_t work = sync_flows();
  work += forward_events();
  return work;
}

std::size_t Slicer::sync_flows() {
  netfs::NetDir child(vfs_, view_root_);
  auto switches = child.switch_names();
  if (!switches) return 0;
  for (const auto& sw : *switches) followers_[sw];
  std::size_t work = 0;
  // A switch gone from the view is synced once more: its flows/ can no
  // longer be listed, so every flow it carried is retracted.
  for (auto it = followers_.begin(); it != followers_.end();) {
    const std::string& sw = it->first;
    std::string parent_flows = parent_root_ + "/switches/" + sw + "/flows/";
    it->second.sync(
        *vfs_, view_root_ + "/switches/" + sw + "/flows",
        [&](const std::string& name, const FlowSpec& spec) {
          std::string parent_flow = parent_flows + parent_flow_name(name);
          auto translated = translate(sw, spec);
          if (!translated) {
            ++rejected_;
            // A previously-translated version may exist: retract it.
            (void)vfs_->rmdir(parent_flow);
            return;
          }
          if (!netfs::write_flow(*vfs_, parent_flow, *translated)) ++work;
        },
        [&](const std::string& name) {
          // View flows that disappeared retract their parent counterpart.
          (void)vfs_->rmdir(parent_flows + parent_flow_name(name));
          ++work;
        });
    it = it->second.empty() ? followers_.erase(it) : std::next(it);
  }
  return work;
}

std::size_t Slicer::forward_events() {
  if (!parent_events_) return 0;
  auto pending = parent_events_->drain();
  if (!pending) return 0;
  std::size_t forwarded = 0;
  for (auto& pkt : *pending) {
    if (!switch_in_slice(pkt.datapath) ||
        !port_in_slice(pkt.datapath, pkt.in_port))
      continue;
    // Only packets inside the slice's header space are visible.
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto parsed = net::parse_frame(frame);
    if (!parsed) continue;
    if (!config_.predicate.matches(parsed->fields(pkt.in_port))) continue;
    obs::Span trace_span(pkt.trace, "view", "packet_in", pkt.trace_queue_ns);
    pkt.trace = trace_span.ref();
    forwarded += netfs::deliver_packet_in(*vfs_, view_root_ + "/events", pkt);
  }
  return forwarded;
}

}  // namespace yanc::view
