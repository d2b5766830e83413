// Network views (§4.2) in action: a slicer confines a tenant to ssh
// traffic on a port subset; a namespaced tenant application (§5.3)
// programs flows inside its view without ever being able to name the
// master tree; and a big-switch virtualizer collapses the fabric into a
// single virtual switch for a second tenant.
//
// Usage: ./build/examples/sliced_network
// Exits non-zero when what it prints does not hold.
#include <cstdio>

#include "yanc/driver/of_driver.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/shell/coreutils.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/view/bigswitch.hpp"
#include "yanc/view/slicer.hpp"

using namespace yanc;

int main() {
  auto vfs = std::make_shared<vfs::Vfs>();
  (void)netfs::mount_yanc_fs(*vfs);
  driver::OfDriver driver(vfs);
  net::Scheduler scheduler;
  net::Network network(scheduler);

  std::vector<std::unique_ptr<sw::Switch>> switches;
  for (std::uint64_t dpid : {1, 2}) {
    sw::SwitchOptions opts;
    opts.datapath_id = dpid;
    auto s = std::make_unique<sw::Switch>("dp" + std::to_string(dpid), opts,
                                          network);
    for (std::uint16_t p = 1; p <= 4; ++p)
      s->add_port(p, MacAddress::from_u64((dpid << 8) | p), "eth");
    s->connect(driver.listener().connect());
    switches.push_back(std::move(s));
  }
  // Fabric link sw1:4 <-> sw2:4, declared via peer symlinks so the big
  // switch can route across it.
  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver.poll() + scheduler.run_until_idle();
      for (auto& s : switches) work += s->pump();
      if (!work) break;
    }
  };
  settle();
  (void)vfs->symlink("/net/switches/sw2/ports/4",
                     "/net/switches/sw1/ports/4/peer");
  (void)vfs->symlink("/net/switches/sw1/ports/4",
                     "/net/switches/sw2/ports/4/peer");

  // --- tenant A: an ssh-only slice of sw1 ports 1-2 ----------------------
  view::SliceConfig cfg;
  cfg.name = "ssh-tenant";
  cfg.predicate.dl_type = 0x0800;
  cfg.predicate.nw_proto = 6;
  cfg.predicate.tp_dst = 22;
  cfg.switches = {"sw1"};
  cfg.ports = {{"sw1", {1, 2}}};
  view::Slicer slicer(vfs, "/net", cfg);
  (void)slicer.init();

  std::printf("== the tenant's world (mkdir views/ssh-tenant made it, §3.1):\n%s\n",
              shell::tree(*vfs, "/net/views/ssh-tenant/switches")->c_str());

  // The tenant runs inside a namespace rooted at its view (§5.3): it
  // literally cannot name the master tree.
  vfs::Namespace tenant(vfs, "/net/views/ssh-tenant",
                        vfs::Credentials::user(2000, 2000));
  std::printf("== tenant (namespaced) sees /switches: %s",
              shell::ls(*vfs, "/net/views/ssh-tenant/switches")->c_str());

  // Tenant writes a match-ALL flow — the slicer confines it to ssh.
  (void)vfs->mkdir("/net/views/ssh-tenant/switches/sw1/flows/mine");
  (void)shell::echo_to(*vfs,
                       "/net/views/ssh-tenant/switches/sw1/flows/mine/action.out",
                       "2");
  (void)shell::echo_to(
      *vfs, "/net/views/ssh-tenant/switches/sw1/flows/mine/version", "1");
  (void)slicer.poll();
  settle();

  auto installed = netfs::read_flow(*vfs,
                                    "/net/switches/sw1/flows/view_ssh-tenant__mine");
  if (!installed) {
    std::printf("FAIL: the tenant's flow never reached the master view\n");
    return 1;
  }
  std::printf("\n== what actually reached the master view:\n   %s\n",
              installed->to_string().c_str());
  const auto& sw1_table = switches[0]->table();
  std::printf("   hardware entries on sw1: %zu (confined to tp_dst=22)\n",
              sw1_table.size());
  if (sw1_table.size() != 1 || sw1_table.entries()[0].spec.match.tp_dst != 22) {
    std::printf("FAIL: sw1's hardware does not hold the confined flow\n");
    return 1;
  }

  // --- tenant B: the whole fabric as one big switch -----------------------
  view::BigSwitchConfig big_cfg;
  big_cfg.view_name = "onebig";
  big_cfg.edge_ports = {{"sw1", 1}, {"sw2", 2}};
  view::BigSwitch big(vfs, "/net", big_cfg);
  (void)big.init();
  std::printf("\n== tenant B's virtual switch (ports map to fabric edges):\n%s",
              shell::ls(*vfs, "/net/views/onebig/switches/big0/ports", true)
                  ->c_str());

  flow::FlowSpec cross;
  cross.match.in_port = 1;
  cross.actions = {flow::Action::output(2)};
  (void)netfs::write_flow(*vfs,
                          "/net/views/onebig/switches/big0/flows/cross",
                          cross);
  (void)big.poll();
  settle();
  std::printf("\n== one virtual flow compiled into per-hop entries:\n");
  for (const auto& s : switches)
    std::printf("   %s: %zu hardware flows\n", s->name().c_str(),
                s->table().size());
  // sw1 keeps tenant A's flow and gains the ingress hop; sw2 the egress.
  if (big.compiled_flows() != 1 || switches[0]->table().size() != 2 ||
      switches[1]->table().size() != 1) {
    std::printf("FAIL: the virtual flow did not compile to one entry per hop\n");
    return 1;
  }
  return 0;
}
