// Figure-1 architecture integration (FIG-1 in DESIGN.md): every box of
// the paper's diagram wired together —
//
//   apps (router / pusher / shell)   master view
//          |                            |
//        yanc fs  <---- slicer ----> view subtrees, namespaced apps
//          |
//        drivers  <--- OpenFlow ---> software switches + hosts
//          |
//   distributed fs (replicated across controller nodes)
//
// plus the end-to-end checks that only make sense across modules.
#include <gtest/gtest.h>

#include "yanc/apps/router.hpp"
#include "yanc/apps/static_flow_pusher.hpp"
#include "yanc/dist/replicated.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/net/packet.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/shell/coreutils.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/topo/discovery.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/view/slicer.hpp"

namespace yanc {
namespace {

using flow::Action;
using flow::FlowSpec;

class Fig1Architecture : public ::testing::Test {
 protected:
  Fig1Architecture() : network(scheduler) {}

  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    driver = std::make_unique<driver::OfDriver>(vfs);
  }

  sw::Switch* add_switch(std::uint64_t dpid, int ports = 4) {
    sw::SwitchOptions opts;
    opts.datapath_id = dpid;
    auto s = std::make_unique<sw::Switch>("dp" + std::to_string(dpid), opts,
                                          network);
    for (int p = 1; p <= ports; ++p)
      s->add_port(static_cast<std::uint16_t>(p),
                  MacAddress::from_u64((dpid << 8) | p), "eth");
    s->connect(driver->listener().connect());
    switches.push_back(std::move(s));
    return switches.back().get();
  }

  void settle(const std::function<std::size_t()>& extra = {}) {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver->poll();
      for (auto& s : switches) work += s->pump();
      work += scheduler.run_until_idle();
      if (extra) work += extra();
      if (work == 0) break;
    }
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  net::Scheduler scheduler;
  net::Network network;
  std::unique_ptr<driver::OfDriver> driver;
  std::vector<std::unique_ptr<sw::Switch>> switches;
};

// The slicer sits between a tenant's view and the master view while a real
// driver executes the result on a real switch.
TEST_F(Fig1Architecture, SlicedTenantFlowReachesHardwareConfined) {
  auto* s1 = add_switch(1);
  settle();

  view::SliceConfig cfg;
  cfg.name = "tenant";
  cfg.predicate.dl_type = 0x0800;
  cfg.predicate.tp_dst = 443;
  view::Slicer slicer(vfs, "/net", cfg);
  ASSERT_FALSE(slicer.init());

  // The tenant writes a match-all flow inside its view.
  netfs::NetDir tenant_view(vfs, "/net/views/tenant");
  FlowSpec broad;
  broad.actions = {Action::output(2)};
  ASSERT_FALSE(tenant_view.switch_at("sw1").add_flow("mine", broad));
  settle([&]() -> std::size_t {
    auto w = slicer.poll();
    return w ? *w : 0;
  });

  // The hardware entry is the *confined* flow.
  ASSERT_EQ(s1->table().size(), 1u);
  const auto& entry = s1->table().entries()[0];
  EXPECT_EQ(entry.spec.match.tp_dst, 443);
  EXPECT_EQ(entry.spec.match.dl_type, 0x0800);

  // Data-plane check: only port-443 traffic uses the tenant's flow.
  flow::FieldValues https;
  https.dl_type = 0x0800;
  https.tp_dst = 443;
  flow::FieldValues ssh = https;
  ssh.tp_dst = 22;
  EXPECT_NE(s1->mutable_table().lookup(https, 0, 64, false), nullptr);
  EXPECT_EQ(s1->mutable_table().lookup(ssh, 0, 64, false), nullptr);
}

// A namespaced application (Linux-namespace stand-in, §5.3) can only see
// and touch its own view.
TEST_F(Fig1Architecture, NamespacedAppIsConfinedToItsView) {
  add_switch(1);
  settle();
  view::SliceConfig cfg;
  cfg.name = "tenant";
  view::Slicer slicer(vfs, "/net", cfg);
  ASSERT_FALSE(slicer.init());

  vfs::Namespace ns(vfs, "/net/views/tenant", vfs::Credentials::root());
  // Inside the namespace the view's subtree appears at the root.
  auto entries = ns.readdir("/switches");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
  // Escape attempts are clamped at the namespace root (chroot semantics):
  // "/../../switches" is still the VIEW's switches dir, not the master's.
  // Prove it by marking the view's subtree and reading it back through
  // the ".." path.
  ASSERT_FALSE(ns.mkdir("/switches/marker"));
  auto escaped = ns.readdir("/../../switches");
  ASSERT_TRUE(escaped.ok());
  bool saw_marker = false;
  for (const auto& e : *escaped) saw_marker |= e.name == "marker";
  EXPECT_TRUE(saw_marker);
  // The master tree has no such switch.
  EXPECT_FALSE(vfs->stat("/net/switches/marker").ok());
  // But writes inside the namespace land in the view.
  ASSERT_FALSE(ns.mkdir("/switches/sw1/flows/ns-flow"));
  EXPECT_TRUE(
      vfs->stat("/net/views/tenant/switches/sw1/flows/ns-flow").ok());
}

// Shell tools, the pusher, and the audit trail compose over one live FS.
TEST_F(Fig1Architecture, ShellAndPusherComposeOverLiveFs) {
  auto* s1 = add_switch(1);
  settle();
  auto report = apps::push_flows(
      *vfs, "switch=sw1 flow=ssh match.tp_dst=22 action.out=2\n");
  ASSERT_TRUE(report.errors.empty());
  settle();
  ASSERT_EQ(s1->table().size(), 1u);

  // The paper's find|grep one-liner locates the flow the pusher wrote.
  auto flows = shell::flows_matching_port(*vfs, "/net", 22);
  ASSERT_TRUE(flows.ok());
  ASSERT_EQ(flows->size(), 1u);
  EXPECT_EQ((*flows)[0], "/net/switches/sw1/flows/ssh");

  // `ls -l` over switches shows the connected switch.
  auto listing = shell::ls(*vfs, "/net/switches", true);
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("sw1"), std::string::npos);
}

// §5.1: "the network operating system can implement fine-grained control
// of network resources using permissions ... while individual flows can be
// protected for specific processes, so too can an entire switch."
TEST_F(Fig1Architecture, PermissionsProtectSwitchesAndFlows) {
  auto* s1 = add_switch(1);
  (void)s1;
  settle();
  auto alice = vfs::Credentials::user(1000, 100);
  auto bob = vfs::Credentials::user(1001, 100);

  // Hand the switch's flows/ directory to alice.
  ASSERT_FALSE(vfs->chown("/net/switches/sw1/flows", 1000, 100));
  ASSERT_FALSE(vfs->chmod("/net/switches/sw1/flows", 0755));

  // Alice programs a flow; bob cannot create one at all.
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/alices", 0755, alice));
  EXPECT_EQ(vfs->mkdir("/net/switches/sw1/flows/bobs", 0755, bob),
            make_error_code(Errc::access_denied));
  // Nor can bob tamper with alice's flow (her object, 0755).
  EXPECT_EQ(vfs->write_file("/net/switches/sw1/flows/alices/priority",
                            "1", bob),
            make_error_code(Errc::access_denied));

  // An ACL grants bob exactly one flow directory, nothing else (§5.1).
  vfs::Acl acl = vfs::Acl::from_mode(0755);
  acl.add({vfs::AclTag::user, 1001, 7});
  acl.add({vfs::AclTag::mask, 0, 7});
  ASSERT_FALSE(vfs->set_acl("/net/switches/sw1/flows", acl,
                            vfs::Credentials::root()));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/bobs", 0700, bob));
  EXPECT_FALSE(vfs->write_file("/net/switches/sw1/flows/bobs/priority",
                               "7", bob));
  // Alice in turn cannot touch bob's 0700 flow.
  EXPECT_EQ(vfs->write_file("/net/switches/sw1/flows/bobs/priority", "9",
                            alice),
            make_error_code(Errc::access_denied));
}

// The controller's own telemetry is a file system too (/yanc/.stats,
// procfs-style): drive real traffic through the Figure-1 stack, then read
// the counters back with the same shell coreutils an administrator would
// use.  Counters must only ever go up.
TEST_F(Fig1Architecture, StatsSubtreeObservesLiveTraffic) {
  auto stats = vfs::mount_stats_fs(*vfs);
  ASSERT_TRUE(stats.ok());
  auto* s1 = add_switch(1);
  settle();
  (*stats)->refresh();

  auto counter = [&](const std::string& path) -> std::uint64_t {
    auto text = shell::cat(*vfs, path);
    EXPECT_TRUE(text.ok()) << path;
    if (!text) return 0;
    auto value = parse_u64(trim(*text));
    EXPECT_TRUE(value.ok()) << path << " = " << *text;
    return value ? *value : 0;
  };

  // The handshake alone walked the file system and exchanged messages.
  const std::uint64_t lookups0 = counter("/yanc/.stats/vfs/lookup_total");
  EXPECT_GT(lookups0, 0u);
  EXPECT_GT(counter("/yanc/.stats/driver/of/msg_in_total"), 0u);
  EXPECT_GT(counter("/yanc/.stats/driver/of/msg_out_total"), 0u);
  const std::uint64_t pkt0 = counter("/yanc/.stats/driver/of/packet_in_total");

  // A table miss on the data plane becomes a packet_in at the controller.
  auto frame = net::build_ethernet(MacAddress{}, MacAddress{}, 0x1234, {7});
  s1->handle_frame(2, frame);
  settle();
  (*stats)->refresh();
  const std::uint64_t pkt1 = counter("/yanc/.stats/driver/of/packet_in_total");
  EXPECT_EQ(pkt1, pkt0 + 1);

  // More traffic, strictly larger counters: monotonically increasing.
  s1->handle_frame(3, frame);
  driver->ping_switches();
  settle();
  (*stats)->refresh();
  EXPECT_GT(counter("/yanc/.stats/driver/of/packet_in_total"), pkt1);
  EXPECT_GT(counter("/yanc/.stats/vfs/lookup_total"), lookups0);
  // The echo round-trip landed in the RTT histogram.
  EXPECT_GE(counter("/yanc/.stats/driver/of/echo_rtt_ns_count"), 1u);

  // The subtree is part of the namespace like anything else.
  auto listing = shell::ls(*vfs, "/yanc/.stats");
  ASSERT_TRUE(listing.ok());
  EXPECT_NE(listing->find("vfs"), std::string::npos);
  EXPECT_NE(listing->find("driver"), std::string::npos);
}

// The §6/§7.1 story end-to-end: two controller nodes over a replicated
// file system; the switch connects to node B's driver; an administrator
// writes the flow on node A.  The flow crosses the replication layer and
// lands in the switch via node B's driver — neither side knows about the
// other.
TEST(DistributedControllerIntegration, FlowWrittenOnNodeAProgramsSwitchOnNodeB) {
  net::Scheduler scheduler;
  net::Network network(scheduler);
  dist::Cluster cluster(
      scheduler, dist::ClusterOptions{
                     .nodes = 2,
                     .link_latency = std::chrono::microseconds(200),
                     .default_mode = dist::Mode::strict});

  auto vfs_a = std::make_shared<vfs::Vfs>();
  auto vfs_b = std::make_shared<vfs::Vfs>();
  for (auto& [v, node] :
       {std::pair{&vfs_a, 0}, std::pair{&vfs_b, 1}}) {
    ASSERT_FALSE((*v)->mkdir("/net"));
    ASSERT_FALSE((*v)->mount("/net", cluster.fs(
                                         static_cast<std::size_t>(node))));
  }

  // Node B runs the driver; the switch connects there.
  driver::OfDriver driver_b(vfs_b);
  sw::SwitchOptions opts;
  opts.datapath_id = 0x42;
  sw::Switch s("dp42", opts, network);
  s.add_port(1, MacAddress::from_u64(1), "eth1");
  s.add_port(2, MacAddress::from_u64(2), "eth2");
  s.connect(driver_b.listener().connect());

  auto settle = [&] {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver_b.poll() + s.pump() +
                         scheduler.run_until_idle();
      if (!work) break;
    }
  };
  settle();
  ASSERT_EQ(driver_b.connected_switches(), 1u);

  // Node A sees the switch directory that node B's driver created.
  netfs::NetDir net_a(vfs_a);
  auto names = net_a.switch_names();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(*names, std::vector<std::string>{"sw1"});

  // Node A's administrator writes and commits a flow, pure file I/O.
  FlowSpec spec;
  spec.match.dl_type = 0x0806;
  spec.actions = {Action::flood()};
  ASSERT_FALSE(net_a.switch_at("sw1").add_flow("arp", spec));
  settle();

  // It reached the hardware through node B's driver.
  ASSERT_EQ(s.table().size(), 1u);
  EXPECT_EQ(s.table().entries()[0].spec.match.dl_type, 0x0806);

  // And the reverse direction: hardware state surfaced by node B's driver
  // (counters, ports) is readable on node A.
  EXPECT_TRUE(*net_a.switch_at("sw1").connected());
  EXPECT_EQ(net_a.switch_at("sw1").port_names()->size(), 2u);
}

// Two controller nodes, each with its OWN driver and its own switch, over
// one replicated FS (the paper's full multi-machine deployment).  Each
// driver must pick a distinct directory name even though both count from
// 1, and flows written on either node reach the right hardware.
TEST(DistributedControllerIntegration, TwoDriversTwoNodesNoNameCollision) {
  net::Scheduler scheduler;
  net::Network network(scheduler);
  dist::Cluster cluster(
      scheduler,
      dist::ClusterOptions{.nodes = 2,
                           .link_latency = std::chrono::microseconds(100),
                           .default_mode = dist::Mode::strict});
  auto vfs_a = std::make_shared<vfs::Vfs>();
  auto vfs_b = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs_a->mkdir("/net"));
  ASSERT_FALSE(vfs_b->mkdir("/net"));
  ASSERT_FALSE(vfs_a->mount("/net", cluster.fs(0)));
  ASSERT_FALSE(vfs_b->mount("/net", cluster.fs(1)));

  driver::OfDriver driver_a(vfs_a);
  driver::OfDriver driver_b(vfs_b);

  sw::SwitchOptions oa;
  oa.datapath_id = 0xa;
  sw::Switch switch_a("dpa", oa, network);
  switch_a.add_port(1, MacAddress::from_u64(0xa1), "eth1");
  sw::SwitchOptions ob;
  ob.datapath_id = 0xb;
  sw::Switch switch_b("dpb", ob, network);
  switch_b.add_port(1, MacAddress::from_u64(0xb1), "eth1");

  auto settle = [&] {
    for (int round = 0; round < 80; ++round) {
      std::size_t work = driver_a.poll() + driver_b.poll() +
                         switch_a.pump() + switch_b.pump() +
                         scheduler.run_until_idle();
      if (!work) break;
    }
  };

  // Connect A first so its directory replicates before B names its own.
  switch_a.connect(driver_a.listener().connect());
  settle();
  switch_b.connect(driver_b.listener().connect());
  settle();

  // Two distinct directories; ids intact (no clobbering).
  netfs::NetDir net_a(vfs_a);
  auto names = net_a.switch_names();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 2u);
  EXPECT_EQ(*net_a.switch_at((*names)[0]).datapath_id(), 0xau);
  EXPECT_EQ(*net_a.switch_at((*names)[1]).datapath_id(), 0xbu);

  // A flow written on node A for switch B's directory reaches switch B
  // through node B's driver.
  std::string b_name = *driver_b.switch_name(0xb);
  FlowSpec spec;
  spec.match.tp_dst = 8080;
  spec.actions = {Action::output(1)};
  ASSERT_FALSE(net_a.switch_at(b_name).add_flow("via-a", spec));
  settle();
  ASSERT_EQ(switch_b.table().size(), 1u);
  EXPECT_EQ(switch_b.table().entries()[0].spec.match.tp_dst, 8080);
  EXPECT_EQ(switch_a.table().size(), 0u);  // only B got it
}

// Watches + distributed FS: a node-A watcher fires for a change that
// originated on node B (the §5.2 + §6 composition).
TEST(DistributedControllerIntegration, WatchFiresAcrossNodes) {
  net::Scheduler scheduler;
  dist::Cluster cluster(
      scheduler,
      dist::ClusterOptions{.nodes = 2,
                           .link_latency = std::chrono::microseconds(100),
                           .default_mode = dist::Mode::strict});
  auto vfs_a = std::make_shared<vfs::Vfs>();
  auto vfs_b = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs_a->mkdir("/net"));
  ASSERT_FALSE(vfs_b->mkdir("/net"));
  ASSERT_FALSE(vfs_a->mount("/net", cluster.fs(0)));
  ASSERT_FALSE(vfs_b->mount("/net", cluster.fs(1)));

  auto queue = std::make_shared<vfs::WatchQueue>();
  auto watch = vfs_a->watch("/net/switches", vfs::event::created, queue);
  ASSERT_TRUE(watch.ok());

  netfs::NetDir net_b(vfs_b);
  ASSERT_FALSE(net_b.add_switch("remote-switch"));
  scheduler.run_until_idle();

  auto event = queue->try_pop();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->name, "remote-switch");
}

}  // namespace
}  // namespace yanc
