// Tests for the yanc file system: schema semantics (§3), the Figure 2/3
// directory layouts, typed-file validation, the version commit protocol,
// and the typed handles API.
#include <gtest/gtest.h>

#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"

namespace yanc::netfs {
namespace {

using vfs::Credentials;
using vfs::Vfs;

std::error_code err(Errc e) { return make_error_code(e); }

class YancFsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fs = mount_yanc_fs(*vfs);
    ASSERT_TRUE(fs.ok());
    yfs = *fs;
  }
  std::shared_ptr<Vfs> vfs = std::make_shared<Vfs>();
  std::shared_ptr<YancFs> yfs;
};

// --- FIG-2: the /net hierarchy ---------------------------------------------

TEST_F(YancFsTest, Fig2Hierarchy_RootLayout) {
  auto entries = vfs->readdir("/net");
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : *entries) names.push_back(e.name);
  // Fig. 2 shows hosts/switches/views; events/ realizes §3.5 and
  // middleboxes/ realizes §7.2 — both additions the paper itself calls for.
  EXPECT_EQ(names, (std::vector<std::string>{"events", "hosts",
                                             "middleboxes", "switches",
                                             "views"}));
}

TEST_F(YancFsTest, Fig2Hierarchy_ViewsNestRecursively) {
  // "# mkdir views/new_view will create the directory new_view, but also
  // the hosts, switches, and views subdirectories." (§3.1)
  ASSERT_FALSE(vfs->mkdir("/net/views/management-net"));
  for (const char* sub : {"hosts", "switches", "views", "events"}) {
    auto st = vfs->stat(std::string("/net/views/management-net/") + sub);
    ASSERT_TRUE(st.ok()) << sub;
    EXPECT_TRUE(st->is_dir());
  }
  // And views nest again (Fig. 2 shows views inside views).
  ASSERT_FALSE(vfs->mkdir("/net/views/management-net/views/inner"));
  EXPECT_TRUE(
      vfs->stat("/net/views/management-net/views/inner/switches")->is_dir());
}

TEST_F(YancFsTest, Fig2Hierarchy_SwitchesAppearUnderSwitches) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw2"));
  auto entries = vfs->readdir("/net/switches");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

// --- FIG-3: switch and flow layouts -----------------------------------------

TEST_F(YancFsTest, Fig3Layout_Switch) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  // Directories from Fig. 3: counters/, flows/, ports/.
  for (const char* d : {"counters", "flows", "ports"})
    EXPECT_TRUE(vfs->stat(std::string("/net/switches/sw1/") + d)->is_dir())
        << d;
  // Files from Fig. 3: actions, capabilities, id, num_buffers.
  for (const char* f : {"actions", "capabilities", "id", "num_buffers"})
    EXPECT_TRUE(vfs->stat(std::string("/net/switches/sw1/") + f)->is_file())
        << f;
  EXPECT_EQ(*vfs->read_file("/net/switches/sw1/num_buffers"), "0");
}

TEST_F(YancFsTest, Fig3Layout_Flow) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/arp_flow"));
  const std::string flow = "/net/switches/sw1/flows/arp_flow";
  // Fig. 3: counters/, priority, timeout, version auto-exist.
  EXPECT_TRUE(vfs->stat(flow + "/counters")->is_dir());
  EXPECT_TRUE(vfs->stat(flow + "/priority")->is_file());
  EXPECT_TRUE(vfs->stat(flow + "/idle_timeout")->is_file());
  EXPECT_TRUE(vfs->stat(flow + "/version")->is_file());
  EXPECT_EQ(*vfs->read_file(flow + "/version"), "0");
  EXPECT_EQ(*vfs->read_file(flow + "/priority"), "32768");
  // match.* / action.* are created on demand (absence = wildcard).
  EXPECT_EQ(vfs->stat(flow + "/match.dl_type").error(), err(Errc::not_found));
  ASSERT_FALSE(vfs->write_file(flow + "/match.dl_type", "0x0806"));
  ASSERT_FALSE(vfs->write_file(flow + "/match.dl_src", "aa:bb:cc:dd:ee:ff"));
  ASSERT_FALSE(vfs->write_file(flow + "/action.out", "2"));
  EXPECT_EQ(*vfs->read_file(flow + "/match.dl_type"), "0x0806");
}

TEST_F(YancFsTest, Fig3Layout_PortWithCounters) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/1"));
  const std::string port = "/net/switches/sw1/ports/1";
  for (const char* f :
       {"port_no", "hw_addr", "config.port_down", "state.link_down"})
    EXPECT_TRUE(vfs->stat(port + "/" + f)->is_file()) << f;
  EXPECT_TRUE(vfs->stat(port + "/counters/rx_packets")->is_file());
  EXPECT_EQ(*vfs->read_file(port + "/counters/tx_bytes"), "0");
}

// --- schema enforcement ------------------------------------------------------

TEST_F(YancFsTest, MkdirOutsideCollectionsRejected) {
  // The root and object dirs are not collections.
  EXPECT_EQ(vfs->mkdir("/net/random"), err(Errc::not_permitted));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  EXPECT_EQ(vfs->mkdir("/net/switches/sw1/custom"), err(Errc::not_permitted));
  EXPECT_EQ(vfs->mkdir("/net/switches/sw1/counters/deep"),
            err(Errc::not_permitted));
}

TEST_F(YancFsTest, StrictFilesRejectUnknownNames) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  EXPECT_EQ(vfs->write_file("/net/switches/sw1/bogus", "x"),
            err(Errc::not_permitted));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f1"));
  EXPECT_EQ(vfs->write_file("/net/switches/sw1/flows/f1/match.bogus", "x"),
            err(Errc::not_permitted));
  // Collections hold only objects, not files.
  EXPECT_EQ(vfs->write_file("/net/switches/readme", "x"),
            err(Errc::not_permitted));
}

TEST_F(YancFsTest, TypedWritesValidated) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f"));
  const std::string f = "/net/switches/sw1/flows/f";
  // priority is u16.
  EXPECT_EQ(vfs->write_file(f + "/priority", "99999"),
            err(Errc::invalid_argument));
  EXPECT_EQ(vfs->write_file(f + "/priority", "abc"),
            err(Errc::invalid_argument));
  EXPECT_FALSE(vfs->write_file(f + "/priority", "100"));
  EXPECT_FALSE(vfs->write_file(f + "/priority", "100\n"));  // echo-style
  // match.nw_src takes CIDR notation (§3.4).
  EXPECT_FALSE(vfs->write_file(f + "/match.nw_src", "10.0.0.0/8"));
  EXPECT_EQ(vfs->write_file(f + "/match.nw_src", "10.0.0.0/40"),
            err(Errc::invalid_argument));
  EXPECT_EQ(vfs->write_file(f + "/match.nw_src", "not-an-ip"),
            err(Errc::invalid_argument));
  // match.dl_src is a MAC.
  EXPECT_EQ(vfs->write_file(f + "/match.dl_src", "10.0.0.1"),
            err(Errc::invalid_argument));
  // action.out accepts numbers and reserved names, multi-valued.
  EXPECT_FALSE(vfs->write_file(f + "/action.out", "1 2 controller"));
  EXPECT_EQ(vfs->write_file(f + "/action.out", "nowhere"),
            err(Errc::invalid_argument));
  // A rejected write can never leave a malformed value behind: write_file
  // replaces content atomically, so validation failure keeps the previous
  // valid value — no truncate-then-fail window wiping the config.
  ASSERT_FALSE(vfs->write_file(f + "/match.dl_type", "0x0800"));
  EXPECT_EQ(vfs->write_file(f + "/match.dl_type", "junk"),
            err(Errc::invalid_argument));
  EXPECT_EQ(*vfs->read_file(f + "/match.dl_type"), "0x0800");
  auto spec = read_flow(*vfs, f);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(spec->match.dl_type.has_value());
  EXPECT_EQ(*spec->match.dl_type, 0x0800);
}

TEST_F(YancFsTest, PortConfigFlagValidation) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/2"));
  // "a port can be brought down by echo 1 > port_2/config.port_down" (§3.1)
  EXPECT_FALSE(
      vfs->write_file("/net/switches/sw1/ports/2/config.port_down", "1\n"));
  EXPECT_EQ(
      vfs->write_file("/net/switches/sw1/ports/2/config.port_down", "maybe"),
      err(Errc::invalid_argument));
}

TEST_F(YancFsTest, RecursiveRmdirOfObjects) {
  // "the rmdir() call for switches is automatically recursive" (§3.2)
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f1"));
  ASSERT_FALSE(vfs->write_file("/net/switches/sw1/flows/f1/action.out", "1"));
  EXPECT_FALSE(vfs->rmdir("/net/switches/sw1"));
  EXPECT_EQ(vfs->stat("/net/switches/sw1").error(), err(Errc::not_found));
}

TEST_F(YancFsTest, FixedDirsProtected) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  EXPECT_EQ(vfs->rmdir("/net/switches/sw1/flows"), err(Errc::not_permitted));
  EXPECT_EQ(vfs->rmdir("/net/switches"), err(Errc::not_permitted));
  EXPECT_EQ(vfs->rename("/net/switches/sw1/ports", "/net/switches/sw1/px"),
            err(Errc::not_permitted));
}

TEST_F(YancFsTest, SwitchRenameAllowedWithinCollection) {
  // "Switches can be created, deleted, and renamed with the standard file
  // system calls" (§3.2).
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->write_file("/net/switches/sw1/id", "0xab"));
  ASSERT_FALSE(vfs->rename("/net/switches/sw1", "/net/switches/edge-1"));
  EXPECT_EQ(*vfs->read_file("/net/switches/edge-1/id"), "0xab");
  // But a switch cannot move into views/ (type mismatch).
  EXPECT_EQ(vfs->rename("/net/switches/edge-1", "/net/views/edge-1"),
            err(Errc::not_permitted));
  // And typed files cannot be renamed (their name is their type).
  EXPECT_EQ(vfs->rename("/net/switches/edge-1/id",
                        "/net/switches/edge-1/capabilities"),
            err(Errc::not_permitted));
}

TEST_F(YancFsTest, FlowRenameAcrossSwitchesAllowed) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw2"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f"));
  EXPECT_FALSE(vfs->rename("/net/switches/sw1/flows/f",
                           "/net/switches/sw2/flows/f"));
  EXPECT_TRUE(vfs->stat("/net/switches/sw2/flows/f")->is_dir());
}

TEST_F(YancFsTest, DeletingMatchFileWidensToWildcard) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f"));
  const std::string f = "/net/switches/sw1/flows/f";
  ASSERT_FALSE(vfs->write_file(f + "/match.tp_dst", "22"));
  ASSERT_FALSE(vfs->unlink(f + "/match.tp_dst"));
  auto spec = read_flow(*vfs, f);
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->match.tp_dst.has_value());
}

// --- peer symlinks (§3.3) ---------------------------------------------------

TEST_F(YancFsTest, PeerSymlinkTopology) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw2"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw2/ports/7"));
  ASSERT_FALSE(vfs->symlink("/net/switches/sw2/ports/7",
                            "/net/switches/sw1/ports/1/peer"));
  EXPECT_EQ(*vfs->readlink("/net/switches/sw1/ports/1/peer"),
            "/net/switches/sw2/ports/7");
  // Following the link lands on the peer port's files.
  EXPECT_TRUE(vfs->stat("/net/switches/sw1/ports/1/peer/hw_addr")->is_file());
}

TEST_F(YancFsTest, PeerMustPointAtAPort) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/1"));
  // "It is currently an error to point this symbolic link at anything
  // other than a port." (§3.3)
  EXPECT_EQ(vfs->symlink("/net/switches/sw2",
                         "/net/switches/sw1/ports/1/peer"),
            err(Errc::invalid_argument));
  // Other symlink names are not allowed in a port dir at all.
  EXPECT_EQ(vfs->symlink("/net/switches/sw2/ports/7",
                         "/net/switches/sw1/ports/1/buddy"),
            err(Errc::not_permitted));
}

// --- events (§3.5) -----------------------------------------------------------

TEST_F(YancFsTest, EventBufferLifecycle) {
  ASSERT_FALSE(vfs->mkdir("/net/events/router"));
  // The driver deposits a packet-in as a directory of files.
  ASSERT_FALSE(vfs->mkdir("/net/events/router/pkt_0000001"));
  const std::string pkt = "/net/events/router/pkt_0000001";
  EXPECT_TRUE(vfs->stat(pkt + "/data")->is_file());
  ASSERT_FALSE(vfs->write_file(pkt + "/datapath", "sw1"));
  ASSERT_FALSE(vfs->write_file(pkt + "/in_port", "3"));
  ASSERT_FALSE(vfs->write_file(pkt + "/data", std::string("\x01\x02", 2)));
  // The application consumes it with rmdir (recursive).
  EXPECT_FALSE(vfs->rmdir(pkt));
}

// --- middleboxes (§7.2) ------------------------------------------------------

TEST_F(YancFsTest, MiddleboxObjectLayout) {
  ASSERT_FALSE(vfs->mkdir("/net/middleboxes/fw1"));
  for (const char* f : {"kind", "vendor", "instances", "connected"})
    EXPECT_TRUE(vfs->stat(std::string("/net/middleboxes/fw1/") + f)
                    ->is_file())
        << f;
  EXPECT_TRUE(vfs->stat("/net/middleboxes/fw1/state")->is_dir());
  ASSERT_FALSE(vfs->write_file("/net/middleboxes/fw1/kind", "firewall"));
  // State is unstructured: the middlebox driver stores whatever records
  // the box exposes.
  ASSERT_FALSE(vfs->write_file("/net/middleboxes/fw1/state/conn-10.0.0.1",
                               "established tcp 10.0.0.1:4431"));
  // The attachment link must point at a port, like peer (§3.3).
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/3"));
  EXPECT_FALSE(vfs->symlink("/net/switches/sw1/ports/3",
                            "/net/middleboxes/fw1/attachment"));
  EXPECT_EQ(vfs->symlink("/net/switches/sw1",
                         "/net/middleboxes/fw2x/attachment"),
            err(Errc::not_found));
}

TEST_F(YancFsTest, MiddleboxStateMigratesWithMv) {
  // §7.2: "we can use command line utilities such as cp or mv to move
  // state around rather than custom protocols" (Split/Merge-style elastic
  // scaling).
  ASSERT_FALSE(vfs->mkdir("/net/middleboxes/fw1"));
  ASSERT_FALSE(vfs->mkdir("/net/middleboxes/fw2"));
  for (int c = 0; c < 4; ++c)
    ASSERT_FALSE(vfs->write_file(
        "/net/middleboxes/fw1/state/conn" + std::to_string(c),
        "flow-record-" + std::to_string(c)));
  // Scale out: move half the connection state to the new instance.
  ASSERT_FALSE(vfs->rename("/net/middleboxes/fw1/state/conn2",
                           "/net/middleboxes/fw2/state/conn2"));
  ASSERT_FALSE(vfs->rename("/net/middleboxes/fw1/state/conn3",
                           "/net/middleboxes/fw2/state/conn3"));
  EXPECT_EQ(vfs->readdir("/net/middleboxes/fw1/state")->size(), 2u);
  EXPECT_EQ(vfs->readdir("/net/middleboxes/fw2/state")->size(), 2u);
  EXPECT_EQ(*vfs->read_file("/net/middleboxes/fw2/state/conn3"),
            "flow-record-3");
  // Scale in: removing an instance removes its subtree (recursive rmdir).
  EXPECT_FALSE(vfs->rmdir("/net/middleboxes/fw2"));
}

// --- version commit protocol (§3.4) ------------------------------------------

TEST_F(YancFsTest, VersionCommitSignalsWatchers) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/flows/f"));
  const std::string f = "/net/switches/sw1/flows/f";
  auto q = std::make_shared<vfs::WatchQueue>();
  auto watch = vfs->watch(f + "/version", vfs::event::modified, q);
  ASSERT_TRUE(watch.ok());
  // Field writes do not touch the version file.
  ASSERT_FALSE(vfs->write_file(f + "/action.out", "2"));
  EXPECT_FALSE(q->try_pop().has_value());
  // Commit bumps it and the watcher fires.
  auto v = commit_flow(*vfs, f);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1u);
  EXPECT_TRUE(q->try_pop().has_value());
}

// --- flowio round trip ---------------------------------------------------------

class FlowIoTest : public YancFsTest {
 protected:
  void SetUp() override {
    YancFsTest::SetUp();
    ASSERT_FALSE(vfs->mkdir("/net/switches/sw1"));
  }
  const std::string flow_dir = "/net/switches/sw1/flows/f";
};

TEST_F(FlowIoTest, WriteReadRoundTrip) {
  flow::FlowSpec spec;
  spec.match.in_port = 3;
  spec.match.dl_type = 0x0800;
  spec.match.nw_src = *Cidr::parse("10.1.0.0/16");
  spec.match.tp_dst = 22;
  spec.actions = {flow::Action{flow::ActionKind::set_dl_dst,
                               *MacAddress::parse("02:00:00:00:00:01")},
                  flow::Action::output(2), flow::Action::output(5)};
  spec.priority = 100;
  spec.idle_timeout = 30;
  spec.cookie = 0xdeadbeef;

  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->match, spec.match);
  EXPECT_EQ(got->actions, spec.actions);
  EXPECT_EQ(got->priority, 100);
  EXPECT_EQ(got->idle_timeout, 30);
  EXPECT_EQ(got->cookie, 0xdeadbeefu);
  EXPECT_EQ(got->version, 1u);  // committed once
}

TEST_F(FlowIoTest, RewriteRemovesStaleFields) {
  flow::FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {flow::Action::output(1)};
  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));

  flow::FlowSpec wider;
  wider.actions = {flow::Action::flood()};
  ASSERT_FALSE(write_flow(*vfs, flow_dir, wider));
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->match.tp_dst.has_value());  // stale match removed
  ASSERT_EQ(got->actions.size(), 1u);
  EXPECT_EQ(got->actions[0].port(), flow::port_no::flood);
  EXPECT_EQ(got->version, 2u);
}

TEST_F(FlowIoTest, EmptyActionsMeansDrop) {
  flow::FlowSpec spec;  // no actions
  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));
  EXPECT_EQ(*vfs->read_file(flow_dir + "/action.drop"), "1");
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->actions.empty());
}

TEST_F(FlowIoTest, DefaultsWhenFilesAbsent) {
  ASSERT_FALSE(vfs->mkdir(flow_dir));
  // Remove the auto-created priority file: reader falls back to default.
  ASSERT_FALSE(vfs->unlink(flow_dir + "/priority"));
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->priority, flow::kDefaultPriority);
  EXPECT_TRUE(got->match.is_match_all());
}

TEST_F(FlowIoTest, DeletedFlowIsNotFound) {
  flow::FlowSpec spec;
  spec.actions = {flow::Action::output(1)};
  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));
  ASSERT_FALSE(vfs->rmdir(flow_dir));
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error(), make_error_code(Errc::not_found));
}

TEST_F(FlowIoTest, EmptyFieldFileReadsAsUnset) {
  flow::FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.priority = 100;
  spec.actions = {flow::Action::output(1)};
  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));
  ASSERT_FALSE(vfs->write_file(flow_dir + "/match.tp_dst", ""));
  ASSERT_FALSE(vfs->write_file(flow_dir + "/priority", ""));
  auto got = read_flow(*vfs, flow_dir);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->match.tp_dst.has_value());  // wildcard
  EXPECT_EQ(got->priority, flow::kDefaultPriority);
  EXPECT_EQ(got->version, 1u);
}

// The reader lists the directory first, so a flow dir another user may
// traverse but not list is unreadable as a whole, although each field
// file on its own is readable by path.
TEST_F(FlowIoTest, TraversableButUnlistableDirIsDenied) {
  flow::FlowSpec spec;
  spec.actions = {flow::Action::output(1)};
  ASSERT_FALSE(write_flow(*vfs, flow_dir, spec));
  ASSERT_FALSE(vfs->chmod(flow_dir, 0711));
  const auto other = vfs::Credentials::user(1000, 1000);
  ASSERT_TRUE(vfs->read_file(flow_dir + "/version", other).ok());
  auto got = read_flow(*vfs, flow_dir, other);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error(), make_error_code(Errc::access_denied));
}

TEST_F(FlowIoTest, StatsRoundTrip) {
  ASSERT_FALSE(vfs->mkdir(flow_dir));
  ASSERT_FALSE(write_flow_stats(*vfs, flow_dir, {123, 45678}));
  auto stats = read_flow_stats(*vfs, flow_dir);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->packets, 123u);
  EXPECT_EQ(stats->bytes, 45678u);
}

// --- typed handles ---------------------------------------------------------------

class HandlesTest : public YancFsTest {
 protected:
  NetDir net() { return NetDir(vfs); }
};

TEST_F(HandlesTest, SwitchLifecycle) {
  NetDir n = net();
  ASSERT_FALSE(n.add_switch("sw1"));
  ASSERT_FALSE(n.add_switch("sw2"));
  auto names = n.switch_names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"sw1", "sw2"}));

  auto sw = n.switch_at("sw1");
  EXPECT_TRUE(sw.exists());
  ASSERT_FALSE(sw.set_datapath_id(0x42));
  EXPECT_EQ(*sw.datapath_id(), 0x42u);
  ASSERT_FALSE(sw.set_connected(true));
  EXPECT_TRUE(*sw.connected());

  ASSERT_FALSE(n.remove_switch("sw2"));
  EXPECT_FALSE(n.switch_at("sw2").exists());
}

TEST_F(HandlesTest, PortsAndPeers) {
  NetDir n = net();
  ASSERT_FALSE(n.add_switch("sw1"));
  ASSERT_FALSE(n.add_switch("sw2"));
  auto sw1 = n.switch_at("sw1");
  auto sw2 = n.switch_at("sw2");
  ASSERT_FALSE(sw1.add_port(1, *MacAddress::parse("02:00:00:00:01:01"),
                            "sw1-eth1"));
  ASSERT_FALSE(sw2.add_port(2, *MacAddress::parse("02:00:00:00:02:02"),
                            "sw2-eth2"));
  auto p1 = sw1.port_at(1);
  EXPECT_EQ(*p1.port_no(), 1u);
  EXPECT_EQ(p1.hw_addr()->to_string(), "02:00:00:00:01:01");
  ASSERT_FALSE(p1.set_peer("/net/switches/sw2/ports/2"));
  EXPECT_EQ(*p1.peer(), "/net/switches/sw2/ports/2");
  ASSERT_FALSE(p1.clear_peer());
  EXPECT_EQ(p1.peer().error(), err(Errc::not_found));
}

TEST_F(HandlesTest, FlowsViaHandles) {
  NetDir n = net();
  ASSERT_FALSE(n.add_switch("sw1"));
  auto sw = n.switch_at("sw1");
  flow::FlowSpec spec;
  spec.match.dl_type = 0x0806;
  spec.actions = {flow::Action::flood()};
  ASSERT_FALSE(sw.add_flow("arp", spec));
  auto names = sw.flow_names();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"arp"});
  auto got = sw.flow_at("arp").read();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->match.dl_type, 0x0806);
  ASSERT_FALSE(sw.remove_flow("arp"));
  EXPECT_FALSE(sw.flow_at("arp").exists());
}

TEST_F(HandlesTest, HostsWithLocation) {
  NetDir n = net();
  ASSERT_FALSE(n.add_switch("sw1"));
  ASSERT_FALSE(n.switch_at("sw1").add_port(
      1, *MacAddress::parse("02:00:00:00:01:01"), "eth1"));
  ASSERT_FALSE(n.add_host("h1", *MacAddress::parse("0a:00:00:00:00:01"),
                          *Ipv4Address::parse("10.0.0.1")));
  auto h = n.host_at("h1");
  EXPECT_EQ(h.ip()->to_string(), "10.0.0.1");
  ASSERT_FALSE(h.set_location("/net/switches/sw1/ports/1"));
  EXPECT_EQ(*h.location(), "/net/switches/sw1/ports/1");
}

TEST_F(HandlesTest, ViewsNestAsNetDirs) {
  NetDir n = net();
  ASSERT_FALSE(n.create_view("http"));
  NetDir v = n.view("http");
  ASSERT_FALSE(v.add_switch("vsw"));
  EXPECT_TRUE(v.switch_at("vsw").exists());
  // The view's switch is not a master switch.
  auto master = n.switch_names();
  ASSERT_TRUE(master.ok());
  EXPECT_TRUE(master->empty());
  // Views enumerate.
  EXPECT_EQ(*n.view_names(), std::vector<std::string>{"http"});
}

TEST_F(HandlesTest, EventBufferDrain) {
  NetDir n = net();
  auto buf = n.open_events("router");
  ASSERT_TRUE(buf.ok());
  // Simulate the driver depositing two packet-ins.
  for (int i = 0; i < 2; ++i) {
    std::string pkt = buf->path() + "/pkt_" + std::to_string(i);
    ASSERT_FALSE(vfs->mkdir(pkt));
    ASSERT_FALSE(vfs->write_file(pkt + "/datapath", "sw1"));
    ASSERT_FALSE(vfs->write_file(pkt + "/in_port", std::to_string(10 + i)));
    ASSERT_FALSE(vfs->write_file(pkt + "/data", "payload"));
  }
  auto events = buf->drain();
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].in_port, 10);
  EXPECT_EQ((*events)[1].in_port, 11);
  EXPECT_EQ((*events)[0].data, "payload");
  EXPECT_TRUE(buf->pending()->empty());
}

TEST_F(HandlesTest, EventBufferWatch) {
  NetDir n = net();
  auto buf = n.open_events("app");
  ASSERT_TRUE(buf.ok());
  auto q = std::make_shared<vfs::WatchQueue>();
  auto watch = buf->watch(q);
  ASSERT_TRUE(watch.ok());
  ASSERT_FALSE(vfs->mkdir(buf->path() + "/pkt_1"));
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->name, "pkt_1");
}

// --- validate_field unit coverage (parameterized) ----------------------------

struct FieldCase {
  FieldType type;
  const char* value;
  bool ok;
};

class ValidateFieldTest : public ::testing::TestWithParam<FieldCase> {};

TEST_P(ValidateFieldTest, Validates) {
  const auto& c = GetParam();
  EXPECT_EQ(!validate_field(c.type, c.value), c.ok)
      << "value: " << c.value;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ValidateFieldTest,
    ::testing::Values(
        FieldCase{FieldType::u64, "184467", true},
        FieldCase{FieldType::u64, "-1", false},
        FieldCase{FieldType::u16, "65535", true},
        FieldCase{FieldType::u16, "65536", false},
        FieldCase{FieldType::u8, "255", true},
        FieldCase{FieldType::u8, "256", false},
        FieldCase{FieldType::flag, "0", true},
        FieldCase{FieldType::flag, "1\n", true},
        FieldCase{FieldType::flag, "2", false},
        FieldCase{FieldType::hex64, "0xdeadbeef", true},
        FieldCase{FieldType::hex64, "xyz", false},
        FieldCase{FieldType::hex16, "0xffff", true},
        FieldCase{FieldType::hex16, "0x10000", false},
        FieldCase{FieldType::mac, "02:00:00:00:00:01", true},
        FieldCase{FieldType::mac, "02:00:00:00:00", false},
        FieldCase{FieldType::ipv4, "192.168.0.1", true},
        FieldCase{FieldType::ipv4, "192.168.0.256", false},
        FieldCase{FieldType::cidr, "10.0.0.0/8", true},
        FieldCase{FieldType::cidr, "10.0.0.0/83", false},
        FieldCase{FieldType::port_ref, "controller", true},
        FieldCase{FieldType::port_ref, "1 2 flood", true},
        FieldCase{FieldType::port_ref, "", false},
        FieldCase{FieldType::port_ref, "seven", false},
        FieldCase{FieldType::enqueue, "2:1", true},
        FieldCase{FieldType::enqueue, "2", false},
        FieldCase{FieldType::text, "hello world", true},
        FieldCase{FieldType::text, "two\nlines", false},
        FieldCase{FieldType::blob, "\x01\x02\x03", true}));

}  // namespace
}  // namespace yanc::netfs
