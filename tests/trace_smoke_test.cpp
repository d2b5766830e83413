// End-to-end causal-tracing smoke test (ctest -L smoke): one traced
// packet-in must yield a complete parent-linked span chain —
// sw/packet_in -> driver/packet_in -> app/packet_in -> driver/commit ->
// sw/flow_mod — reconstructible from /yanc/.trace/by-id/<id>, plus a
// well-formed Chrome trace_event export.  Capture is driven the yanc
// way, through writes to /yanc/.trace/ctl, not by poking the Tracer API.
#include <gtest/gtest.h>

#include "yanc/apps/learning_switch.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/view/slicer.hpp"

namespace yanc::apps {
namespace {

/// Minimal controller harness: one switch, two hosts, a learning switch
/// application — the smallest topology where a packet-in causes a flow
/// install (the echo reply's packet-in hits a learned destination).
class TraceSmoke : public ::testing::Test {
 protected:
  TraceSmoke() : network(scheduler) {}

  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    auto trace_fs = vfs::mount_trace_fs(*vfs);
    ASSERT_TRUE(trace_fs.ok());
    driver = std::make_unique<driver::OfDriver>(vfs);
    obs::tracer().stop();
    obs::tracer().clear();
  }

  void TearDown() override {
    obs::tracer().stop();
    obs::tracer().clear();
  }

  sw::Switch* add_switch(std::uint64_t dpid, int ports = 3) {
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

  net::Host* add_host(const char* name, const char* mac, const char* ip,
                      sw::Switch* sw, std::uint16_t port) {
    hosts.push_back(std::make_unique<net::Host>(
        name, *MacAddress::parse(mac), *Ipv4Address::parse(ip), network));
    EXPECT_TRUE(network.add_link(*sw, port, *hosts.back(), 0).ok());
    return hosts.back().get();
  }

  void settle(const std::function<std::size_t()>& apps_poll = {}) {
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver->poll();
      for (auto& s : switches) work += s->pump();
      work += scheduler.run_until_idle();
      if (apps_poll) work += apps_poll();
      if (work == 0) break;
    }
  }

  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  net::Scheduler scheduler;
  net::Network network;
  std::unique_ptr<driver::OfDriver> driver;
  std::vector<std::unique_ptr<sw::Switch>> switches;
  std::vector<std::unique_ptr<net::Host>> hosts;
};

TEST_F(TraceSmoke, OneTracedPacketInYieldsParentLinkedChain) {
  auto* s1 = add_switch(1);
  auto* h1 = add_host("h1", "0a:00:00:00:00:01", "10.0.0.1", s1, 1);
  auto* h2 = add_host("h2", "0a:00:00:00:00:02", "10.0.0.2", s1, 2);
  settle();

  LearningSwitch l2(vfs);
  ASSERT_TRUE(l2.poll().ok());
  auto apps_poll = [&]() -> std::size_t {
    auto n = l2.poll();
    return n ? *n : 0;
  };

  // Arm capture through the control file, as an operator would.
  ASSERT_FALSE(vfs->write_file("/yanc/.trace/ctl", "start"));

  h1->ping(h2->ip());
  settle(apps_poll);
  ASSERT_EQ(h1->echo_replies_received(), 1u);
  ASSERT_GE(l2.flows_installed(), 1u);

  ASSERT_FALSE(vfs->write_file("/yanc/.trace/ctl", "stop"));

  // Every side-band handoff must have been claimed: nothing leaked on
  // the wire or path correlation maps once the pipeline drained.
  EXPECT_EQ(obs::tracer().inflight(), 0u);

  // Reconstruct: scan the captured ids for the packet-in whose handling
  // installed a flow, and assert the full chain with parent-linked
  // indentation (two spaces per tree depth in the by-id rendering).
  auto ids = vfs->readdir("/yanc/.trace/by-id");
  ASSERT_TRUE(ids.ok());
  ASSERT_FALSE(ids->empty());
  std::string chain;
  for (const auto& e : *ids) {
    auto rendered = vfs->read_file("/yanc/.trace/by-id/" + e.name);
    ASSERT_TRUE(rendered.ok()) << e.name;
    if (rendered->find("sw/packet_in") != std::string::npos &&
        rendered->find("driver/commit span=") != std::string::npos) {
      chain = *rendered;
      break;
    }
  }
  ASSERT_FALSE(chain.empty())
      << "no captured trace links a packet-in to a flow commit";
  // Root anchor, then one child per pipeline stage, each one level deeper.
  EXPECT_NE(chain.find("sw/packet_in span="), std::string::npos) << chain;
  EXPECT_NE(chain.find("\n  driver/packet_in span="), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("\n    app/packet_in span="), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("\n      driver/commit span="), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("\n        sw/flow_mod span="), std::string::npos)
      << chain;
  EXPECT_NE(chain.find("driver/commit_ack"), std::string::npos) << chain;
  // Stage spans carry the queue/service split the attribution needs.
  EXPECT_NE(chain.find("queue="), std::string::npos) << chain;
  EXPECT_NE(chain.find("dur="), std::string::npos) << chain;

  // The export is valid Chrome trace_event JSON covering the same spans.
  auto json = vfs->read_file("/yanc/.trace/export.json");
  ASSERT_TRUE(json.ok());
  ASSERT_GE(json->size(), 3u);
  EXPECT_EQ(json->front(), '{');
  EXPECT_EQ(json->substr(json->size() - 3), "]}\n");
  EXPECT_NE(json->find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json->find("packet_in"), std::string::npos);
  EXPECT_NE(json->find("flow_mod"), std::string::npos);
}

// A view re-delivers a packet-in into its own events/: the trace the
// driver handed to the view continues in the view app's copy.
TEST_F(TraceSmoke, ViewForwardedPacketInKeepsDriverTrace) {
  auto* s1 = add_switch(1);
  settle();
  view::SliceConfig cfg;
  cfg.name = "tenant";  // the whole network
  view::Slicer slicer(vfs, "/net", cfg);
  ASSERT_FALSE(slicer.init());
  netfs::NetDir net(vfs);
  auto direct = net.open_events("monitor");
  auto viewed = net.view("tenant").open_events("app");
  ASSERT_TRUE(direct.ok() && viewed.ok());

  ASSERT_FALSE(vfs->write_file("/yanc/.trace/ctl", "start"));
  auto frame = net::build_ethernet(MacAddress::from_u64(2),
                                   MacAddress::from_u64(1), 0x1234, {7});
  s1->handle_frame(2, frame);
  settle();
  ASSERT_TRUE(slicer.poll().ok());
  auto master_copy = direct->drain();
  auto view_copy = viewed->drain();
  ASSERT_FALSE(vfs->write_file("/yanc/.trace/ctl", "stop"));

  ASSERT_TRUE(master_copy.ok() && view_copy.ok());
  ASSERT_EQ(master_copy->size(), 1u);
  ASSERT_EQ(view_copy->size(), 1u);
  ASSERT_TRUE((*master_copy)[0].trace);
  EXPECT_EQ((*view_copy)[0].trace.trace_id, (*master_copy)[0].trace.trace_id);
  EXPECT_EQ(obs::tracer().inflight(), 0u);
}

}  // namespace
}  // namespace yanc::apps
