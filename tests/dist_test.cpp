// Tests for the distributed file system (§6): transport behaviour,
// strict/eventual replication, per-subtree consistency via xattr,
// conflicts, partitions, and the flagship scenario — a flow written on one
// controller node appearing on another.
#include <gtest/gtest.h>

#include "yanc/dist/replicated.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/netfs/handles.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/util/rng.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::dist {
namespace {

using flow::Action;
using flow::FlowSpec;

Result<vfs::NodeId> resolve(ReplicatedYancFs& fs, const std::string& path) {
  vfs::NodeId id = fs.root();
  for (const auto& comp : split_nonempty(path, '/')) {
    auto next = fs.lookup(id, comp);
    if (!next) return next.error();
    id = *next;
  }
  return id;
}

/// Every replica link loses every message until
/// attach_faults(transport, nullptr) detaches the injector.
void drop_everything(Transport& transport) {
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(transport, inj);
}

void anti_entropy(Cluster& cluster, net::Scheduler& scheduler, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(TransportTest, DeliversWithLatency) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(5));
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto&) {});
  ASSERT_TRUE(transport.send(b, a, {'h', 'i'}));
  EXPECT_TRUE(received.empty());  // not yet: latency
  scheduler.run_for(std::chrono::milliseconds(4));
  EXPECT_TRUE(received.empty());
  scheduler.run_for(std::chrono::milliseconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hi");
  EXPECT_EQ(transport.messages_sent(), 1u);
  EXPECT_EQ(transport.bytes_sent(), 2u);
}

TEST(TransportTest, PartitionQueuesAndHealsInOrder) {
  net::Scheduler scheduler;
  Transport transport(scheduler, {});
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto&) {});
  transport.set_partitioned(a, b, true);
  ASSERT_TRUE(transport.send(b, a, {'1'}));
  ASSERT_TRUE(transport.send(b, a, {'2'}));
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
  transport.set_partitioned(a, b, false);
  scheduler.run_until_idle();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], "1");
  EXPECT_EQ(received[1], "2");
}

TEST(TransportTest, AsymmetricPartitionBlocksOneDirection) {
  net::Scheduler scheduler;
  Transport transport(scheduler, {});
  std::vector<std::string> at_a, at_b;
  auto a = transport.join([&](auto, const auto& m) {
    at_a.push_back(std::string(m.begin(), m.end()));
  });
  auto b = transport.join([&](auto, const auto& m) {
    at_b.push_back(std::string(m.begin(), m.end()));
  });
  transport.set_partitioned_oneway(a, b, true);
  EXPECT_TRUE(transport.partitioned(a, b));
  EXPECT_FALSE(transport.partitioned(b, a));
  ASSERT_TRUE(transport.send(a, b, {'x'}));  // queued behind the cut
  ASSERT_TRUE(transport.send(b, a, {'y'}));  // reverse path stays alive
  scheduler.run_until_idle();
  EXPECT_TRUE(at_b.empty());
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], "y");
  transport.set_partitioned_oneway(a, b, false);
  scheduler.run_until_idle();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], "x");
}

// Regression (ISSUE 7): a message held back by a delay fault must not be
// delivered after its link is partitioned — the delayed copy would
// resurrect on a link the test already declared dead.
TEST(TransportTest, DelayedMessageDroppedWhenPartitionOvertakesIt) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(1));
  std::vector<std::string> received;
  auto a = transport.join([&](auto, const auto&) {});
  auto b = transport.join([&](auto, const auto& m) {
    received.push_back(std::string(m.begin(), m.end()));
  });
  obs::Registry registry;
  transport.bind_metrics(registry);
  transport.set_fault_filter([](auto, auto, std::vector<std::uint8_t>&) {
    Transport::LinkFate fate;
    fate.extra_delay = std::chrono::milliseconds(50);
    return fate;
  });
  ASSERT_TRUE(transport.send(a, b, {'z'}));
  transport.set_fault_filter(nullptr);
  // The partition lands while the delayed message is still in flight.
  transport.set_partitioned(a, b, true);
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(transport.send_failures(), 1u);
  EXPECT_EQ(*registry.value_of("dist/send_fail_total"), "1");
  // Healing afterwards must not replay it either: it died on the wire.
  transport.set_partitioned(a, b, false);
  scheduler.run_until_idle();
  EXPECT_TRUE(received.empty());
}

// Regression (ISSUE 7): in-flight traffic addressed to a node that left
// (or re-registered) is dropped, not delivered to the next incarnation.
TEST(TransportTest, InFlightMessageDroppedAcrossLeaveAndRejoin) {
  net::Scheduler scheduler;
  Transport transport(scheduler, std::chrono::milliseconds(5));
  std::vector<std::string> first_life, second_life;
  auto a = transport.join([&](auto, const auto&) {});
  auto b = transport.join([&](auto, const auto& m) {
    first_life.push_back(std::string(m.begin(), m.end()));
  });
  ASSERT_TRUE(transport.send(a, b, {'1'}));
  transport.leave(b);
  EXPECT_FALSE(transport.alive(b));
  scheduler.run_until_idle();
  EXPECT_TRUE(first_life.empty());
  EXPECT_EQ(transport.send_failures(), 1u);

  // Sends addressed to a departed node fail at the call site.
  EXPECT_FALSE(transport.send(a, b, {'2'}));
  EXPECT_EQ(transport.send_failures(), 2u);

  transport.rejoin(b, [&](auto, const auto& m) {
    second_life.push_back(std::string(m.begin(), m.end()));
  });
  EXPECT_TRUE(transport.alive(b));
  ASSERT_TRUE(transport.send(a, b, {'3'}));
  // A message put on the wire before a re-register belongs to the old
  // incarnation: rejoin again mid-flight and it must die too.
  transport.rejoin(b, [&](auto, const auto& m) {
    second_life.push_back(std::string(m.begin(), m.end()));
  });
  scheduler.run_until_idle();
  EXPECT_TRUE(second_life.empty());
  EXPECT_EQ(transport.send_failures(), 3u);
  ASSERT_TRUE(transport.send(a, b, {'4'}));
  scheduler.run_until_idle();
  ASSERT_EQ(second_life.size(), 1u);
  EXPECT_EQ(second_life[0], "4");
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : cluster(scheduler, ClusterOptions{.nodes = 3,
                                          .link_latency =
                                              std::chrono::microseconds(100),
                                          .default_mode = Mode::strict}) {}

  void settle() { scheduler.run_until_idle(); }

  /// Convenience: file content on a node's replica, "" when missing.
  std::string content(std::size_t node, const std::string& path) {
    auto fs = cluster.fs(node);
    vfs::NodeId id = fs->root();
    for (const auto& comp : split_nonempty(path, '/')) {
      auto next = fs->lookup(id, comp);
      if (!next) return "<missing>";
      id = *next;
    }
    auto data = fs->read(id, 0, 1 << 20, {});
    return data ? *data : "<unreadable>";
  }

  net::Scheduler scheduler;
  Cluster cluster;
};

TEST_F(ClusterTest, MkdirReplicatesWithSchema) {
  auto fs0 = cluster.fs(0);
  // Creating a switch on the primary...
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(switches.ok());
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  // ...materializes on every node, with its schema children auto-created
  // locally (the record carries the one directory, not the whole subtree).
  for (std::size_t node : {1u, 2u}) {
    auto fs = cluster.fs(node);
    auto sw = fs->lookup(*fs->lookup(fs->root(), "switches"), "sw1");
    ASSERT_TRUE(sw.ok()) << "node " << node;
    EXPECT_TRUE(fs->lookup(*sw, "flows").ok());
    EXPECT_TRUE(fs->lookup(*sw, "id").ok());
  }
  EXPECT_EQ(cluster.fs(1)->remote_ops_applied(), 1u);
}

TEST_F(ClusterTest, WritesReplicateContent) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  auto sw = fs0->lookup(*switches, "sw1");
  auto id_file = fs0->lookup(*sw, "id");
  ASSERT_TRUE(fs0->write(*id_file, 0, "0xabc", {}).ok());
  settle();
  EXPECT_EQ(content(1, "/switches/sw1/id"), "0xabc");
  EXPECT_EQ(content(2, "/switches/sw1/id"), "0xabc");
}

// A whole-file write is one record per peer, and the receiving replica
// adopts the new content in one step: its watcher sees one modification,
// never the empty file in between.
TEST_F(ClusterTest, ReplaceCrossesAsOneRecord) {
  auto fs0 = cluster.fs(0);
  ASSERT_TRUE(
      fs0->mkdir(*fs0->lookup(fs0->root(), "switches"), "sw1", 0755, {}).ok());
  settle();
  auto node0 = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(node0->mkdir("/net"));
  ASSERT_FALSE(node0->mount("/net", fs0));
  auto id1 = resolve(*cluster.fs(1), "/switches/sw1/id");
  ASSERT_TRUE(id1.ok());
  auto queue = std::make_shared<vfs::WatchQueue>();
  ASSERT_TRUE(cluster.fs(1)->watch(*id1, vfs::event::modified, queue).ok());

  auto before = cluster.transport().messages_sent();
  ASSERT_FALSE(node0->write_file("/net/switches/sw1/id", "0xabc"));
  EXPECT_EQ(cluster.transport().messages_sent() - before, 2u);
  settle();
  EXPECT_EQ(content(1, "/switches/sw1/id"), "0xabc");
  EXPECT_EQ(content(2, "/switches/sw1/id"), "0xabc");
  EXPECT_EQ(queue->drain().size(), 1u);
}

TEST_F(ClusterTest, StrictModeChargesRoundTripOnSecondary) {
  auto fs1 = cluster.fs(1);  // not the primary
  auto switches = fs1->lookup(fs1->root(), "switches");
  ASSERT_TRUE(fs1->mkdir(*switches, "sw9", 0755, {}).ok());
  // 2 x 100us round trip charged to the writer.
  EXPECT_EQ(fs1->sync_delay_ns(), 200'000u);
  // The primary never pays it.
  auto fs0 = cluster.fs(0);
  ASSERT_TRUE(fs0->mkdir(*fs0->lookup(fs0->root(), "switches"), "sw8", 0755,
                         {}).ok());
  EXPECT_EQ(fs0->sync_delay_ns(), 0u);
  settle();
  // Both objects visible everywhere (secondary's op routed via primary).
  for (std::size_t node = 0; node < 3; ++node) {
    EXPECT_NE(content(node, "/switches/sw9/id"), "<missing>") << node;
    EXPECT_NE(content(node, "/switches/sw8/id"), "<missing>") << node;
  }
}

TEST_F(ClusterTest, EventualSubtreeSkipsPrimaryRoundTrip) {
  auto fs1 = cluster.fs(1);
  // Mark the events subtree eventual on every replica (xattrs replicate,
  // but set it locally first so the mode applies to the next op).
  auto events = fs1->lookup(fs1->root(), "events");
  ASSERT_TRUE(events.ok());
  std::string value = "eventual";
  ASSERT_FALSE(fs1->setxattr(*events, kConsistencyXattr,
                             {value.begin(), value.end()}, {}));
  auto before = fs1->sync_delay_ns();
  ASSERT_TRUE(fs1->mkdir(*events, "app1", 0755, {}).ok());
  EXPECT_EQ(fs1->sync_delay_ns(), before);  // no round trip charged
  settle();
  // Still replicated.
  auto fs2 = cluster.fs(2);
  EXPECT_TRUE(
      fs2->lookup(*fs2->lookup(fs2->root(), "events"), "app1").ok());
}

TEST_F(ClusterTest, LastWriterWinsOnConflict) {
  net::Scheduler s2;
  Cluster eventual(s2, ClusterOptions{.nodes = 2,
                                      .link_latency =
                                          std::chrono::microseconds(100),
                                      .default_mode = Mode::eventual});
  auto fs0 = eventual.fs(0);
  auto fs1 = eventual.fs(1);
  auto sw0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*sw0, "sw1", 0755, {}).ok());
  s2.run_until_idle();

  // Concurrent writes to the same file on both nodes (before either
  // replica saw the other's op).
  auto id0 = fs0->lookup(*fs0->lookup(*sw0, "sw1"), "id");
  auto sw1 = fs1->lookup(fs1->root(), "switches");
  auto id1 = fs1->lookup(*fs1->lookup(*sw1, "sw1"), "id");
  ASSERT_TRUE(fs0->write(*id0, 0, "0xa", {}).ok());
  ASSERT_TRUE(fs1->write(*id1, 0, "0xb", {}).ok());
  s2.run_until_idle();

  // Both converge on the same value (the later Lamport ts wins; ties break
  // toward the higher node id).
  auto read = [&](std::size_t n) {
    auto fs = eventual.fs(n);
    auto id = fs->lookup(*fs->lookup(*fs->lookup(fs->root(), "switches"),
                                     "sw1"),
                         "id");
    return *fs->read(*id, 0, 100, {});
  };
  EXPECT_EQ(read(0), read(1));
  EXPECT_EQ(eventual.fs(0)->conflicts_ignored() +
                eventual.fs(1)->conflicts_ignored(),
            1u);
}

TEST_F(ClusterTest, PartitionDivergesThenConverges) {
  net::Scheduler s2;
  Cluster eventual(s2, ClusterOptions{.nodes = 2,
                                      .link_latency = {},
                                      .default_mode = Mode::eventual});
  auto fs0 = eventual.fs(0);
  auto fs1 = eventual.fs(1);
  eventual.partition(0, 1);

  auto sw0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*sw0, "only-on-0", 0755, {}).ok());
  s2.run_until_idle();
  auto sw1 = fs1->lookup(fs1->root(), "switches");
  EXPECT_FALSE(fs1->lookup(*sw1, "only-on-0").ok());  // diverged

  eventual.heal(0, 1);
  s2.run_until_idle();
  EXPECT_TRUE(fs1->lookup(*sw1, "only-on-0").ok());  // converged
}

TEST_F(ClusterTest, RmdirReplicatesRecursiveRemoval) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  settle();
  ASSERT_FALSE(fs0->rmdir(*switches, "sw1", {}));
  settle();
  auto fs1 = cluster.fs(1);
  EXPECT_FALSE(
      fs1->lookup(*fs1->lookup(fs1->root(), "switches"), "sw1").ok());
}

TEST_F(ClusterTest, SymlinkAndRenameReplicate) {
  auto fs0 = cluster.fs(0);
  auto switches = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
  ASSERT_TRUE(fs0->mkdir(*switches, "sw2", 0755, {}).ok());
  settle();
  // Topology symlink on node 0...
  auto sw1 = fs0->lookup(*switches, "sw1");
  auto ports = fs0->lookup(*sw1, "ports");
  ASSERT_TRUE(fs0->mkdir(*ports, "1", 0755, {}).ok());
  settle();
  auto port1 = fs0->lookup(*ports, "1");
  ASSERT_TRUE(
      fs0->symlink(*port1, "peer", "/switches/sw2/ports/9", {}).ok());
  settle();
  auto fs2 = cluster.fs(2);
  auto r_ports = fs2->lookup(
      *fs2->lookup(*fs2->lookup(fs2->root(), "switches"), "sw1"), "ports");
  auto r_port1 = fs2->lookup(*r_ports, "1");
  auto r_peer = fs2->lookup(*r_port1, "peer");
  ASSERT_TRUE(r_peer.ok());
  EXPECT_EQ(*fs2->readlink(*r_peer), "/switches/sw2/ports/9");

  // Rename replicates too (switch renamed, §3.2).
  ASSERT_FALSE(fs0->rename(*switches, "sw2", *switches, "edge-2", {}));
  settle();
  auto r_switches = fs2->lookup(fs2->root(), "switches");
  EXPECT_TRUE(fs2->lookup(*r_switches, "edge-2").ok());
  EXPECT_FALSE(fs2->lookup(*r_switches, "sw2").ok());
}

// --- the §6 flagship: distributed controller ----------------------------------

TEST(DistributedController, FlowWrittenOnNodeAVisibleOnNodeB) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler,
                  ClusterOptions{.nodes = 2,
                                 .link_latency = std::chrono::milliseconds(1),
                                 .default_mode = Mode::strict});
  // Each controller node mounts ITS replica at /net in its own Vfs —
  // applications on each node are oblivious to the replication.
  auto vfs_a = std::make_shared<vfs::Vfs>();
  auto vfs_b = std::make_shared<vfs::Vfs>();
  ASSERT_FALSE(vfs_a->mkdir("/net"));
  ASSERT_FALSE(vfs_b->mkdir("/net"));
  ASSERT_FALSE(vfs_a->mount("/net", cluster.fs(0)));
  ASSERT_FALSE(vfs_b->mount("/net", cluster.fs(1)));

  // Node A's administrator writes a flow with plain file I/O.
  netfs::NetDir net_a(vfs_a);
  ASSERT_FALSE(net_a.add_switch("sw1"));
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(2)};
  ASSERT_FALSE(net_a.switch_at("sw1").add_flow("ssh", spec));
  scheduler.run_until_idle();

  // Node B's driver (or shell user) sees the committed flow.
  netfs::NetDir net_b(vfs_b);
  auto names = net_b.switch_at("sw1").flow_names();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(*names, std::vector<std::string>{"ssh"});
  auto got = net_b.switch_at("sw1").flow_at("ssh").read();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->match.tp_dst, 22);
  EXPECT_GE(got->version, 1u);
}

// --- anti-entropy: convergence despite genuinely lost messages -----------------

// The partition model retransmits (TCP-style); the fault filter actually
// loses messages.  A lost live record is never resent — the anti-entropy
// pass must recover it.
TEST(AntiEntropy, LossyLinkDivergenceHealed) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);

  // 100% loss on the replica links.
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(cluster.transport(), inj);

  auto switches0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw1", 0755, {}).ok());
  auto sw0 = fs0->lookup(*switches0, "sw1");
  auto id0 = fs0->lookup(*sw0, "id");
  ASSERT_TRUE(fs0->write(*id0, 0, "0x42", {}).ok());
  scheduler.run_until_idle();

  auto switches1 = fs1->lookup(fs1->root(), "switches");
  EXPECT_FALSE(fs1->lookup(*switches1, "sw1").ok());  // diverged
  EXPECT_GT(cluster.transport().messages_dropped(), 0u);

  // Heal the link.  The lost ops stay lost; only anti-entropy repairs.
  attach_faults(cluster.transport(), nullptr);
  scheduler.run_until_idle();
  EXPECT_FALSE(fs1->lookup(*switches1, "sw1").ok());

  cluster.anti_entropy_round();
  scheduler.run_until_idle();
  cluster.anti_entropy_round();
  scheduler.run_until_idle();

  auto sw1 = fs1->lookup(*switches1, "sw1");
  ASSERT_TRUE(sw1.ok());
  auto id1 = fs1->lookup(*sw1, "id");
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*fs1->read(*id1, 0, 100, {}), "0x42");
  EXPECT_GT(fs1->repairs_applied(), 0u);
}

// A lost rmdir must not let the other replica's snapshot resurrect the
// directory: the tombstone wins on both sides.
TEST(AntiEntropy, TombstonePreventsResurrection) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);

  // Replicate a directory cleanly first.
  auto switches0 = fs0->lookup(fs0->root(), "switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "doomed", 0755, {}).ok());
  scheduler.run_until_idle();
  auto switches1 = fs1->lookup(fs1->root(), "switches");
  ASSERT_TRUE(fs1->lookup(*switches1, "doomed").ok());

  // The rmdir is lost on the wire: node 1 keeps the directory.
  auto inj = std::make_shared<faults::Injector>(1);
  faults::FaultPlan plan;
  plan.drop = 1.0;
  inj->set_plan(faults::Scope::transport, plan);
  attach_faults(cluster.transport(), inj);
  ASSERT_FALSE(fs0->rmdir(*switches0, "doomed", {}));
  scheduler.run_until_idle();
  ASSERT_TRUE(fs1->lookup(*switches1, "doomed").ok());  // diverged

  attach_faults(cluster.transport(), nullptr);
  for (int round = 0; round < 2; ++round) {
    cluster.anti_entropy_round();
    scheduler.run_until_idle();
  }
  // Deleted everywhere, resurrected nowhere.
  EXPECT_FALSE(fs0->lookup(*switches0, "doomed").ok());
  EXPECT_FALSE(fs1->lookup(*switches1, "doomed").ok());
}

// A lost chmod/setxattr is repaired like lost content: entries carry the
// whole node, metadata included.
TEST(AntiEntropy, LostMetadataIsRepaired) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  auto switches0 = resolve(*fs0, "/switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw1", 0755, {}).ok());
  scheduler.run_until_idle();
  ASSERT_TRUE(resolve(*fs1, "/switches/sw1").ok());

  drop_everything(cluster.transport());
  auto sw0 = resolve(*fs0, "/switches/sw1");
  ASSERT_FALSE(fs0->chmod(*sw0, 0700, {}));
  ASSERT_FALSE(fs0->setxattr(*sw0, kConsistencyXattr, bytes_of("eventual"),
                             {}));
  scheduler.run_until_idle();
  attach_faults(cluster.transport(), nullptr);
  anti_entropy(cluster, scheduler, 2);

  auto sw1 = resolve(*fs1, "/switches/sw1");
  ASSERT_TRUE(sw1.ok());
  EXPECT_EQ(fs1->getattr(*sw1)->mode, 0700u);
  auto mode = fs1->getxattr(*sw1, kConsistencyXattr);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, bytes_of("eventual"));
}

// A node anti-entropy recreates keeps its mode and xattrs instead of
// coming back with default permissions and none.
TEST(AntiEntropy, RecreatedNodeKeepsModeAndXattrs) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);

  drop_everything(cluster.transport());
  ASSERT_TRUE(fs0->mkdir(*resolve(*fs0, "/switches"), "sw1", 0700, {}).ok());
  auto sw0 = resolve(*fs0, "/switches/sw1");
  ASSERT_FALSE(fs0->setxattr(*sw0, kConsistencyXattr, bytes_of("eventual"),
                             {}));
  auto id0 = resolve(*fs0, "/switches/sw1/id");
  ASSERT_TRUE(fs0->write(*id0, 0, "0x9", {}).ok());
  ASSERT_FALSE(fs0->chmod(*id0, 0600, {}));
  ASSERT_FALSE(fs0->setxattr(*id0, "user.note", bytes_of("edge"), {}));
  scheduler.run_until_idle();
  attach_faults(cluster.transport(), nullptr);
  ASSERT_FALSE(resolve(*fs1, "/switches/sw1").ok());  // diverged
  anti_entropy(cluster, scheduler, 2);

  auto sw1 = resolve(*fs1, "/switches/sw1");
  ASSERT_TRUE(sw1.ok());
  EXPECT_EQ(fs1->getattr(*sw1)->mode, 0700u);
  auto mode = fs1->getxattr(*sw1, kConsistencyXattr);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, bytes_of("eventual"));
  auto id1 = resolve(*fs1, "/switches/sw1/id");
  ASSERT_TRUE(id1.ok());
  EXPECT_EQ(*fs1->read(*id1, 0, 100, {}), "0x9");
  EXPECT_EQ(fs1->getattr(*id1)->mode, 0600u);
  auto note = fs1->getxattr(*id1, "user.note");
  ASSERT_TRUE(note.ok());
  EXPECT_EQ(*note, bytes_of("edge"));
}

// node 0's rmdir is lost; node 1 then writes inside the directory, later
// than the deletion.  The write out-ranks the tombstone, so it must bring
// the directory back on node 0 rather than be dropped for want of a
// parent — otherwise the replicas disagree forever.
TEST(AntiEntropy, WriteNewerThanAncestorTombstoneConverges) {
  net::Scheduler scheduler;
  Cluster cluster(scheduler, ClusterOptions{.nodes = 2,
                                            .link_latency = {},
                                            .default_mode = Mode::eventual});
  auto fs0 = cluster.fs(0);
  auto fs1 = cluster.fs(1);
  auto switches0 = resolve(*fs0, "/switches");
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw1", 0755, {}).ok());
  scheduler.run_until_idle();

  drop_everything(cluster.transport());
  ASSERT_FALSE(fs0->rmdir(*switches0, "sw1", {}));
  scheduler.run_until_idle();
  attach_faults(cluster.transport(), nullptr);
  // node 1 hears of node 0's later work, so its clock passes the lost
  // tombstone's.
  ASSERT_TRUE(fs0->mkdir(*switches0, "sw2", 0755, {}).ok());
  scheduler.run_until_idle();
  auto id1 = resolve(*fs1, "/switches/sw1/id");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(fs1->write(*id1, 0, "0x7", {}).ok());
  scheduler.run_until_idle();
  anti_entropy(cluster, scheduler, 3);

  for (auto* fs : {fs0.get(), fs1.get()}) {
    auto id = resolve(*fs, "/switches/sw1/id");
    ASSERT_TRUE(id.ok()) << (fs == fs0.get() ? "node 0" : "node 1");
    EXPECT_EQ(*fs->read(*id, 0, 100, {}), "0x7");
  }
}

// --- record codec: corrupt and truncated records --------------------------------

/// A replica's whole tree — type, mode, owner, content or target and
/// xattrs of every node — rendered so two dumps are equal exactly when
/// the trees are byte-identical.
void dump(ReplicatedYancFs& fs, vfs::NodeId node, const std::string& path,
          std::string& out) {
  auto st = fs.getattr(node);
  ASSERT_TRUE(st.ok()) << path;
  auto field = [&out](const std::string& s) {
    out += std::to_string(s.size()) + ":" + s + " ";
  };
  field(path);
  out += std::to_string(static_cast<int>(st->type)) + " " +
         std::to_string(st->mode) + " " + std::to_string(st->uid) + " " +
         std::to_string(st->gid) + " ";
  if (st->is_symlink()) field(*fs.readlink(node));
  if (st->is_file()) field(*fs.read(node, 0, st->size, {}));
  auto names = fs.listxattr(node);
  ASSERT_TRUE(names.ok()) << path;
  for (const auto& name : *names) {
    auto value = *fs.getxattr(node, name);
    field(name);
    field(std::string(value.begin(), value.end()));
  }
  out += "\n";
  if (!st->is_dir()) return;
  auto children = fs.readdir(node);
  ASSERT_TRUE(children.ok()) << path;
  for (const auto& child : *children)
    dump(fs, child.node, path + "/" + child.name, out);
}

std::string dump(ReplicatedYancFs& fs) {
  std::string out;
  dump(fs, fs.root(), "", out);
  return out;
}

// Transport faults corrupt and truncate replica messages.  Every strict
// prefix and every single-byte flip of a record must be rejected — a
// flipped content byte still frames correctly, so the checksum is what
// catches it — and a rejected record must leave the receiver's tree
// byte-identical: decoding finishes before anything merges, so no record
// ever merges half way.
TEST(RecordCodec, RejectedRecordLeavesTreeUntouched) {
  // A 2-node pair in which node 1 missed two records of node 0: a live
  // one (a rename: a tombstone plus a subtree of entries with xattrs) and
  // node 0's anti-entropy record of its whole tree.
  struct Rig {
    net::Scheduler scheduler;
    Cluster cluster{scheduler, ClusterOptions{.nodes = 2,
                                              .link_latency = {},
                                              .default_mode = Mode::eventual}};
    std::vector<std::uint8_t> last, live, repair;
    std::uint64_t taken() {
      auto fs1 = cluster.fs(1);
      return fs1->remote_ops_applied() + fs1->conflicts_ignored() +
             fs1->repairs_applied();
    }
  };
  auto make_rig = [] {
    auto rig = std::make_unique<Rig>();
    auto fs0 = rig->cluster.fs(0);
    auto switches = resolve(*fs0, "/switches");
    EXPECT_TRUE(fs0->mkdir(*switches, "sw1", 0755, {}).ok());
    rig->scheduler.run_until_idle();
    rig->cluster.transport().set_fault_filter(
        [r = rig.get()](auto, auto, std::vector<std::uint8_t>& message) {
          r->last = message;
          Transport::LinkFate fate;
          fate.drop = true;
          return fate;
        });
    auto sw1 = resolve(*fs0, "/switches/sw1");
    EXPECT_FALSE(fs0->setxattr(*sw1, "user.note", bytes_of("x"), {}));
    EXPECT_TRUE(fs0->write(*resolve(*fs0, "/switches/sw1/id"), 0, "0x5", {})
                    .ok());
    EXPECT_FALSE(fs0->chmod(*sw1, 0700, {}));
    EXPECT_FALSE(fs0->rename(*switches, "sw1", *switches, "edge-1", {}));
    rig->live = rig->last;
    EXPECT_TRUE(fs0->mkdir(*switches, "sw2", 0755, {}).ok());
    EXPECT_FALSE(fs0->rmdir(*switches, "sw2", {}));
    fs0->send_anti_entropy();
    rig->repair = rig->last;
    rig->cluster.transport().set_fault_filter(nullptr);
    rig->scheduler.run_until_idle();
    return rig;
  };

  auto rig = make_rig();
  // Feeds `variant` to node 1 in place of `record`, through the filter;
  // returns whether node 1 took it.
  auto feed = [&rig](const std::vector<std::uint8_t>& record,
                     const std::vector<std::uint8_t>& variant) {
    auto& transport = rig->cluster.transport();
    transport.set_fault_filter(
        [&variant](auto, auto, std::vector<std::uint8_t>& message) {
          message = variant;
          return Transport::LinkFate{};
        });
    std::uint64_t before = rig->taken();
    EXPECT_TRUE(transport.send(0, 1, record));
    rig->scheduler.run_until_idle();
    transport.set_fault_filter(nullptr);
    return rig->taken() != before;
  };

  util::Rng rng(16);
  for (bool live : {true, false}) {
    SCOPED_TRACE(live ? "live record" : "anti-entropy record");
    const auto record = live ? rig->live : rig->repair;
    ASSERT_FALSE(record.empty());
    // Intact, the record merges and changes node 1.
    std::string pristine = dump(*rig->cluster.fs(1));
    ASSERT_TRUE(feed(record, record));
    EXPECT_NE(dump(*rig->cluster.fs(1)), pristine);
    EXPECT_TRUE(resolve(*rig->cluster.fs(1), "/switches/edge-1").ok());
    rig = make_rig();

    for (std::size_t i = 0; i < record.size() + 300; ++i) {
      auto variant = record;
      std::string what;
      if (i < record.size()) {
        variant.resize(i);
        what = "prefix of " + std::to_string(i) + " bytes";
      } else {
        auto at = rng.next_u64() % record.size();
        variant[at] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
        what = "flip at byte " + std::to_string(at);
      }
      std::string before = dump(*rig->cluster.fs(1));
      EXPECT_FALSE(feed(record, variant)) << what;
      ASSERT_EQ(dump(*rig->cluster.fs(1)), before) << what;
    }
  }
}

}  // namespace
}  // namespace yanc::dist
