// Active controller cluster (docs/ROBUSTNESS.md "Cluster failover"):
// lease grammar, per-shard elections, node-kill failover with the FS
// resync, epoch fencing against deposed primaries, split-brain provoked
// by asymmetric partitions — and the chaos sweep, which asserts the two
// cluster invariants under randomized kill/partition/delay schedules:
//
//   1. every shard converges to exactly one epoch-fenced primary;
//   2. no committed flow is lost — the surviving primary's switch ends
//      byte-identical to the replicated flows/ directory.
#include <gtest/gtest.h>

#include <cstdlib>

#include "yanc/cluster/harness.hpp"
#include "yanc/cluster/lease.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/obs/metrics.hpp"
#include "yanc/util/log.hpp"
#include "yanc/util/rng.hpp"

namespace yanc::cluster {
namespace {

using flow::Action;
using flow::FlowSpec;

FlowSpec make_spec(std::uint16_t port) {
  FlowSpec spec;
  spec.match.tp_dst = port;
  spec.actions = {Action::output(1)};
  return spec;
}

// --- lease grammar ------------------------------------------------------------

TEST(LeaseTest, FormatParseRoundTrip) {
  Lease lease{.holder = 2, .epoch = 7, .expiry = 190};
  EXPECT_EQ(lease.format(), "holder=2 epoch=7 expiry=190\n");
  auto back = Lease::parse(lease.format());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, lease);
}

TEST(LeaseTest, ParseRejectsMangledFiles) {
  // A lease file a partial write or merge mangled must read as invalid
  // (forcing an election), never as some other lease.
  for (const char* bad : {
           "",                                  // empty
           "holder=1 epoch=2",                  // missing expiry
           "holder=1 epoch=2 expiry=3 x=4",     // trailing junk
           "epoch=2 holder=1 expiry=3",         // wrong order
           "holder=a epoch=2 expiry=3",         // non-numeric
           "holder=-1 epoch=2 expiry=3",        // sign
           "holder=1 epoch= expiry=3",          // empty value
           "holder 1 epoch 2 expiry 3",         // no '='
       }) {
    EXPECT_FALSE(Lease::parse(bad).ok()) << "accepted: " << bad;
  }
  // Whitespace tolerance (trailing newline is the canonical form).
  EXPECT_TRUE(Lease::parse("  holder=1 epoch=2 expiry=3  \n").ok());
}

// --- steady state -------------------------------------------------------------

TEST(ClusterTest, EveryShardConvergesToExactlyOnePrimary) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 3});
  h.settle();
  for (std::uint64_t dpid = 1; dpid <= 3; ++dpid) {
    auto owners = h.owners_of(dpid);
    ASSERT_EQ(owners.size(), 1u) << "dpid " << dpid;
    // The owner's driver finished the handshake: the replicated tree has
    // the switch directory.
    EXPECT_TRUE(h.switch_dir(*h.owner_of(dpid), dpid).ok());
    EXPECT_TRUE(h.switch_at(dpid).connected());
    EXPECT_EQ(h.switch_at(dpid).master_epoch(), 1u);
  }
  // The dpid-rotated rank spreads 3 shards across 3 live nodes.
  EXPECT_NE(*h.owner_of(1), *h.owner_of(2));
  EXPECT_NE(*h.owner_of(2), *h.owner_of(3));
}

TEST(ClusterTest, CommittedFlowReachesOwnedSwitchFromAnyNode) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  ASSERT_TRUE(h.owner_of(1).has_value());
  // Commit through a NON-owner node: replication carries it to the
  // owner, whose driver pushes it to hardware.
  std::size_t other = (*h.owner_of(1) + 1) % 3;
  ASSERT_FALSE(h.commit_flow(other, 1, "ssh", make_spec(22)));
  h.settle();
  auto fs = h.fs_flows(*h.owner_of(1), 1);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(h.hw_flows(1), fs);
}

TEST(ClusterTest, ReplicaExportsNetfsCounters) {
  // A replica is a YancFs underneath: its typed writes count in the node's
  // registry (and so in /yanc/.stats/netfs/) just as on a single node.
  Harness h(HarnessOptions{.nodes = 2, .switches = 1});
  h.settle();
  ASSERT_FALSE(h.commit_flow(0, 1, "ssh", make_spec(22)));
  h.settle();
  auto& reg = *h.vfs(0)->metrics();
  EXPECT_GT(reg.counter("netfs/typed_write_total")->value(), 0u);
}

// --- failover (the smoke_cluster_failover ctest entry) ------------------------

TEST(ClusterTest, NodeKillFailsOverAndResyncsCommittedFlows) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 2});
  h.settle();
  ASSERT_TRUE(h.owner_of(1).has_value());
  std::size_t old_owner = *h.owner_of(1);
  for (int i = 0; i < 5; ++i)
    ASSERT_FALSE(h.commit_flow(old_owner, 1, "f" + std::to_string(i),
                               make_spec(static_cast<std::uint16_t>(100 + i))));
  h.settle();
  ASSERT_EQ(h.hw_flows(1).size(), 5u);
  std::uint64_t old_epoch = h.switch_at(1).max_epoch();

  h.kill(old_owner);
  h.settle(30);

  auto owners = h.owners_of(1);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_NE(owners[0], old_owner);
  // The successor claimed under a strictly higher epoch and the switch
  // fenced up to it.
  EXPECT_GT(h.switch_at(1).max_epoch(), old_epoch);
  EXPECT_EQ(h.switch_at(1).master_epoch(), h.switch_at(1).max_epoch());
  // No committed flow lost: the reconnect resync replayed the replicated
  // flows/ directory onto the hardware.
  auto fs = h.fs_flows(owners[0], 1);
  ASSERT_EQ(fs.size(), 5u);
  EXPECT_EQ(h.hw_flows(1), fs);
  // Failover observability: latency histogram populated, takeover
  // counted (under /yanc/.stats/cluster/ on the successor's node).
  auto& reg = *h.vfs(owners[0])->metrics();
  EXPECT_GE(reg.counter("cluster/takeover_total")->value(), 1u);
  EXPECT_GE(reg.histogram("cluster/failover_latency_ns")->count(), 1u);
}

TEST(ClusterTest, CommitsDuringFailoverSurviveOnTheSuccessor) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t old_owner = *h.owner_of(1);
  ASSERT_FALSE(h.commit_flow(old_owner, 1, "before", make_spec(1)));
  h.settle();

  h.kill(old_owner);
  // Commit through a survivor while the shard is leaderless.
  std::size_t survivor = (old_owner + 1) % 3;
  ASSERT_FALSE(h.commit_flow(survivor, 1, "during", make_spec(2)));
  h.settle(30);

  auto owners = h.owners_of(1);
  ASSERT_EQ(owners.size(), 1u);
  auto fs = h.fs_flows(owners[0], 1);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(h.hw_flows(1), fs);
}

TEST(ClusterTest, RevivedNodeReleasesStaleOwnershipAndStaysFenced) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t old_owner = *h.owner_of(1);
  ASSERT_FALSE(h.commit_flow(old_owner, 1, "f0", make_spec(1)));
  h.settle();

  h.kill(old_owner);
  h.settle(30);
  auto owners = h.owners_of(1);
  ASSERT_EQ(owners.size(), 1u);
  std::uint64_t new_epoch = h.switch_at(1).max_epoch();

  // The dead node still believes it owns the shard (its manager never
  // observed the takeover) — revival must fix that before its driver
  // says a word: the first tick reads the higher-epoch lease and
  // releases, and the egress gate stays shut throughout.
  EXPECT_TRUE(h.manager(old_owner).owns(1));
  h.revive(old_owner);
  h.settle();
  EXPECT_FALSE(h.manager(old_owner).owns(1));
  ASSERT_EQ(h.owners_of(1).size(), 1u);
  EXPECT_EQ(h.switch_at(1).max_epoch(), new_epoch);  // fence undisturbed
  EXPECT_GE(h.vfs(old_owner)
                ->metrics()
                ->counter("cluster/ownership_lost_total")
                ->value(),
            1u);
}

// --- lease edge cases ---------------------------------------------------------

TEST(ClusterTest, ExpiryDuringTakeoverStillConverges) {
  // Cut the successor off mid-claim: its claim lease replicates nowhere
  // and expires unconfirmed.  Once the partition heals, some node's next
  // claim must win cleanly — no shard may stay leaderless forever and no
  // epoch may regress.
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t old_owner = *h.owner_of(1);
  h.kill(old_owner);

  std::size_t a = (old_owner + 1) % 3, b = (old_owner + 2) % 3;
  h.transport().set_partitioned(a, b, true);
  // Let claims get written and expire across the cut (TTL is 8 ticks).
  h.settle(20);
  h.transport().set_partitioned(a, b, false);
  h.settle(30);

  auto owners = h.owners_of(1);
  ASSERT_EQ(owners.size(), 1u);
  EXPECT_GE(h.switch_at(1).max_epoch(), 2u);
  EXPECT_EQ(h.switch_at(1).master_epoch(), h.switch_at(1).max_epoch());
}

TEST(ClusterTest, RacingClaimantsResolveToSingleOwner) {
  // Split-brain on demand: kill the owner, then cut the two survivors
  // from each other.  Each sees the other's heartbeat go stale, elects
  // itself, and writes a claim — the two-claimants-one-epoch race the
  // LWW confirm re-read exists to resolve.
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t old_owner = *h.owner_of(1);
  ASSERT_FALSE(h.commit_flow(old_owner, 1, "f0", make_spec(9)));
  h.settle();

  h.kill(old_owner);
  std::size_t a = (old_owner + 1) % 3, b = (old_owner + 2) % 3;
  h.transport().set_partitioned(a, b, true);
  h.settle(20);
  // While cut, both may claim; split ownership is permitted only during
  // the partition.  Heal: LWW settles the lease file, the loser's next
  // confirm re-read fails, and it releases.
  h.transport().set_partitioned(a, b, false);
  h.settle(30);

  auto owners = h.owners_of(1);
  ASSERT_EQ(owners.size(), 1u);
  // The committed flow survived the whole affair on hardware.
  auto fs = h.fs_flows(owners[0], 1);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(h.hw_flows(1), fs);
  // The switch's fence is at the surviving claim's epoch; the loser
  // never regressed it.
  EXPECT_EQ(h.switch_at(1).master_epoch(), h.switch_at(1).max_epoch());
}

TEST(ClusterTest, AsymmetricPartitionCannotSplitBrainForever) {
  // One-way cut: the owner's heartbeats stop reaching a peer, but the
  // peer's claims DO reach the owner (and everyone else).  The usurper's
  // higher-epoch lease replicates to the owner, which must stand down.
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t owner = *h.owner_of(1);
  std::size_t peer = (owner + 1) % 3;
  h.transport().set_partitioned_oneway(owner, peer, true);
  h.settle(40);
  h.transport().set_partitioned_oneway(owner, peer, false);
  h.settle(30);
  EXPECT_EQ(h.owners_of(1).size(), 1u);
  EXPECT_EQ(h.switch_at(1).master_epoch(), h.switch_at(1).max_epoch());
}

TEST(ClusterTest, TombstonedThenRecreatedShardDirReElects) {
  Harness h(HarnessOptions{.nodes = 3, .switches = 1});
  h.settle();
  std::size_t owner = *h.owner_of(1);

  // Administrative removal of the shard: every manager drops it (the
  // owner releases) and the dist tombstone stops anti-entropy from
  // resurrecting the old lease.
  ASSERT_FALSE(h.vfs(owner)->remove_all("/net/.cluster/shards/1"));
  h.settle();
  EXPECT_TRUE(h.owners_of(1).empty());

  // Recreate: discovery via the shards/ watch, fresh election.  The old
  // lease is gone, so the epoch restarts — the switch's high-water fence
  // keeps monotonicity on the wire regardless.
  ASSERT_FALSE(h.manager(owner).add_shard(1));
  h.settle(30);
  EXPECT_EQ(h.owners_of(1).size(), 1u);
}

// --- chaos sweep (stress tier sweeps YANC_FAULT_SEED) -------------------------

// Randomized schedule of node kills/revives, symmetric and asymmetric
// partitions, lease-delaying lossy links — interleaved with flow commits
// through surviving nodes.  After the storm: heal, revive, settle, one
// anti-entropy round; then both invariants must hold on every shard.
TEST(ClusterChaos, ConvergesToOneFencedPrimaryWithNoLostFlows) {
  // YANC_LOG=1 narrates driver/cluster recovery decisions on a replay.
  if (std::getenv("YANC_LOG")) set_log_level(LogLevel::error);
  const char* env = std::getenv("YANC_FAULT_SEED");
  const std::uint64_t base = env ? std::strtoull(env, nullptr, 10) : 1;
  for (std::uint64_t seed = base; seed < base + 2; ++seed) {
    SCOPED_TRACE("YANC_FAULT_SEED=" + std::to_string(seed));
    constexpr std::size_t kNodes = 3;
    constexpr std::size_t kSwitches = 8;
    Harness h(HarnessOptions{.nodes = kNodes, .switches = kSwitches});
    auto injector = std::make_shared<faults::Injector>(seed);
    h.settle(20);

    util::Rng rng(seed * 7919 + 17);
    std::vector<bool> dead(kNodes, false);
    std::size_t n_dead = 0;
    int committed = 0;
    auto commit_somewhere = [&](std::uint64_t dpid) {
      for (std::size_t n = 0; n < kNodes; ++n) {
        if (dead[n]) continue;
        if (!h.commit_flow(n, dpid,
                           "c" + std::to_string(committed),
                           make_spec(static_cast<std::uint16_t>(
                               1000 + committed)))) {
          ++committed;
          return;
        }
      }
    };

    for (int step = 0; step < 40; ++step) {
      switch (rng.next_u64() % 6) {
        case 0: {  // kill (keep a majority alive)
          std::size_t n = rng.next_u64() % kNodes;
          if (!dead[n] && n_dead + 1 < kNodes) {
            h.kill(n);
            dead[n] = true;
            ++n_dead;
          }
          break;
        }
        case 1: {  // revive
          std::size_t n = rng.next_u64() % kNodes;
          if (dead[n]) {
            h.revive(n);
            dead[n] = false;
            --n_dead;
          }
          break;
        }
        case 2: {  // asymmetric partition, healed a few steps later
          std::size_t a = rng.next_u64() % kNodes;
          std::size_t b = (a + 1 + rng.next_u64() % (kNodes - 1)) % kNodes;
          h.transport().set_partitioned_oneway(a, b, true);
          h.tick();
          h.tick();
          h.transport().set_partitioned_oneway(a, b, false);
          break;
        }
        case 3: {  // lossy + delaying links for a burst
          faults::FaultPlan plan;
          plan.drop = 0.10;
          plan.delay = 0.20;
          injector->set_plan(faults::Scope::transport, plan);
          dist::attach_faults(h.transport(), injector);
          h.tick();
          h.tick();
          dist::attach_faults(h.transport(), nullptr);
          break;
        }
        default:
          commit_somewhere(rng.next_u64() % kSwitches + 1);
          break;
      }
      h.tick();
    }

    // Calm after the storm.
    dist::attach_faults(h.transport(), nullptr);
    for (std::size_t n = 0; n < kNodes; ++n)
      if (dead[n]) {
        h.revive(n);
        dead[n] = false;
      }
    h.settle(40);
    h.anti_entropy();
    h.settle(20);

    ASSERT_GT(committed, 0);
    for (std::uint64_t dpid = 1; dpid <= kSwitches; ++dpid) {
      SCOPED_TRACE("dpid=" + std::to_string(dpid));
      auto owners = h.owners_of(dpid);
      ASSERT_EQ(owners.size(), 1u);  // invariant 1: one primary
      EXPECT_EQ(h.switch_at(dpid).master_epoch(),
                h.switch_at(dpid).max_epoch());  // ...epoch-fenced
      // Invariant 2: hardware == replicated committed state.
      auto fs = h.fs_flows(owners[0], dpid);
      EXPECT_EQ(h.hw_flows(dpid), fs);
      // And the replicas agree with each other (anti-entropy converged).
      for (std::size_t n = 0; n < kNodes; ++n)
        EXPECT_EQ(h.fs_flows(n, dpid), fs) << "node " << n << " diverged";
    }
  }
}

}  // namespace
}  // namespace yanc::cluster
