// Simulated cluster transport for the distributed file system (§6).
//
// Nodes exchange serialized operation records over point-to-point links
// with configurable latency; pairs of nodes can be partitioned, in which
// case traffic queues and is delivered in order when the partition heals
// (modelling a network that drops TCP into retransmission, not one that
// loses committed state).
//
// A fault filter adds the lossy mode the partition model deliberately
// lacks: per-message drop/duplicate/extra-delay decided by an installed
// filter (typically faults::Injector via attach_faults), so replicas can
// genuinely diverge — the failure ReplicatedYancFs's anti-entropy pass
// exists to repair.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "yanc/net/simnet.hpp"

namespace yanc::faults {
class Injector;
}

namespace yanc::obs {
class Counter;
class Registry;
}  // namespace yanc::obs

namespace yanc::dist {

class Transport {
 public:
  using NodeId = std::size_t;
  using Handler =
      std::function<void(NodeId from, const std::vector<std::uint8_t>&)>;

  Transport(net::Scheduler& scheduler, VirtualClock::duration latency)
      : scheduler_(scheduler), latency_(latency) {}

  /// Adds a node; its handler runs for every delivered message.
  NodeId join(Handler handler);
  std::size_t size() const noexcept { return handlers_.size(); }

  /// Removes a node: its handler is torn down and every in-flight or
  /// fault-delayed message addressed to it dies on the wire instead of
  /// being delivered (counted in send_failures()).  The slot stays
  /// reserved for a later rejoin() under the same id.
  void leave(NodeId node);
  /// Re-registers a departed node under a new incarnation.  Messages put
  /// on the wire before the rejoin belong to the old incarnation and are
  /// dropped at delivery time rather than handed to the fresh handler.
  void rejoin(NodeId node, Handler handler);
  bool alive(NodeId node) const;

  /// Hands one message to the link.  Returns false when it never made it
  /// onto the wire — unknown destination, self-send, or eaten by the fault
  /// filter; messages queued behind a partition count as sent (they flush
  /// on heal, modelling TCP retransmission).  Callers that fire and forget
  /// must say so at the call site; senders with consistency obligations
  /// (e.g. replication) decide whether a repair pass covers the loss.
  [[nodiscard]] bool send(NodeId from, NodeId to,
                          std::vector<std::uint8_t> message);
  void broadcast(NodeId from, const std::vector<std::uint8_t>& message);

  /// Per-message fate on a lossy link.  The filter may corrupt the
  /// message in place; `extra_delay` is added on top of the link latency.
  struct LinkFate {
    bool drop = false;
    bool duplicate = false;
    VirtualClock::duration extra_delay{};
  };
  using FaultFilter =
      std::function<LinkFate(NodeId from, NodeId to,
                             std::vector<std::uint8_t>&)>;

  /// Installs (or, with nullptr, removes) the lossy mode.  Runs once per
  /// destination — a broadcast rolls fate independently per link, like
  /// independent physical paths.
  void set_fault_filter(FaultFilter filter) { filter_ = std::move(filter); }
  std::uint64_t messages_dropped() const noexcept { return dropped_; }

  /// Blocks (or heals) both directions of the pair; healing flushes
  /// queued traffic in order.
  void set_partitioned(NodeId a, NodeId b, bool blocked);
  /// Directed partition: blocks (or heals) only from->to traffic, leaving
  /// the reverse direction alive — the asymmetric failure that provokes
  /// split-brain in the cluster chaos suite (docs/ROBUSTNESS.md).
  void set_partitioned_oneway(NodeId from, NodeId to, bool blocked);
  /// True when from->to traffic is currently blocked.  Directed query; a
  /// symmetric set_partitioned blocks both directions.
  bool partitioned(NodeId from, NodeId to) const;

  /// Messages that died at delivery time: destination left or
  /// re-registered while they were in flight, a delay fault held them
  /// across a partition, or a send addressed a departed node.
  std::uint64_t send_failures() const noexcept { return send_failures_; }
  /// Registers dist/send_fail_total (surfaced under /yanc/.stats/dist/).
  void bind_metrics(obs::Registry& registry);

  VirtualClock::duration latency() const noexcept { return latency_; }
  /// The scheduler's virtual clock (replication lag is measured on it).
  const VirtualClock& clock() const noexcept { return scheduler_.clock(); }
  std::uint64_t messages_sent() const noexcept { return messages_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_; }

 private:
  void deliver(NodeId from, NodeId to, std::vector<std::uint8_t> message,
               VirtualClock::duration extra_delay = {});
  void note_send_failure();

  net::Scheduler& scheduler_;
  VirtualClock::duration latency_;
  std::vector<Handler> handlers_;
  /// Bumped on every leave/rejoin; deliveries captured under an older
  /// incarnation are dropped (a restarted node must not receive traffic
  /// addressed to its previous life).
  std::vector<std::uint64_t> incarnations_;
  std::map<std::pair<NodeId, NodeId>, bool> blocked_;
  std::map<std::pair<NodeId, NodeId>,
           std::vector<std::vector<std::uint8_t>>>
      queued_;
  FaultFilter filter_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t send_failures_ = 0;
  obs::Counter* send_fail_metric_ = nullptr;
};

/// Drives `transport`'s fault filter from `injector`'s transport-scope
/// plan: drop/duplicate/corrupt map directly; reorder becomes one extra
/// link latency (later sends overtake), delay becomes four.  Planned
/// directed partitions (`partition=a->b`) eat matching messages on the
/// wire — a hard link cut, unlike set_partitioned's queue-and-heal.
void attach_faults(Transport& transport,
                   std::shared_ptr<faults::Injector> injector);

}  // namespace yanc::dist
