// GENAS — distributed event filtering over a broker overlay.
//
// The paper situates its filter in distributed event services: Siena (its
// ref [3]) "implements profile and event propagation within a network" with
// early rejection on event level, and the conclusion targets "resource
// critical environments" where unnecessary event information is rejected as
// early as possible. This module provides that setting as a deterministic
// single-process simulation: an acyclic overlay of brokers, each running
// the distribution-based profile tree, with three routing modes:
//
//   kFlooding         events traverse every link (no routing state)
//   kRouting          subscriptions are propagated to every broker; events
//                     are forwarded over a link only when they match some
//                     profile registered behind it (content-based routing)
//   kRoutingCovered   like kRouting, but a subscription stops propagating
//                     at brokers where an already-forwarded profile covers
//                     it (Siena-style covering optimization)
//
// Costs are reported in the paper's currency: filter operations (summed
// over all brokers' trees) plus link messages. The per-link routing tables
// (LinkTable, src/net/routing.hpp) are shared with the concurrent mesh
// runtime (src/mesh/), which this simulation serves as the oracle for.
// Every tree here — each broker's local one and each link's — is built by
// a FilterEngine, as the mesh's brokers and links build theirs, so the two
// runtimes match on identical trees and count identical filter operations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/filter_engine.hpp"
#include "net/routing.hpp"

namespace genas::net {

/// Overlay-wide configuration.
struct OverlayOptions {
  RoutingMode mode = RoutingMode::kRoutingCovered;
  /// Filter policy used by every broker's trees (local and per-link).
  OrderingPolicy policy;
  /// Event distribution the trees are built for. When absent, every tree
  /// falls back to a uniform P_e, like FilterEngine.
  std::optional<JointDistribution> event_distribution;
};

/// Acyclic broker overlay (a tree of brokers).
class OverlayNetwork {
 public:
  OverlayNetwork(SchemaPtr schema, OverlayOptions options);

  /// Adds a broker; returns its id (0-based, dense).
  NodeId add_broker();

  /// Connects two brokers with a bidirectional link. Throws if the link
  /// would close a cycle (the overlay must stay a forest).
  void connect(NodeId a, NodeId b);

  /// Registers a subscription at `node` and propagates it per the routing
  /// mode. Returns a network-wide subscription handle.
  std::uint64_t subscribe(NodeId node, Profile profile);

  /// Publishes an event at `node`: local matching plus forwarding. Returns
  /// the number of deliveries network-wide.
  std::size_t publish(NodeId node, const Event& event);

  std::size_t broker_count() const noexcept { return brokers_.size(); }

  /// Number of profiles held in `node`'s routing table for all links
  /// (0 in flooding mode).
  std::size_t routing_entries(NodeId node) const;

  /// Local subscriptions registered at `node`.
  std::size_t local_subscriptions(NodeId node) const;

  const OverlayStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = OverlayStats{}; }

 private:
  struct Link {
    NodeId peer;
    /// Profiles interested in events flowing toward `peer` (routing modes).
    LinkTable table;
  };

  struct Broker {
    FilterEngine local;  ///< local subscriptions
    std::vector<Link> links;
  };

  void validate_node(NodeId node) const;
  Link& link_to(NodeId from, NodeId to);

  /// Registers `profile` into `from`'s table toward `to` and recursively
  /// propagates behind `to`; covering may suppress it part-way.
  void propagate(NodeId from, NodeId to, std::uint64_t key,
                 const Profile& profile);

  void forward(NodeId node, NodeId from, const Event& event,
               std::size_t& deliveries);

  SchemaPtr schema_;
  OverlayOptions options_;
  std::vector<Broker> brokers_;
  std::vector<NodeId> forest_;  // union-find parent for cycle detection
  OverlayStats stats_;
  std::uint64_t next_subscription_ = 1;
};

}  // namespace genas::net
