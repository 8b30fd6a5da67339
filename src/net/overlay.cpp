#include "net/overlay.hpp"

#include "common/error.hpp"

namespace genas::net {

OverlayNetwork::OverlayNetwork(SchemaPtr schema, OverlayOptions options)
    : schema_(std::move(schema)), options_(std::move(options)) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "overlay requires a schema");
}

NodeId OverlayNetwork::add_broker() {
  brokers_.push_back(Broker{
      FilterEngine(schema_, EngineOptions{options_.policy,
                                          options_.event_distribution,
                                          std::nullopt}),
      {}});
  forest_.push_back(forest_.size());  // own root
  return brokers_.size() - 1;
}

void OverlayNetwork::validate_node(NodeId node) const {
  GENAS_REQUIRE(node < brokers_.size(), ErrorCode::kNotFound,
                "unknown broker id " + std::to_string(node));
}

namespace {
NodeId find_root(std::vector<NodeId>& forest, NodeId x) {
  while (forest[x] != x) {
    forest[x] = forest[forest[x]];  // path halving
    x = forest[x];
  }
  return x;
}
}  // namespace

void OverlayNetwork::connect(NodeId a, NodeId b) {
  validate_node(a);
  validate_node(b);
  GENAS_REQUIRE(a != b, ErrorCode::kInvalidArgument,
                "cannot link a broker to itself");
  const NodeId ra = find_root(forest_, a);
  const NodeId rb = find_root(forest_, b);
  GENAS_REQUIRE(ra != rb, ErrorCode::kInvalidArgument,
                "link would close a cycle; the overlay must stay acyclic");
  forest_[ra] = rb;

  const auto make_link = [&](NodeId peer) {
    return Link{peer, LinkTable(schema_, options_.policy,
                                options_.event_distribution)};
  };
  brokers_[a].links.push_back(make_link(b));
  brokers_[b].links.push_back(make_link(a));
}

OverlayNetwork::Link& OverlayNetwork::link_to(NodeId from, NodeId to) {
  for (Link& link : brokers_[from].links) {
    if (link.peer == to) return link;
  }
  throw_error(ErrorCode::kInternal, "missing link in overlay");
}

void OverlayNetwork::propagate(NodeId from, NodeId to, std::uint64_t key,
                               const Profile& profile) {
  // `to` learns that the subscriber is reachable via `from`: the routing
  // entry lives at `to`, on its link back toward `from`, so that events
  // arriving at `to` are forwarded toward the subscriber.
  Link& link = link_to(to, from);
  const bool covering = options_.mode == RoutingMode::kRoutingCovered;
  if (!link.table.add(key, profile, covering)) return;  // suppressed
  ++stats_.profile_messages;

  // Brokers behind `to` learn the profile the same way.
  for (const Link& onward : brokers_[to].links) {
    if (onward.peer == from) continue;
    propagate(to, onward.peer, key, profile);
  }
}

std::uint64_t OverlayNetwork::subscribe(NodeId node, Profile profile) {
  validate_node(node);
  GENAS_REQUIRE(profile.schema() == schema_, ErrorCode::kInvalidArgument,
                "profile schema differs from overlay schema");
  const std::uint64_t key = next_subscription_++;
  brokers_[node].local.subscribe(profile);
  if (options_.mode != RoutingMode::kFlooding) {
    for (const Link& link : brokers_[node].links) {
      propagate(node, link.peer, key, profile);
    }
  }
  return key;
}

void OverlayNetwork::forward(NodeId node, NodeId from, const Event& event,
                             std::size_t& deliveries) {
  // Local matching at this broker.
  const FlatMatch local = brokers_[node].local.snapshot()->match(event);
  stats_.filter_operations += local.operations;
  deliveries += local.matched_count;
  stats_.deliveries += local.matched_count;

  // Forwarding decision per outgoing link.
  for (std::size_t i = 0; i < brokers_[node].links.size(); ++i) {
    Link& link = brokers_[node].links[i];
    if (link.peer == from) continue;
    bool send = true;
    if (options_.mode != RoutingMode::kFlooding) {
      const FlatMatch routed = link.table.snapshot()->match(event);
      stats_.filter_operations += routed.operations;
      send = routed.matched_count > 0;
    }
    if (send) {
      ++stats_.event_messages;
      forward(link.peer, node, event, deliveries);
    }
  }
}

std::size_t OverlayNetwork::publish(NodeId node, const Event& event) {
  validate_node(node);
  GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                "event schema differs from overlay schema");
  ++stats_.events_published;
  std::size_t deliveries = 0;
  forward(node, node, event, deliveries);
  return deliveries;
}

std::size_t OverlayNetwork::routing_entries(NodeId node) const {
  validate_node(node);
  std::size_t total = 0;
  for (const Link& link : brokers_[node].links) {
    total += link.table.entry_count();
  }
  return total;
}

std::size_t OverlayNetwork::local_subscriptions(NodeId node) const {
  validate_node(node);
  return brokers_[node].local.profiles().active_count();
}

}  // namespace genas::net
