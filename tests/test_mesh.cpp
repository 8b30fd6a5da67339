// Tests for the concurrent broker mesh: the mesh-vs-overlay oracle (the
// multi-threaded runtime must produce exactly the deterministic simulation's
// delivery multiset and routing state for the same topology, subscriptions,
// and events), topology files, lifecycle/error semantics, and
// covering-promotion on unsubscribe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "mesh/mesh.hpp"
#include "mesh/topology.hpp"
#include "net/overlay.hpp"
#include "profile/parser.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

using mesh::MeshNetwork;
using mesh::MeshOptions;
using net::NodeId;
using net::OverlayNetwork;
using net::OverlayOptions;
using net::OverlayStats;
using net::RoutingMode;

/// Thread-safe recorder of (subscription key, event timestamp) deliveries;
/// the multiset the oracle compares. Worker threads append concurrently.
class DeliveryLog {
 public:
  void record(SubscriptionId key, const Event& event) {
    const std::scoped_lock lock(mutex_);
    entries_.emplace_back(key, event.time());
  }

  std::vector<std::pair<SubscriptionId, Timestamp>> sorted() const {
    std::vector<std::pair<SubscriptionId, Timestamp>> copy;
    {
      const std::scoped_lock lock(mutex_);
      copy = entries_;
    }
    std::sort(copy.begin(), copy.end());
    return copy;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<SubscriptionId, Timestamp>> entries_;
};

struct OracleWorkload {
  SchemaPtr schema;
  /// (node, profile) pairs, subscribed in order.
  std::vector<std::pair<NodeId, Profile>> subscriptions;
  /// (node, event) pairs, published in order; timestamps are unique.
  std::vector<std::pair<NodeId, Event>> events;
};

/// Random subscriptions (range profiles, so covering relations occur) and
/// events spread round-robin across `nodes` nodes.
OracleWorkload make_workload(std::size_t nodes, std::uint64_t seed) {
  OracleWorkload w;
  w.schema = testutil::example1_schema();

  ProfileWorkloadOptions options;
  options.count = 24;
  options.dont_care_probability = 0.4;
  options.equality_only = false;
  options.range_width_mean = 0.35;
  options.seed = seed;
  const ProfileSet profiles = generate_profiles(
      w.schema, make_profile_distributions(w.schema, {"gauss"}), options);
  std::size_t at = 0;
  for (const ProfileId id : profiles.active_ids()) {
    w.subscriptions.emplace_back(at++ % nodes, profiles.profile(id));
  }

  const JointDistribution joint = testutil::peak_joint(w.schema, true, 0.7);
  std::vector<Event> events = testutil::event_stream(joint, 120, seed + 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].set_time(static_cast<Timestamp>(i));  // unique multiset ids
    w.events.emplace_back(i % nodes, std::move(events[i]));
  }
  return w;
}

/// Brute-force reference multiset: subscription s delivers event e iff the
/// profile matches — network-independent ground truth for both runtimes.
std::vector<std::pair<SubscriptionId, Timestamp>> reference_multiset(
    const OracleWorkload& workload,
    const std::vector<SubscriptionId>& keys) {
  std::vector<std::pair<SubscriptionId, Timestamp>> expected;
  for (std::size_t s = 0; s < workload.subscriptions.size(); ++s) {
    for (const auto& [node, event] : workload.events) {
      if (workload.subscriptions[s].second.matches(event)) {
        expected.emplace_back(keys[s], event.time());
      }
    }
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

struct Topology {
  std::string name;
  std::size_t nodes;
  std::vector<std::pair<NodeId, NodeId>> links;
};

std::vector<Topology> oracle_topologies() {
  return {
      {"line4", 4, {{0, 1}, {1, 2}, {2, 3}}},
      {"star5", 5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}}},
      {"tree7", 7, {{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6}}},
  };
}

/// The policies the oracles run under: the natural order, and V1 values
/// with A2 attributes built for the workload's event distribution.
std::vector<std::pair<OrderingPolicy, std::optional<JointDistribution>>>
oracle_policies(const SchemaPtr& schema) {
  OrderingPolicy event_order;
  event_order.value_order = ValueOrder::kEventProbability;
  event_order.attribute_measure = AttributeMeasure::kA2;
  return {{OrderingPolicy{}, std::nullopt},
          {event_order, testutil::peak_joint(schema, true, 0.7)}};
}

TEST(MeshOracle, MatchesOverlayDeliveriesAndRoutingState) {
  for (const Topology& topology : oracle_topologies()) {
    const OracleWorkload workload = make_workload(topology.nodes, 11);
    for (const auto& [policy, distribution] :
         oracle_policies(workload.schema)) {
      for (const RoutingMode mode :
           {RoutingMode::kRouting, RoutingMode::kRoutingCovered}) {
        const std::string context = topology.name + "/" +
                                    std::string(net::to_string(mode)) + "/" +
                                    policy.label();

        // The deterministic single-threaded simulation.
        OverlayOptions overlay_options;
        overlay_options.mode = mode;
        overlay_options.policy = policy;
        overlay_options.event_distribution = distribution;
        OverlayNetwork overlay(workload.schema, overlay_options);
        for (std::size_t n = 0; n < topology.nodes; ++n) overlay.add_broker();
        for (const auto& [a, b] : topology.links) overlay.connect(a, b);

        // The concurrent runtime under test.
        MeshOptions mesh_options;
        mesh_options.mode = mode;
        mesh_options.policy = policy;
        mesh_options.event_distribution = distribution;
        MeshNetwork mesh(workload.schema, mesh_options);
        for (std::size_t n = 0; n < topology.nodes; ++n) mesh.add_node();
        for (const auto& [a, b] : topology.links) mesh.connect(a, b);
        mesh.start();

        DeliveryLog log;
        std::vector<SubscriptionId> keys;
        for (const auto& [node, profile] : workload.subscriptions) {
          overlay.subscribe(node, profile);
          keys.push_back(mesh.subscribe(
              node, profile, [&log](NodeId, SubscriptionId key,
                                    const Event& event) {
                log.record(key, event);
              }));
          // Serialize propagation so covering sees the overlay's install
          // order (the routing state is order-sensitive by design).
          mesh.wait_idle();
        }

        // Identical per-node routing-entry counts after full propagation.
        for (std::size_t n = 0; n < topology.nodes; ++n) {
          EXPECT_EQ(mesh.routing_entries(n), overlay.routing_entries(n))
              << context << " node " << n;
          EXPECT_EQ(mesh.local_subscriptions(n), overlay.local_subscriptions(n))
              << context << " node " << n;
        }

        std::size_t overlay_deliveries = 0;
        for (const auto& [node, event] : workload.events) {
          overlay_deliveries += overlay.publish(node, event);
          mesh.publish(node, event);
        }
        mesh.wait_idle();

        // Identical delivery multiset — and both equal the brute-force truth.
        const auto expected = reference_multiset(workload, keys);
        EXPECT_EQ(log.sorted(), expected) << context;
        EXPECT_EQ(overlay_deliveries, expected.size()) << context;

        // Every aggregate agrees. filter_operations too: both runtimes build
        // every tree, local and per link, through FilterEngine, so they match
        // on identical trees.
        const OverlayStats& simulated = overlay.stats();
        const OverlayStats actual = mesh.stats();
        EXPECT_EQ(actual.events_published, simulated.events_published)
            << context;
        EXPECT_EQ(actual.deliveries, simulated.deliveries) << context;
        EXPECT_EQ(actual.event_messages, simulated.event_messages) << context;
        EXPECT_EQ(actual.profile_messages, simulated.profile_messages)
            << context;
        EXPECT_EQ(actual.filter_operations, simulated.filter_operations)
            << context;

        mesh.shutdown();
        EXPECT_EQ(mesh.first_error(), "");
      }
    }
  }
}

TEST(MeshOracle, FloodingAgreesToo) {
  const Topology topology = oracle_topologies()[0];
  const OracleWorkload workload = make_workload(topology.nodes, 3);

  OverlayOptions overlay_options;
  overlay_options.mode = RoutingMode::kFlooding;
  OverlayNetwork overlay(workload.schema, overlay_options);
  for (std::size_t n = 0; n < topology.nodes; ++n) overlay.add_broker();
  for (const auto& [a, b] : topology.links) overlay.connect(a, b);

  MeshOptions mesh_options;
  mesh_options.mode = RoutingMode::kFlooding;
  MeshNetwork mesh(workload.schema, mesh_options);
  for (std::size_t n = 0; n < topology.nodes; ++n) mesh.add_node();
  for (const auto& [a, b] : topology.links) mesh.connect(a, b);
  mesh.start();

  DeliveryLog log;
  std::vector<SubscriptionId> keys;
  for (const auto& [node, profile] : workload.subscriptions) {
    overlay.subscribe(node, profile);
    keys.push_back(mesh.subscribe(node, profile,
                                  [&log](NodeId, SubscriptionId key,
                                         const Event& event) {
                                    log.record(key, event);
                                  }));
  }
  mesh.wait_idle();
  for (std::size_t n = 0; n < topology.nodes; ++n) {
    EXPECT_EQ(mesh.routing_entries(n), 0u);  // flooding keeps no state
  }

  for (const auto& [node, event] : workload.events) {
    overlay.publish(node, event);
    mesh.publish(node, event);
  }
  mesh.wait_idle();

  EXPECT_EQ(log.sorted(), reference_multiset(workload, keys));
  // Flooding crosses every link for every event: counts must agree, and
  // each node matches locally on the same tree in both runtimes.
  EXPECT_EQ(mesh.stats().event_messages, overlay.stats().event_messages);
  EXPECT_EQ(mesh.stats().filter_operations,
            overlay.stats().filter_operations);
  mesh.shutdown();
}

TEST(MeshOracle, EventOrderWithoutDistributionFallsBackToUniform) {
  // V1 needs P_e. With none given, every tree — each broker's and each
  // link's — is built for a uniform P_e, so an event still crosses the
  // link to the far subscriber instead of failing there.
  const SchemaPtr schema = testutil::example1_schema();
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  const Profile hot = parse_profile(schema, "temperature >= 35");
  const Event event = Event::from_pairs(
      schema, {{"temperature", 40}, {"humidity", 50}, {"radiation", 1}});

  for (const RoutingMode mode :
       {RoutingMode::kRouting, RoutingMode::kRoutingCovered}) {
    const std::string context(net::to_string(mode));

    MeshOptions mesh_options;
    mesh_options.mode = mode;
    mesh_options.policy = policy;
    MeshNetwork mesh(schema, mesh_options);
    mesh.add_node();
    mesh.add_node();
    mesh.connect(0, 1);
    mesh.start();
    DeliveryLog log;
    const auto record = [&log](NodeId, SubscriptionId key,
                               const Event& delivered) {
      log.record(key, delivered);
    };
    const SubscriptionId near = mesh.subscribe(0, hot, record);
    const SubscriptionId far = mesh.subscribe(1, hot, record);
    mesh.wait_idle();
    mesh.publish(0, event);
    mesh.wait_idle();

    const std::vector<std::pair<SubscriptionId, Timestamp>> both = {
        {near, event.time()}, {far, event.time()}};
    EXPECT_EQ(log.sorted(), both) << context;
    EXPECT_EQ(mesh.stats().deliveries, 2u) << context;
    mesh.shutdown();
    EXPECT_EQ(mesh.first_error(), "") << context;

    OverlayOptions overlay_options;
    overlay_options.mode = mode;
    overlay_options.policy = policy;
    OverlayNetwork overlay(schema, overlay_options);
    overlay.add_broker();
    overlay.add_broker();
    overlay.connect(0, 1);
    overlay.subscribe(0, hot);
    overlay.subscribe(1, hot);
    EXPECT_EQ(overlay.publish(0, event), 2u) << context;

    EXPECT_EQ(overlay.stats().filter_operations,
              mesh.stats().filter_operations)
        << context;
  }
}

class MeshRuntimeTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();

  Event make_event(std::int64_t t, std::int64_t h, std::int64_t r,
                   Timestamp time = 0) {
    Event event = Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
    event.set_time(time);
    return event;
  }

  /// Started 0-1-2-3 line in the given mode (MeshNetwork is pinned in
  /// place — worker threads hold references — hence the unique_ptr).
  std::unique_ptr<MeshNetwork> make_line(RoutingMode mode,
                                         std::size_t mailbox_capacity = 1024) {
    MeshOptions options;
    options.mode = mode;
    options.mailbox_capacity = mailbox_capacity;
    auto mesh = std::make_unique<MeshNetwork>(schema_, options);
    for (int i = 0; i < 4; ++i) mesh->add_node();
    mesh->connect(0, 1);
    mesh->connect(1, 2);
    mesh->connect(2, 3);
    mesh->start();
    return mesh;
  }
};

TEST_F(MeshRuntimeTest, UnsubscribePromotesCoveredEntries) {
  const std::unique_ptr<MeshNetwork> net = make_line(RoutingMode::kRoutingCovered);
  MeshNetwork& mesh = *net;
  DeliveryLog log;
  const auto callback = [&log](NodeId, SubscriptionId key,
                               const Event& event) {
    log.record(key, event);
  };

  // The general profile covers the specific one everywhere, so the specific
  // one is suppressed in every remote table.
  const SubscriptionId general =
      mesh.subscribe(3, "temperature >= 30", callback);
  mesh.wait_idle();
  const SubscriptionId specific =
      mesh.subscribe(3, "temperature >= 40 && humidity >= 90", callback);
  mesh.wait_idle();
  EXPECT_EQ(mesh.routing_entries(0), 1u);  // only the general entry
  EXPECT_EQ(mesh.routing_entries(1), 1u);
  EXPECT_EQ(mesh.routing_entries(2), 1u);

  // Removing the cover must promote the suppressed entry into every table
  // it had been suppressed in — events for it keep flowing.
  mesh.unsubscribe(general);
  mesh.wait_idle();
  EXPECT_EQ(mesh.routing_entries(0), 1u);  // the promoted specific entry
  EXPECT_EQ(mesh.routing_entries(1), 1u);
  EXPECT_EQ(mesh.routing_entries(2), 1u);
  EXPECT_EQ(mesh.local_subscriptions(3), 1u);

  mesh.publish(0, make_event(45, 95, 1, 7));
  mesh.publish(0, make_event(35, 10, 1, 8));  // matched only the general sub
  mesh.wait_idle();
  const auto delivered = log.sorted();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], (std::pair<SubscriptionId, Timestamp>{specific, 7}));
  mesh.shutdown();
  EXPECT_EQ(mesh.first_error(), "");
}

TEST_F(MeshRuntimeTest, GracefulShutdownDrainsAcceptedEvents) {
  // Tiny mailboxes force backpressure and outbox staging on the way.
  MeshOptions options;
  options.mode = RoutingMode::kRouting;
  options.mailbox_capacity = 4;
  MeshNetwork mesh(schema_, options);
  for (int i = 0; i < 3; ++i) mesh.add_node();
  mesh.connect(0, 1);
  mesh.connect(1, 2);
  mesh.start();

  std::atomic<std::uint64_t> delivered{0};
  mesh.subscribe(2, "temperature >= -30",
                 [&](NodeId, SubscriptionId, const Event&) {
                   delivered.fetch_add(1, std::memory_order_relaxed);
                 });
  mesh.wait_idle();

  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    mesh.publish(0, make_event(static_cast<std::int64_t>(i % 80) - 30, 0, 1,
                               static_cast<Timestamp>(i)));
  }
  // No wait_idle: shutdown itself must drain everything already accepted.
  mesh.shutdown();
  EXPECT_EQ(delivered.load(), kEvents);
  EXPECT_EQ(mesh.stats().deliveries, kEvents);
  EXPECT_EQ(mesh.first_error(), "");
}

TEST_F(MeshRuntimeTest, LifecycleErrorsAreStateErrors) {
  MeshOptions options;
  MeshNetwork mesh(schema_, options);
  const NodeId a = mesh.add_node();
  const NodeId b = mesh.add_node();
  mesh.connect(a, b);

  const auto expect_state_error = [](auto&& fn) {
    try {
      fn();
      FAIL() << "expected Error{kState}";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kState);
    }
  };

  // Not started yet: no traffic accepted.
  expect_state_error([&] { mesh.publish(a, make_event(0, 0, 1)); });
  expect_state_error([&] {
    mesh.subscribe(a, "temperature >= 0",
                   [](NodeId, SubscriptionId, const Event&) {});
  });

  mesh.start();
  // Topology is frozen while running.
  expect_state_error([&] { mesh.add_node(); });
  expect_state_error([&] { mesh.start(); });
  EXPECT_THROW(mesh.connect(a, b), Error);

  mesh.shutdown();
  mesh.shutdown();  // idempotent
  expect_state_error([&] { mesh.publish(a, make_event(0, 0, 1)); });
  expect_state_error([&] {
    mesh.subscribe(b, "temperature >= 0",
                   [](NodeId, SubscriptionId, const Event&) {});
  });
}

TEST_F(MeshRuntimeTest, RejectsCyclesBadIdsAndForeignSchemas) {
  MeshOptions options;
  MeshNetwork mesh(schema_, options);
  for (int i = 0; i < 3; ++i) mesh.add_node();
  mesh.connect(0, 1);
  mesh.connect(1, 2);
  EXPECT_THROW(mesh.connect(0, 2), Error);  // would close the cycle
  EXPECT_THROW(mesh.connect(1, 1), Error);
  EXPECT_THROW(mesh.connect(0, 9), Error);

  mesh.start();
  EXPECT_THROW(mesh.publish(9, make_event(0, 0, 1)), Error);
  EXPECT_THROW(mesh.unsubscribe(12345), Error);

  const SchemaPtr other = testutil::example1_schema();
  EXPECT_THROW(
      mesh.publish(0, Event::from_pairs(other, {{"temperature", 0},
                                                {"humidity", 0},
                                                {"radiation", 1}})),
      Error);
  mesh.shutdown();
}

TEST_F(MeshRuntimeTest, PerLinkStatsTrackForwardingAndRoutingState) {
  const std::unique_ptr<MeshNetwork> net = make_line(RoutingMode::kRouting);
  MeshNetwork& mesh = *net;
  DeliveryLog log;
  mesh.subscribe(3, "temperature >= 35",
                 [&log](NodeId, SubscriptionId key, const Event& event) {
                   log.record(key, event);
                 });
  mesh.wait_idle();

  mesh.publish(0, make_event(40, 0, 1, 1));  // forwarded down the line
  mesh.publish(0, make_event(0, 0, 1, 2));   // rejected at node 0
  mesh.wait_idle();

  const std::vector<mesh::LinkStats> at0 = mesh.link_stats(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0].peer, 1u);
  EXPECT_EQ(at0[0].event_messages, 1u);
  EXPECT_EQ(at0[0].routing_entries, 1u);
  EXPECT_EQ(mesh.stats().event_messages, 3u);  // one hop per line link
  EXPECT_EQ(log.sorted().size(), 1u);
  mesh.shutdown();
}

TEST(MeshTopology, ParsesLinksAndSubscriptions) {
  const mesh::MeshTopology topology = mesh::topology_from_string(
      "# demo\n"
      "nodes 4\n"
      "link 0 1\n"
      "link 1 2\n"
      "link 2 3\n"
      "sub 3 temperature >= 35 && humidity >= 90\n"
      "sub 0 radiation <= 10\n"
      "csub 1 seq({temperature >= 35}, {humidity >= 90}, w=10)\n");
  EXPECT_EQ(topology.nodes, 4u);
  ASSERT_EQ(topology.links.size(), 3u);
  EXPECT_EQ(topology.links[1], (std::pair<net::NodeId, net::NodeId>{1, 2}));
  ASSERT_EQ(topology.subscriptions.size(), 2u);
  EXPECT_EQ(topology.subscriptions[0].first, 3u);
  EXPECT_EQ(topology.subscriptions[0].second,
            "temperature >= 35 && humidity >= 90");
  ASSERT_EQ(topology.composites.size(), 1u);
  EXPECT_EQ(topology.composites[0].first, 1u);
  EXPECT_EQ(topology.composites[0].second,
            "seq({temperature >= 35}, {humidity >= 90}, w=10)");

  // Round-trips through the text renderer.
  const mesh::MeshTopology again =
      mesh::topology_from_string(mesh::topology_to_string(topology));
  EXPECT_EQ(again.nodes, topology.nodes);
  EXPECT_EQ(again.links, topology.links);
  EXPECT_EQ(again.subscriptions, topology.subscriptions);
  EXPECT_EQ(again.composites, topology.composites);
}

TEST(MeshTopology, ParseFailuresCarryLineNumbers) {
  const auto expect_fail = [](const std::string& text,
                              const std::string& fragment) {
    try {
      mesh::topology_from_string(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse);
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_fail("link 0 1\n", "nodes directive");
  expect_fail("nodes 0\n", ">= 1 node");
  expect_fail("nodes 2\nnodes 2\n", "duplicate");
  expect_fail("nodes 2\nlink 0 5\n", "unknown node");
  expect_fail("nodes 2\nlink 0\n", "two node ids");
  expect_fail("nodes 2\nsub 7 temperature >= 0\n", "unknown node");
  expect_fail("nodes 2\nsub 0\n", "expression");
  expect_fail("nodes 2\ncsub 7 disj({a >= 0}, {b >= 0})\n", "unknown node");
  expect_fail("nodes 2\ncsub 0\n", "expression");
  expect_fail("nodes 2\nbogus\n", "unknown directive");
  expect_fail("", "no nodes");
}

/// Driving a mesh from a topology file end to end (the CLI's code path).
TEST(MeshTopology, DrivesAMeshEndToEnd) {
  const SchemaPtr schema = testutil::example1_schema();
  const mesh::MeshTopology topology = mesh::topology_from_string(
      "nodes 3\n"
      "link 0 1\n"
      "link 1 2\n"
      "sub 2 temperature >= 35\n");

  MeshOptions options;
  options.mode = RoutingMode::kRoutingCovered;
  MeshNetwork net(schema, options);
  for (std::size_t n = 0; n < topology.nodes; ++n) net.add_node();
  for (const auto& [a, b] : topology.links) net.connect(a, b);
  net.start();

  std::atomic<std::uint64_t> delivered{0};
  for (const auto& [node, expression] : topology.subscriptions) {
    net.subscribe(node, expression,
                  [&](NodeId, SubscriptionId, const Event&) {
                    delivered.fetch_add(1, std::memory_order_relaxed);
                  });
  }
  net.wait_idle();

  net.publish(0, Event::from_pairs(schema, {{"temperature", 40},
                                            {"humidity", 0},
                                            {"radiation", 1}}));
  net.wait_idle();
  EXPECT_EQ(delivered.load(), 1u);
  net.shutdown();
}

// ---------------------------------------------------------------------------
// Destruction lifecycle: ~MeshNetwork must never throw. The destructor path
// swallows shutdown failures (recording them for a post-mortem
// first_error() read); explicit shutdown() keeps throwing so callers who
// ask get the error.

TEST(MeshLifecycle, DestroyingARunningMeshWithTrafficInFlightIsQuiet) {
  const SchemaPtr schema = testutil::example1_schema();
  // No leak, no terminate: the destructor drains and joins on its own even
  // though wait_idle()/shutdown() were never called and publishes are
  // still in the mailboxes.
  MeshNetwork net(schema);
  net.add_node();
  net.add_node();
  net.connect(0, 1);
  net.start();
  net.subscribe(1, "temperature >= 35",
                [](NodeId, SubscriptionId, const Event&) {});
  for (int i = 0; i < 200; ++i) {
    net.publish(0, Event::from_pairs(schema, {{"temperature", 40},
                                              {"humidity", 0},
                                              {"radiation", 1}}));
  }
}  // destructor runs here, mid-traffic

TEST(MeshLifecycle, DestroyingANeverStartedMeshIsQuiet) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork net(schema);
  net.add_node();
  net.add_node();
  net.connect(0, 1);
}  // never started: nothing to join, nothing thrown

TEST(MeshLifecycle, DestructionAfterExplicitShutdownIsANoOp) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork net(schema);
  net.add_node();
  net.start();
  net.publish(0, Event::from_pairs(schema, {{"temperature", 0},
                                            {"humidity", 0},
                                            {"radiation", 1}}));
  net.shutdown();  // the throwing path — and it reports nothing here
  EXPECT_EQ(net.first_error(), "");
}  // second (destructor) shutdown is idempotent

}  // namespace
}  // namespace genas
