// Tests for batched link frames in the mesh runtime: publish_batch
// ingress, per-link coalescing metrics, outbox backpressure under a
// stalled peer (bounded by the mailbox capacity with default options),
// exact-cap legacy mode, and batched frames riding the sequenced links a
// fault plan switches on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "mesh/mesh.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

using mesh::MeshNetwork;
using mesh::MeshOptions;
using net::FaultPlan;

Event make_event(const SchemaPtr& schema, std::int64_t temperature,
                 Timestamp time) {
  return Event::from_pairs(
      schema, {{"temperature", temperature}, {"humidity", 50},
               {"radiation", 3}}, time);
}

std::vector<Event> burst(const SchemaPtr& schema, std::size_t count,
                         std::int64_t temperature = 40) {
  std::vector<Event> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(
        make_event(schema, temperature, static_cast<Timestamp>(i + 1)));
  }
  return events;
}

TEST(MeshBatching, PublishBatchDeliversEveryEvent) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork mesh(schema, MeshOptions{});
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::atomic<std::size_t> delivered{0};
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   delivered.fetch_add(1);
                 });
  mesh.wait_idle();

  constexpr std::size_t kEvents = 300;
  mesh.publish_batch(0, burst(schema, kEvents));
  mesh.wait_idle();
  EXPECT_EQ(delivered.load(), kEvents);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(MeshBatching, PublishBatchCarriesDedupTokens) {
  // Replaying a tokenized batch must not double-fire a composite: the
  // tokens flow through the mesh ingress into the node broker's dedup
  // window exactly like publish(node, event, token) singles.
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork mesh(schema, MeshOptions{});
  mesh.add_node();
  mesh.start();

  std::atomic<std::size_t> firings{0};
  mesh.subscribe_composite(
      0, "{temperature >= 35}",
      [&](mesh::NodeId, SubscriptionId, Timestamp) { firings.fetch_add(1); });
  mesh.wait_idle();

  std::vector<Event> events = burst(schema, 4);
  const std::vector<std::uint64_t> tokens = {11, 12, 13, 14};
  mesh.publish_batch(0, events, tokens);
  mesh.publish_batch(0, std::move(events), tokens);  // transport replay
  mesh.wait_idle();
  mesh.flush_composites();
  mesh.wait_idle();

  EXPECT_EQ(firings.load(), 4u);
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(MeshBatching, CoalescingSurfacesInTheStatsSnapshot) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork mesh(schema, MeshOptions{});
  mesh.add_node();
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.connect(1, 2);
  mesh.start();

  std::atomic<std::size_t> delivered{0};
  mesh.subscribe(2, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   delivered.fetch_add(1);
                 });
  mesh.wait_idle();

  constexpr std::size_t kEvents = 400;
  mesh.publish_batch(0, burst(schema, kEvents));
  mesh.wait_idle();
  ASSERT_EQ(delivered.load(), kEvents);

  const obs::StatsSnapshot snapshot = mesh.stats_snapshot();
  const obs::MetricSnapshot* per_frame =
      snapshot.find("genas_mesh_link_events_per_frame");
  ASSERT_NE(per_frame, nullptr);
  const std::uint64_t frames = per_frame->count();
  ASSERT_GT(frames, 0u);
  // Two hops carried 400 events each; coalescing must beat one event per
  // frame by a wide margin (the default cap is 256 per frame).
  EXPECT_GE(per_frame->sum, 2 * kEvents);
  EXPECT_GT(per_frame->sum / frames, 8u)
      << "events per frame: " << per_frame->sum << " / " << frames;
  EXPECT_GT(snapshot.value("genas_mesh_batch_flush_cap_total") +
                snapshot.value("genas_mesh_batch_flush_round_total"),
            0);
  mesh.shutdown();
}

TEST(MeshBatching, CapOfOneKeepsLegacyPerEventFrames) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshOptions options;
  options.link_batch_max = 1;
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::atomic<std::size_t> delivered{0};
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   delivered.fetch_add(1);
                 });
  mesh.wait_idle();

  constexpr std::size_t kEvents = 50;
  mesh.publish_batch(0, burst(schema, kEvents));
  mesh.wait_idle();
  ASSERT_EQ(delivered.load(), kEvents);

  // Every frame carried exactly one event: the histogram's sum equals its
  // observation count.
  const obs::StatsSnapshot snapshot = mesh.stats_snapshot();
  const obs::MetricSnapshot* per_frame =
      snapshot.find("genas_mesh_link_events_per_frame");
  ASSERT_NE(per_frame, nullptr);
  EXPECT_EQ(per_frame->sum, per_frame->count());
  EXPECT_EQ(per_frame->sum, kEvents);
  mesh.shutdown();
}

TEST(MeshBatching, StalledPeerStormIsBoundedByTheOutboxCap) {
  // Regression for the unbounded staging deque: with default options apart
  // from a small mailbox, a subscriber that stops consuming must park
  // publishers at the ingress cap instead of letting the publisher-side
  // outbox grow with the whole storm. The storm is sized so that an
  // unbounded outbox would stage far more than the bound below: each drain
  // round takes at most mailbox_capacity single publishes, and stages one
  // frame.
  const SchemaPtr schema = testutil::example1_schema();
  MeshOptions options;
  options.mailbox_capacity = 8;
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<std::size_t> delivered{0};
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   std::unique_lock<std::mutex> lock(gate_mutex);
                   gate_cv.wait(lock, [&] { return gate_open; });
                   delivered.fetch_add(1);
                 });
  mesh.wait_idle();

  constexpr std::size_t kEvents = 4000;
  std::thread publisher([&] {
    for (std::size_t i = 0; i < kEvents; ++i) {
      mesh.publish(0, make_event(schema, 40, static_cast<Timestamp>(i + 1)));
    }
  });

  // Let the storm hit the stalled subscriber, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const std::scoped_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  publisher.join();
  mesh.wait_idle();
  EXPECT_EQ(delivered.load(), kEvents);
  EXPECT_EQ(mesh.first_error(), "");

  // The staged outbox never grew past the cap plus the traffic that was
  // already admitted (a full mailbox, and a drain round's worth) when the
  // stall began.
  const obs::StatsSnapshot snapshot = mesh.stats_snapshot();
  std::int64_t outbox_hwm = 0;
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    if (metric.name.rfind("genas_mesh_link_outbox_depth_highwater", 0) == 0) {
      outbox_hwm = std::max(outbox_hwm, metric.value);
    }
  }
  const std::int64_t bound =
      static_cast<std::int64_t>(2 * options.mailbox_capacity + 256);
  EXPECT_LE(outbox_hwm, bound)
      << "outbox high-water mark " << outbox_hwm << " exceeds " << bound;
  EXPECT_GT(outbox_hwm, 0);
  mesh.shutdown();
}

TEST(MeshBatching, ShutdownUnblocksPublishersParkedAtTheCap) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshOptions options;
  options.mailbox_capacity = 4;
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event&) {
                   std::unique_lock<std::mutex> lock(gate_mutex);
                   gate_cv.wait(lock, [&] { return gate_open; });
                 });
  mesh.wait_idle();

  std::atomic<bool> rejected{false};
  std::thread publisher([&] {
    try {
      for (std::size_t i = 0; i < 4000; ++i) {
        mesh.publish(0,
                     make_event(schema, 40, static_cast<Timestamp>(i + 1)));
      }
    } catch (const Error& e) {
      rejected.store(e.code() == ErrorCode::kState);
    }
  });

  // Give the publisher time to park at the cap, then open the delivery
  // gate (shutdown drains admitted traffic, so the stalled callback must
  // not block it) and shut down underneath the parked publisher.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const std::scoped_lock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  mesh.shutdown();
  publisher.join();
  // The publisher either finished its storm before the shutdown gate fell
  // or was woken and rejected with kState — it must not hang (join above).
  if (rejected.load()) SUCCEED();
}

TEST(MeshBatching, BatchedFramesRideReliableLinksUnderFaults) {
  // Loss and duplication hit whole batch frames now; the go-back-N links the
  // plan switches on must still deliver every event exactly once, in
  // order, with batching left at its default cap.
  const SchemaPtr schema = testutil::example1_schema();
  auto plan = std::make_shared<FaultPlan>(77);
  plan->drop_chance(0, 1, 0.4, 30);
  plan->duplicate_chance(0, 1, 0.4, 30);

  MeshOptions options;
  options.fault_plan = plan;
  options.link_retransmit_interval = std::chrono::microseconds(500);
  MeshNetwork mesh(schema, options);
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  std::mutex order_mutex;
  std::vector<Timestamp> order;
  mesh.subscribe(1, "temperature >= 35",
                 [&](mesh::NodeId, SubscriptionId, const Event& event) {
                   const std::scoped_lock lock(order_mutex);
                   order.push_back(event.time());
                 });
  mesh.wait_idle();

  constexpr std::size_t kEvents = 500;
  // Many small ingress batches: enough distinct link frames for the fault
  // plan to hit while coalescing still happens within each drain round.
  for (std::size_t chunk = 0; chunk < kEvents; chunk += 20) {
    std::vector<Event> events;
    events.reserve(20);
    for (std::size_t i = chunk; i < chunk + 20; ++i) {
      events.push_back(make_event(schema, 40, static_cast<Timestamp>(i + 1)));
    }
    mesh.publish_batch(0, std::move(events));
  }
  mesh.wait_idle();

  {
    const std::scoped_lock lock(order_mutex);
    ASSERT_EQ(order.size(), kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      EXPECT_EQ(order[i], static_cast<Timestamp>(i + 1));
    }
  }
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

TEST(MeshBatching, NodeBrokerExposesTheEmbeddedBroker) {
  const SchemaPtr schema = testutil::example1_schema();
  MeshNetwork mesh(schema, MeshOptions{});
  mesh.add_node();
  EXPECT_EQ(mesh.node_broker(0).schema(), schema);
  EXPECT_THROW(mesh.node_broker(7), Error);
}

}  // namespace
}  // namespace genas
