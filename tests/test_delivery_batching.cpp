// Tests for batched delivery streaming (kDeliveryBatch): the BrokerServer
// stages per-notification writes and flushes one frame per publish drain,
// and the RemoteBrokerClient dispatches batch frames per subscription.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ens/broker.hpp"
#include "mesh/mesh.hpp"
#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

using net::BrokerServer;
using net::RemoteBrokerClient;
using net::ServerOptions;
using namespace std::chrono_literals;

bool eventually(const std::function<bool()>& condition) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

std::int64_t frames_written(const BrokerServer& server) {
  return server.stats_snapshot().value("genas_server_frames_written_total");
}

TEST(DeliveryBatching, OnePublishDrainYieldsOneFrame) {
  // Ten overlapping subscriptions match the same event: all ten deliveries
  // ride one kDeliveryBatch frame, flushed by the broker's drain hook at
  // the end of the publish — not ten kDelivery frames.
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  RemoteBrokerClient client("127.0.0.1", server.port());
  std::mutex mutex;
  std::vector<SubscriptionId> seen;
  constexpr std::size_t kSubs = 10;
  for (std::size_t s = 0; s < kSubs; ++s) {
    client.subscribe("temperature >= " + std::to_string(10 + s),
                     [&](const Notification& n) {
                       const std::scoped_lock lock(mutex);
                       seen.push_back(n.subscription);
                     });
  }
  client.flush();  // all ten subscriptions are installed server-side

  const std::int64_t before = frames_written(server);
  broker.publish(Event::from_pairs(
      schema, {{"temperature", 40}, {"humidity", 50}, {"radiation", 3}}));
  ASSERT_TRUE(eventually([&] { return client.deliveries() == kSubs; }));
  const std::int64_t after = frames_written(server);

  EXPECT_EQ(after - before, 1)
      << "expected one batched frame for " << kSubs << " deliveries";
  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(seen.size(), kSubs);
  }

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
}

TEST(DeliveryBatching, BatchesInterleaveCleanlyWithTheFlushBarrier) {
  // A burst of publishes through the client: every delivery must arrive
  // before the matching kFlushDone, whether it rode a batch or not, and
  // none may be lost or duplicated by the staging.
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  RemoteBrokerClient client("127.0.0.1", server.port());
  std::mutex mutex;
  std::vector<Timestamp> seen;
  client.subscribe("temperature >= 35", [&](const Notification& n) {
    const std::scoped_lock lock(mutex);
    seen.push_back(n.event.time());
  });

  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    client.publish("temperature = 40; humidity = 5; radiation = 1", i + 1);
  }
  client.flush();

  {
    const std::scoped_lock lock(mutex);
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(kEvents));
    for (int i = 0; i < kEvents; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(i)], i + 1);
    }
  }

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
}

TEST(DeliveryBatching, MeshModeStreamsBatchedDeliveries) {
  // Socket client at node 1 of a running mesh, publisher at node 0: the
  // deliveries cross the mesh as kEventBatch link frames and reach the
  // client as kDeliveryBatch frames, with the node broker's drain hook
  // closing each mesh worker round.
  const SchemaPtr schema = testutil::example1_schema();
  mesh::MeshNetwork mesh(schema, mesh::MeshOptions{});
  mesh.add_node();
  mesh.add_node();
  mesh.connect(0, 1);
  mesh.start();

  BrokerServer server(mesh, 1);
  server.start();

  RemoteBrokerClient client("127.0.0.1", server.port());
  std::mutex mutex;
  std::vector<Timestamp> seen;
  client.subscribe("temperature >= 35", [&](const Notification& n) {
    const std::scoped_lock lock(mutex);
    seen.push_back(n.event.time());
  });
  client.flush();

  constexpr std::size_t kEvents = 120;
  std::vector<Event> events;
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    events.push_back(Event::from_pairs(
        schema, {{"temperature", 40}, {"humidity", 50}, {"radiation", 3}},
        static_cast<Timestamp>(i + 1)));
  }
  mesh.publish_batch(0, std::move(events));
  mesh.wait_idle();

  ASSERT_TRUE(eventually([&] { return client.deliveries() == kEvents; }));
  {
    const std::scoped_lock lock(mutex);
    ASSERT_EQ(seen.size(), kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
      EXPECT_EQ(seen[i], static_cast<Timestamp>(i + 1));
    }
  }

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
  EXPECT_EQ(mesh.first_error(), "");
  mesh.shutdown();
}

}  // namespace
}  // namespace genas
