// Socket transport tests: the TCP channel's incremental frame reassembly,
// the BrokerServer/RemoteBrokerClient protocol, client-disconnect lifecycle
// cleanup (exactly once, including refcounted composite leaves), and the
// multi-process loopback oracle — a socket-driven workload must produce the
// same delivery and composite-firing multisets as the in-process mesh.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ens/broker.hpp"
#include "mesh/mesh.hpp"
#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "net/socket_channel.hpp"
#include "profile/parser.hpp"
#include "test_util.hpp"
#include "wire/codec.hpp"

namespace genas {
namespace {

using net::BrokerServer;
using net::RemoteBrokerClient;
using net::ServerOptions;
using net::SocketChannel;
using net::SocketListener;
using net::SocketTimeouts;
using namespace std::chrono_literals;

/// Polls `condition` for up to five seconds (socket teardown and mesh
/// retraction are asynchronous; tests assert the converged state).
bool eventually(const std::function<bool()>& condition) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return condition();
}

// ---------------------------------------------------------------------------
// SocketChannel: framing over a real loopback socket.

TEST(SocketChannel, FramesSurviveArbitrarySplitsAndCoalescing) {
  const SchemaPtr schema = testutil::example1_schema();
  SocketListener listener(0);

  SocketChannel client =
      SocketChannel::connect_to("127.0.0.1", listener.port());
  std::optional<SocketChannel> server = listener.accept(5000ms);
  ASSERT_TRUE(server.has_value());

  const Event event = Event::from_pairs(
      schema, {{"temperature", 40}, {"humidity", 9}, {"radiation", 1}});
  const std::vector<std::vector<std::uint8_t>> frames = {
      wire::frame_schema(*schema),
      wire::frame_subscribe(1, parse_profile(schema, "temperature >= 35")),
      wire::frame_event_batch({&event, 1}),
      wire::frame_flush(7),
  };

  // Worst-case fragmentation: every frame dribbles in one byte at a time.
  std::thread writer([&] {
    for (const auto& frame : frames) {
      for (const std::uint8_t byte : frame) {
        client.write_bytes(std::span(&byte, 1));
      }
    }
    // Then the same frames again, coalesced into a single send.
    std::vector<std::uint8_t> all;
    for (const auto& frame : frames) {
      all.insert(all.end(), frame.begin(), frame.end());
    }
    client.write_bytes(all);
    client.shutdown();
  });

  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& expected : frames) {
      std::optional<std::vector<std::uint8_t>> got = server->read_frame();
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, expected);
    }
  }
  EXPECT_FALSE(server->read_frame().has_value());  // clean EOF
  writer.join();
}

TEST(SocketChannel, MidFrameEofIsStateNotParse) {
  SocketListener listener(0);
  SocketChannel client =
      SocketChannel::connect_to("127.0.0.1", listener.port());
  std::optional<SocketChannel> server = listener.accept(5000ms);
  ASSERT_TRUE(server.has_value());

  const std::vector<std::uint8_t> frame = wire::frame_unsubscribe(3);
  client.write_bytes(std::span(frame.data(), frame.size() - 2));
  client.shutdown();

  try {
    server->read_frame();
    FAIL() << "mid-frame EOF must not read as a clean close";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kState) << e.what();
  }
}

TEST(SocketChannel, CorruptStreamIsParse) {
  SocketListener listener(0);
  SocketChannel client =
      SocketChannel::connect_to("127.0.0.1", listener.port());
  std::optional<SocketChannel> server = listener.accept(5000ms);
  ASSERT_TRUE(server.has_value());

  const std::vector<std::uint8_t> garbage(16, 0xFF);
  client.write_bytes(garbage);

  try {
    server->read_frame();
    FAIL() << "corrupt bytes must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParse) << e.what();
  }
}

TEST(SocketChannel, IdleTimeoutBoundsTheFirstByteWait) {
  SocketListener listener(0);
  SocketChannel client =
      SocketChannel::connect_to("127.0.0.1", listener.port());
  std::optional<SocketChannel> server = listener.accept(5000ms);
  ASSERT_TRUE(server.has_value());

  EXPECT_THROW(server->read_frame(20ms), Error);
  (void)client;
}

TEST(SocketChannel, ConnectToClosedPortFails) {
  std::uint16_t dead_port = 0;
  {
    SocketListener probe(0);
    dead_port = probe.port();
  }  // closed: nothing listens there now
  SocketTimeouts timeouts;
  timeouts.connect = 500ms;
  EXPECT_THROW(SocketChannel::connect_to("127.0.0.1", dead_port, timeouts),
               Error);
}

// ---------------------------------------------------------------------------
// BrokerServer + RemoteBrokerClient against a standalone broker.

TEST(BrokerServerSocket, FlushBarrierDrainsOwnDeliveries) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  RemoteBrokerClient client("127.0.0.1", server.port());
  std::mutex mutex;
  std::vector<std::string> seen;
  client.subscribe("temperature >= 35", [&](const Notification& n) {
    const std::scoped_lock lock(mutex);
    seen.push_back(n.event.to_string());
  });

  constexpr int kEvents = 100;
  for (int i = 0; i < kEvents; ++i) {
    client.publish("temperature = 40; humidity = " + std::to_string(i % 100) +
                       "; radiation = 1",
                   i);
  }
  client.flush();

  // The barrier contract: when flush() returns, every delivery caused by
  // this client's earlier publishes has been dispatched locally.
  {
    const std::scoped_lock lock(mutex);
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kEvents));
  }
  EXPECT_EQ(client.deliveries(), static_cast<std::uint64_t>(kEvents));

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
}

TEST(BrokerServerSocket, CompositeSubscriptionsFireOverTheSocket) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  RemoteBrokerClient client("127.0.0.1", server.port());
  std::mutex mutex;
  std::vector<Timestamp> fired;
  const SubscriptionId csub = client.subscribe_composite(
      "seq({temperature >= 35}, {humidity >= 90}, w=10)",
      [&](const CompositeFiring& f) {
        const std::scoped_lock lock(mutex);
        fired.push_back(f.time);
      });
  ASSERT_NE(csub, 0u);

  client.publish("temperature = 40; humidity = 10; radiation = 1", 1);
  client.publish("temperature = 0; humidity = 95; radiation = 1", 4);
  client.flush();  // drains buffered composite instants before replying

  {
    const std::scoped_lock lock(mutex);
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], 4);
  }
  EXPECT_EQ(client.firings(), 1u);

  client.close();
  server.stop();
  EXPECT_EQ(server.first_error(), "");
}

// Satellite: a client that disconnects mid-stream while it still holds
// plain and composite subscriptions (with refcount-deduplicated leaves)
// must have everything retracted exactly once.
TEST(BrokerServerSocket, DisconnectRetractsSubscriptionsExactlyOnce) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  const std::size_t base_subs = broker.subscription_count();
  const std::size_t base_comps = broker.composite_count();
  const std::size_t base_leaves = broker.composite_leaf_count();

  BrokerServer server(broker);
  server.start();

  {
    RemoteBrokerClient client("127.0.0.1", server.port());
    client.subscribe("temperature >= 35", [](const Notification&) {});
    client.subscribe("humidity <= 5", [](const Notification&) {});
    // Two composites sharing the {temperature >= 35} leaf: the dedup layer
    // must count three distinct leaves, not four.
    client.subscribe_composite(
        "seq({temperature >= 35}, {humidity >= 90}, w=5)",
        [](const CompositeFiring&) {});
    client.subscribe_composite(
        "conj({temperature >= 35}, {radiation >= 50}, w=5)",
        [](const CompositeFiring&) {});
    client.flush();  // all four subscribe frames processed

    EXPECT_EQ(broker.subscription_count(), base_subs + 2);
    EXPECT_EQ(broker.composite_count(), base_comps + 2);
    EXPECT_EQ(broker.composite_leaf_count(), base_leaves + 3);

    // Keep deliveries in flight while the client goes away.
    broker.publish("temperature = 45; humidity = 2; radiation = 60", 1);
    client.close();  // socket close only — no unsubscribe frames sent
  }

  ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_EQ(broker.subscription_count(), base_subs);
  EXPECT_EQ(broker.composite_count(), base_comps);
  EXPECT_EQ(broker.composite_leaf_count(), base_leaves);
  // A double-retraction would have thrown kNotFound inside cleanup and been
  // recorded; clean lifecycle leaves no error behind.
  EXPECT_EQ(server.first_error(), "");

  server.stop();
}

// Same retraction contract for an *abrupt* disconnect: the raw socket dies
// without any goodbye while subscribe state is live.
TEST(BrokerServerSocket, AbruptDisconnectRetractsAsWell) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  {
    SocketChannel raw = SocketChannel::connect_to("127.0.0.1", server.port());
    std::optional<std::vector<std::uint8_t>> handshake = raw.read_frame();
    ASSERT_TRUE(handshake.has_value());

    raw.write_frame(
        wire::frame_subscribe(1, parse_profile(schema, "temperature >= 35")));
    raw.write_frame(wire::frame_composite_subscribe(
        2, *parse_composite(schema,
                            "seq({temperature >= 35}, {humidity >= 90}, w=5)")));
    ASSERT_TRUE(eventually([&] { return broker.subscription_count() == 1; }));
    ASSERT_TRUE(eventually([&] { return broker.composite_count() == 1; }));
    // `raw` goes out of scope: the descriptor closes with state installed.
  }

  ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_EQ(broker.subscription_count(), 0u);
  EXPECT_EQ(broker.composite_count(), 0u);
  EXPECT_EQ(broker.composite_leaf_count(), 0u);
  EXPECT_EQ(server.first_error(), "");

  server.stop();
}

TEST(BrokerServerSocket, CorruptClientIsRecordedAndServerStaysUp) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  {
    SocketChannel raw = SocketChannel::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(raw.read_frame().has_value());  // handshake
    const std::vector<std::uint8_t> garbage(32, 0xAB);
    raw.write_bytes(garbage);
    // Server must notice the corrupt stream and drop us.
    ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  }
  EXPECT_NE(server.first_error(), "");

  // ...but the listener survives: a fresh, well-behaved client still works.
  RemoteBrokerClient client("127.0.0.1", server.port());
  client.subscribe("temperature >= 35", [](const Notification&) {});
  client.publish("temperature = 40; humidity = 50; radiation = 1", 1);
  client.flush();
  EXPECT_EQ(client.deliveries(), 1u);
  client.close();

  server.stop();
}

TEST(BrokerServerSocket, ReusingALiveKeyIsAProtocolError) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();

  SocketChannel raw = SocketChannel::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(raw.read_frame().has_value());
  raw.write_frame(
      wire::frame_subscribe(1, parse_profile(schema, "temperature >= 35")));
  raw.write_frame(
      wire::frame_subscribe(1, parse_profile(schema, "humidity <= 5")));

  // The server closes the connection and records the protocol error; the
  // lone valid subscription is still retracted by the cleanup path.
  ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  EXPECT_NE(server.first_error(), "");
  EXPECT_EQ(broker.subscription_count(), 0u);

  server.stop();
}

/// Reads frames until the kFlushDone for `token`, returning how many
/// deliveries arrived before it (both delivery frame types).
std::size_t deliveries_until_flush_done(SocketChannel& channel,
                                        const SchemaPtr& schema,
                                        std::uint64_t token) {
  std::size_t deliveries = 0;
  for (;;) {
    std::optional<std::vector<std::uint8_t>> frame = channel.read_frame();
    if (!frame) {
      ADD_FAILURE() << "connection closed before the flush completed";
      return deliveries;
    }
    const wire::Message message = wire::decode_message(*frame, schema);
    if (const auto* run = std::get_if<wire::DeliveryBatchMsg>(&message)) {
      deliveries += run->keys.size();
    } else if (const auto* done = std::get_if<wire::FlushDoneMsg>(&message)) {
      if (done->token == token) return deliveries;
    }
  }
}

// Client publishes of either event frame type go through one publish path;
// dedup tokens stay server-assigned, so a bare run that carries them — or a
// sequenced envelope that is not exactly one event — is a protocol error
// that drops only the offending connection.
TEST(BrokerServerSocket, BareEventRunsPublishAndClientTokensAreRejected) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  BrokerServer server(broker);
  server.start();
  const auto protocol_errors = [&] {
    return server.metrics().snapshot().value(
        "genas_server_errors_total{category=\"protocol\"}");
  };
  std::vector<Event> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(Event::from_pairs(
        schema, {{"temperature", 40 + i}, {"humidity", 9}, {"radiation", 1}},
        i + 1));
  }

  SocketChannel good = SocketChannel::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(good.read_frame().has_value());  // handshake
  good.write_frame(
      wire::frame_subscribe(1, parse_profile(schema, "temperature >= 35")));
  const std::vector<std::uint8_t> run = wire::frame_event_batch(events);
  ASSERT_EQ(wire::peek_type(run), wire::MessageType::kEventBatch);
  good.write_frame(run);
  good.write_frame(wire::frame_flush(1));
  EXPECT_EQ(deliveries_until_flush_done(good, schema, 1), 3u);

  {
    SocketChannel tokened =
        SocketChannel::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(tokened.read_frame().has_value());
    tokened.write_frame(wire::frame_event_batch(
        events, std::vector<std::uint64_t>{11, 12, 13}));
    ASSERT_TRUE(eventually([&] { return protocol_errors() == 1; }));
    // The server closed this connection without publishing the run.
    EXPECT_FALSE(tokened.read_frame(1000ms).has_value());
  }

  {
    SocketChannel sequenced =
        SocketChannel::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(sequenced.read_frame().has_value());
    sequenced.write_frame(wire::frame_hello(0));
    ASSERT_TRUE(sequenced.read_frame().has_value());  // hello ack
    sequenced.write_frame(wire::frame_link(1, run));  // three events
    ASSERT_TRUE(eventually([&] { return protocol_errors() == 2; }));
    EXPECT_FALSE(sequenced.read_frame(1000ms).has_value());
  }

  // The well-behaved client is still served, and neither rejected frame
  // reached the broker.
  good.write_frame(wire::frame_event_batch({&events[0], 1}));
  good.write_frame(wire::frame_flush(2));
  EXPECT_EQ(deliveries_until_flush_done(good, schema, 2), 1u);
  EXPECT_EQ(broker.counters().events_published, 4u);
  EXPECT_EQ(server.metrics().snapshot().value(
                "genas_server_errors_total{category=\"parse\"}"),
            0);

  good.shutdown();
  server.stop();
}

// ---------------------------------------------------------------------------
// Mesh mode: socket clients participate in distributed routing, and their
// disconnect retracts the routing entries their profiles installed.

TEST(BrokerServerSocket, MeshDisconnectRetractsRoutingEntries) {
  const SchemaPtr schema = testutil::example1_schema();
  mesh::MeshNetwork net(schema);
  const net::NodeId n0 = net.add_node();
  const net::NodeId n1 = net.add_node();
  net.connect(n0, n1);
  net.start();

  BrokerServer server(net, n1);
  server.start();

  net.wait_idle();
  const std::size_t base_routes = net.routing_entries(n0);
  const std::size_t base_local = net.local_subscriptions(n1);

  {
    RemoteBrokerClient client("127.0.0.1", server.port());
    client.subscribe("temperature >= 35", [](const Notification&) {});
    client.subscribe("humidity >= 90", [](const Notification&) {});
    client.flush();  // mesh wait_idle: profile propagation has settled

    EXPECT_EQ(net.local_subscriptions(n1), base_local + 2);
    EXPECT_GT(net.routing_entries(n0), base_routes);

    // The subscription routes: a publish at the far node reaches the client.
    std::mutex mutex;
    std::vector<std::string> seen;
    client.subscribe("radiation >= 80", [&](const Notification& n) {
      const std::scoped_lock lock(mutex);
      seen.push_back(n.event.to_string());
    });
    client.flush();
    net.publish(n0, parse_event(
                        schema,
                        "temperature = 0; humidity = 0; radiation = 90", 1));
    net.wait_idle();
    client.flush();
    {
      const std::scoped_lock lock(mutex);
      EXPECT_EQ(seen.size(), 1u);
    }
    client.close();
  }

  // Disconnect cleanup unsubscribes through the mesh; the remote routing
  // entries those profiles installed must be gone once it settles.
  ASSERT_TRUE(eventually([&] { return server.active_connections() == 0; }));
  ASSERT_TRUE(eventually([&] {
    net.wait_idle();
    return net.routing_entries(n0) == base_routes &&
           net.local_subscriptions(n1) == base_local;
  }));
  EXPECT_EQ(server.first_error(), "");

  server.stop();
  net.shutdown();
  EXPECT_EQ(net.first_error(), "");
}

// ---------------------------------------------------------------------------
// The multi-process loopback oracle.
//
// A child process (forked before this test spawns any threads) runs a
// three-node line mesh with BrokerServers on both end nodes and reports
// their ports over a pipe. The parent drives a publisher client against
// node 0 and a subscriber client against node 2, then replays the identical
// workload on an in-process mesh and compares the delivery and
// composite-firing multisets. Any framing, ordering, or lifecycle bug in
// the socket path shows up as a multiset mismatch.

struct Workload {
  std::vector<std::string> profiles = {
      "temperature >= 35 && humidity >= 90",
      "temperature >= 30 && humidity >= 80",
      "radiation in [40, 100] && humidity <= 5",
  };
  std::string composite = "seq({temperature >= 40}, {humidity >= 95}, w=10)";
  std::vector<std::string> events = {
      "temperature = 40; humidity = 95; radiation = 10",
      "temperature = 36; humidity = 91; radiation = 45",
      "temperature = 31; humidity = 85; radiation = 50",
      "temperature = -25; humidity = 2; radiation = 60",
      "temperature = 45; humidity = 96; radiation = 41",
      "temperature = 10; humidity = 50; radiation = 5",
      "temperature = 41; humidity = 3; radiation = 99",
      "temperature = 0; humidity = 97; radiation = 44",
      "temperature = 39; humidity = 89; radiation = 40",
      "temperature = 50; humidity = 100; radiation = 100",
  };
};

/// Sorted (profile-index, event-string) pairs + sorted firing times —
/// the comparable fingerprint of one workload run.
struct RunResult {
  std::vector<std::pair<std::size_t, std::string>> deliveries;
  std::vector<Timestamp> firings;

  void normalize() {
    std::sort(deliveries.begin(), deliveries.end());
    std::sort(firings.begin(), firings.end());
  }
};

/// The oracle: the same workload through a plain in-process mesh.
RunResult run_in_process(const Workload& workload) {
  const SchemaPtr schema = testutil::example1_schema();
  mesh::MeshNetwork net(schema);
  for (int n = 0; n < 3; ++n) net.add_node();
  net.connect(0, 1);
  net.connect(1, 2);
  net.start();

  RunResult result;
  std::mutex mutex;
  std::map<SubscriptionId, std::size_t> index_of;
  for (std::size_t p = 0; p < workload.profiles.size(); ++p) {
    const SubscriptionId id = net.subscribe(
        2, workload.profiles[p],
        [&result, &mutex, &index_of](net::NodeId, SubscriptionId sub,
                                     const Event& event) {
          const std::scoped_lock lock(mutex);
          result.deliveries.emplace_back(index_of.at(sub), event.to_string());
        });
    index_of.emplace(id, p);
  }
  net.subscribe_composite(
      2, workload.composite,
      [&result, &mutex](net::NodeId, SubscriptionId, Timestamp time) {
        const std::scoped_lock lock(mutex);
        result.firings.push_back(time);
      });
  net.wait_idle();

  for (std::size_t i = 0; i < workload.events.size(); ++i) {
    net.publish(0, parse_event(schema, workload.events[i],
                               static_cast<Timestamp>(i + 1)));
  }
  net.wait_idle();
  net.flush_composites();
  net.shutdown();
  EXPECT_EQ(net.first_error(), "");

  result.normalize();
  return result;
}

/// The child: serve nodes 0 and 2 of the same mesh shape over TCP, write
/// both ports to `port_pipe`, then hold until `hold_pipe` reaches EOF.
/// Communicates failure via a nonzero exit status (gtest's asserts do not
/// cross the fork).
[[noreturn]] void run_oracle_server_child(int port_pipe, int hold_pipe) {
  int status = 0;
  try {
    const SchemaPtr schema = testutil::example1_schema();
    mesh::MeshNetwork net(schema);
    for (int n = 0; n < 3; ++n) net.add_node();
    net.connect(0, 1);
    net.connect(1, 2);
    net.start();

    BrokerServer publish_side(net, 0);
    BrokerServer subscribe_side(net, 2);
    publish_side.start();
    subscribe_side.start();

    const std::uint16_t ports[2] = {publish_side.port(),
                                    subscribe_side.port()};
    if (::write(port_pipe, ports, sizeof(ports)) != sizeof(ports)) _exit(3);
    ::close(port_pipe);

    char byte = 0;
    while (::read(hold_pipe, &byte, 1) > 0) {  // parent never writes
    }
    ::close(hold_pipe);

    publish_side.stop();
    subscribe_side.stop();
    if (!publish_side.first_error().empty()) status = 4;
    if (!subscribe_side.first_error().empty()) status = 5;
    net.shutdown();
    if (!net.first_error().empty()) status = 6;
  } catch (...) {
    status = 7;
  }
  _exit(status);
}

TEST(BrokerServerSocket, MultiProcessOracleMatchesInProcessMesh) {
  const Workload workload;

  int port_pipe[2];
  int hold_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  ASSERT_EQ(::pipe(hold_pipe), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    ::close(hold_pipe[1]);
    run_oracle_server_child(port_pipe[1], hold_pipe[0]);
  }
  ::close(port_pipe[1]);
  ::close(hold_pipe[0]);

  std::uint16_t ports[2] = {0, 0};
  ASSERT_EQ(::read(port_pipe[0], ports, sizeof(ports)),
            static_cast<ssize_t>(sizeof(ports)));
  ::close(port_pipe[0]);

  RunResult remote;
  {
    RemoteBrokerClient publisher("127.0.0.1", ports[0]);
    RemoteBrokerClient subscriber("127.0.0.1", ports[1]);

    std::mutex mutex;
    std::map<SubscriptionId, std::size_t> index_of;
    for (std::size_t p = 0; p < workload.profiles.size(); ++p) {
      const SubscriptionId key = subscriber.subscribe(
          workload.profiles[p],
          [&remote, &mutex, &index_of](const Notification& n) {
            const std::scoped_lock lock(mutex);
            remote.deliveries.emplace_back(index_of.at(n.subscription),
                                           n.event.to_string());
          });
      index_of.emplace(key, p);
    }
    subscriber.subscribe_composite(
        workload.composite, [&remote, &mutex](const CompositeFiring& f) {
          const std::scoped_lock lock(mutex);
          remote.firings.push_back(f.time);
        });
    subscriber.flush();  // subscriptions propagated through the mesh

    for (std::size_t i = 0; i < workload.events.size(); ++i) {
      publisher.publish(workload.events[i], static_cast<Timestamp>(i + 1));
    }
    // Publisher flush: the mesh has fully processed (and routed) every
    // event, and buffered composite instants are drained. Subscriber flush:
    // every delivery frame written before it has been dispatched locally.
    publisher.flush();
    subscriber.flush();

    publisher.close();
    subscriber.close();
  }
  remote.normalize();

  // Release the child and insist on a clean exit before comparing.
  ::close(hold_pipe[1]);
  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const RunResult expected = run_in_process(workload);
  ASSERT_FALSE(expected.deliveries.empty());  // the workload is not vacuous
  ASSERT_FALSE(expected.firings.empty());
  EXPECT_EQ(remote.deliveries, expected.deliveries);
  EXPECT_EQ(remote.firings, expected.firings);
}

}  // namespace
}  // namespace genas
