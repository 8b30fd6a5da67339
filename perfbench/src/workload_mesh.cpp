// The socket probe of a traced run: the client path end to end. A 3-node
// line MeshNetwork (covered routing, default link batching) with one
// BrokerServer per node; a publishing RemoteBrokerClient at node 0 and two
// subscribing clients at nodes 1 and 2, each holding the same range
// profiles.
//
// Sprint rounds publish fixed-size bursts, each closed by flush() on every
// client. Paced rounds publish at a fixed open-loop rate from a sleeping
// generator that stamps each event's due time into Event::time;
// subscribers time each delivery from that due time.
#include <algorithm>
#include <memory>
#include <thread>

#include "dist/sampler.hpp"
#include "match/naive_matcher.hpp"
#include "mesh/mesh.hpp"
#include "net/broker_server.hpp"
#include "net/remote_client.hpp"
#include "sim/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace genas;

namespace {

constexpr std::size_t kProfiles = 240;
/// Seed of the profile set (bench_mesh's).
constexpr std::uint64_t kProfileSeed = 33;
constexpr std::size_t kStreamEvents = 16384;
constexpr std::size_t kSprintEvents = 2048;
/// Open-loop rate of the paced rounds (events/s), fixed by the benchmark.
constexpr double kPacedRate = 10000;
/// kRounds sprint rounds alternate with as many paced rounds, each
/// kRoundSeconds long.
constexpr std::size_t kRounds = 2;
constexpr double kRoundSeconds = 0.5;

/// bench_mesh's range-profile recipe: range profiles over `schema`, 30%
/// don't-care, mean width 0.15, gauss P_p.
ProfileSet make_range_profiles(const SchemaPtr& schema) {
  ProfileWorkloadOptions options;
  options.count = kProfiles;
  options.dont_care_probability = 0.3;
  options.equality_only = false;
  options.range_width_mean = 0.15;
  options.seed = kProfileSeed;
  return generate_profiles(schema,
                           make_profile_distributions(schema, {"gauss"}),
                           options);
}

std::uint64_t mix(std::uint64_t time, std::uint64_t key) {
  std::uint64_t state = time * 0x9E3779B97F4A7C15ULL ^ key;
  return splitmix64(state);
}

/// What one subscribing client observed. Written only by that client's
/// reader thread; read by the main thread after a flush() barrier.
struct Subscriber {
  std::vector<Profile> profiles;          // client-schema copies
  std::vector<std::size_t> profile_of;    // by subscription key
  std::uint64_t delivered = 0;
  std::uint64_t misdirected = 0;
  std::uint64_t hash = 0;  // sum of mix(event time, key) over deliveries
  std::atomic<bool> paced{false};
  std::vector<std::uint32_t> latency;  // ns from due time, paced rounds

  // Oracle side, maintained by the publishing (main) thread.
  std::vector<std::uint64_t> key_of;  // by profile index
  std::uint64_t expected = 0;
  std::uint64_t expected_hash = 0;

  void on_delivery(const Notification& n) {
    ++delivered;
    const std::size_t index =
        n.subscription < profile_of.size() ? profile_of[n.subscription]
                                           : profiles.size();
    if (index >= profiles.size() || !profiles[index].matches(n.event)) {
      ++misdirected;
    }
    hash += mix(static_cast<std::uint64_t>(n.event.time()), n.subscription);
    if (paced.load(std::memory_order_acquire)) {
      const auto due = static_cast<std::uint64_t>(n.event.time());
      latency.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now_ns() - due, UINT32_MAX)));
    }
  }
};

/// One live deployment: mesh, servers, clients.
/// Members are declared in dependency order, so that destruction (reverse
/// order) closes clients before servers and servers before the mesh, and
/// the subscriber state outlives the client reader threads writing it.
struct Rig {
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  std::unique_ptr<mesh::MeshNetwork> mesh;
  std::vector<std::unique_ptr<net::BrokerServer>> servers;
  std::unique_ptr<net::RemoteBrokerClient> publisher;
  std::vector<std::unique_ptr<net::RemoteBrokerClient>> clients;  // nodes 1, 2

  void tear_down() {
    for (auto& client : clients) client->close();
    if (publisher) publisher->close();
    clients.clear();
    publisher.reset();
    for (auto& server : servers) server->stop();
    servers.clear();
    if (mesh) mesh->shutdown();
    mesh.reset();
    subscribers.clear();
  }

  std::string first_error() const {
    if (mesh && !mesh->first_error().empty()) return mesh->first_error();
    for (const auto& server : servers) {
      if (!server->first_error().empty()) return server->first_error();
    }
    if (publisher && !publisher->connected()) return publisher->last_error();
    for (const auto& client : clients) {
      if (!client->connected()) return client->last_error();
    }
    return "";
  }
};

/// Brings the deployment up to the point where every subscription has
/// propagated.
void set_up(Rig& rig, const SchemaPtr& schema) {
  mesh::MeshOptions options;
  options.mode = net::RoutingMode::kRoutingCovered;
  rig.mesh = std::make_unique<mesh::MeshNetwork>(schema, options);
  for (int n = 0; n < 3; ++n) rig.mesh->add_node();
  rig.mesh->connect(0, 1);
  rig.mesh->connect(1, 2);
  rig.mesh->start();
  for (net::NodeId node = 0; node < 3; ++node) {
    rig.servers.push_back(
        std::make_unique<net::BrokerServer>(*rig.mesh, node));
    rig.servers.back()->start();
  }
  rig.publisher = std::make_unique<net::RemoteBrokerClient>(
      "127.0.0.1", rig.servers[0]->port());
  for (std::size_t node = 1; node < 3; ++node) {
    auto client = std::make_unique<net::RemoteBrokerClient>(
        "127.0.0.1", rig.servers[node]->port());
    auto subscriber = std::make_unique<Subscriber>();
    const ProfileSet profiles =
        make_range_profiles(client->schema());
    Subscriber* state = subscriber.get();
    for (const ProfileId id : profiles.active_ids()) {
      const SubscriptionId key = client->subscribe(
          profiles.profile(id),
          [state](const Notification& n) { state->on_delivery(n); });
      if (state->profile_of.size() <= key) state->profile_of.resize(key + 1);
      state->profile_of[key] = state->profiles.size();
      state->key_of.push_back(key);
      state->profiles.push_back(profiles.profile(id));
    }
    rig.clients.push_back(std::move(client));
    rig.subscribers.push_back(std::move(subscriber));
  }
  for (auto& client : rig.clients) client->flush();
  rig.publisher->flush();
}

/// Counters read from the mesh and server scrapes.
struct Scrape {
  double link_event_messages = 0;
  double frames = 0;          // link frames (events-per-frame histogram)
  double frame_events = 0;
  double outbox_highwater = 0;
  double mailbox_highwater = 0;
  double server_frames_written = 0;
  double server_bytes_written = 0;
};

bool has_base(const std::string& name, std::string_view base) {
  return name.size() >= base.size() && name.compare(0, base.size(), base) == 0 &&
         (name.size() == base.size() || name[base.size()] == '{');
}

Scrape scrape(const Rig& rig) {
  Scrape s;
  for (const obs::MetricSnapshot& m : rig.mesh->stats_snapshot().metrics) {
    const auto value = static_cast<double>(m.value);
    if (has_base(m.name, "genas_mesh_link_event_messages_total")) {
      s.link_event_messages += value;
    } else if (has_base(m.name, "genas_mesh_link_events_per_frame")) {
      s.frames += static_cast<double>(m.count());
      s.frame_events += static_cast<double>(m.sum);
    } else if (has_base(m.name, "genas_mesh_link_outbox_depth_highwater")) {
      s.outbox_highwater = std::max(s.outbox_highwater, value);
    } else if (has_base(m.name, "genas_mesh_mailbox_depth_highwater")) {
      s.mailbox_highwater = std::max(s.mailbox_highwater, value);
    }
  }
  for (const auto& server : rig.servers) {
    const obs::StatsSnapshot own = server->metrics().snapshot();
    s.server_frames_written +=
        static_cast<double>(own.value("genas_server_frames_written_total"));
    s.server_bytes_written +=
        static_cast<double>(own.value("genas_server_bytes_written_total"));
  }
  return s;
}

/// The publisher side: event streams (both schemas) and the oracle.
struct Feed {
  std::vector<Event> events;                  // service schema (oracle)
  std::vector<std::vector<std::uint32_t>> matches;  // profile indices
  SchemaPtr client_schema;
  std::uint64_t published = 0;
  std::uint64_t next = 0;
  std::uint64_t failures = 0;

  /// Publishes stream event `next` with timestamp `time`, and books what
  /// each subscriber must receive for it.
  void publish(Rig& rig, std::uint64_t time) {
    const std::size_t k = next++ % events.size();
    const Event event = Event::from_indices(
        client_schema, events[k].indices(), static_cast<Timestamp>(time));
    try {
      Span span("net.client_publish");
      rig.publisher->publish(event);
    } catch (const std::exception&) {
      ++failures;
      return;
    }
    ++published;
    for (auto& subscriber : rig.subscribers) {
      for (const std::uint32_t p : matches[k]) {
        ++subscriber->expected;
        subscriber->expected_hash += mix(time, subscriber->key_of[p]);
      }
    }
  }
};

std::uint64_t total_delivered(const Rig& rig) {
  std::uint64_t total = 0;
  for (const auto& s : rig.subscribers) total += s->delivered;
  return total;
}

/// Flushes every client: afterwards all deliveries of earlier publishes
/// have reached their callbacks. Returns the publisher's flush time (ns).
std::uint64_t flush_all(Rig& rig) {
  const std::uint64_t start = now_ns();
  {
    Span span("net.flush");
    rig.publisher->flush();
  }
  const std::uint64_t elapsed = now_ns() - start;
  for (auto& client : rig.clients) client->flush();
  return elapsed;
}

}  // namespace

void add_socket_metrics(std::uint64_t seed, Result& result) {
  const SchemaPtr schema = make_schema();
  Feed feed;
  {
    EventSampler sampler(make_event_distribution(schema, {"gauss"}),
                         derive_seed(seed, 302));
    feed.events = sampler.sample_batch(kStreamEvents);
    const ProfileSet profiles = make_range_profiles(schema);
    const NaiveMatcher oracle(profiles);
    const std::vector<ProfileId> ids = profiles.active_ids();
    feed.matches.reserve(feed.events.size());
    for (const Event& event : feed.events) {
      std::vector<std::uint32_t> indices;
      for (const ProfileId id : oracle.match(event).matched) {
        indices.push_back(static_cast<std::uint32_t>(
            std::lower_bound(ids.begin(), ids.end(), id) - ids.begin()));
      }
      feed.matches.push_back(std::move(indices));
    }
  }

  Rig rig;
  set_up(rig, schema);
  feed.client_schema = rig.publisher->schema();
  Tracing::set_enabled(true);

  // Warm-up burst: routing tables, link matchers, decode arenas.
  std::uint64_t sequence = 1;
  for (std::size_t i = 0; i < kSprintEvents; ++i) feed.publish(rig, sequence++);
  flush_all(rig);
  const Scrape before = scrape(rig);
  const std::uint64_t published_before = feed.published;
  const std::uint64_t delivered_before = total_delivered(rig);

  const auto round_ns = static_cast<std::uint64_t>(kRoundSeconds * 1e9);
  const auto interval_ns = static_cast<std::uint64_t>(1e9 / kPacedRate);
  std::vector<double> flush_ns;
  std::vector<std::uint32_t> lag_ns;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Sprint: closed-loop bursts, each closed by a flush of every client.
    const std::uint64_t sprint_end = now_ns() + round_ns;
    while (now_ns() < sprint_end) {
      for (std::size_t i = 0; i < kSprintEvents; ++i) {
        feed.publish(rig, sequence++);
      }
      flush_ns.push_back(static_cast<double>(flush_all(rig)));
    }

    // Paced: open loop at kPacedRate, each event timed from its due time.
    const std::uint64_t phase_start = now_ns() + 1000000;
    const std::uint64_t phase_end = phase_start + round_ns;
    for (auto& s : rig.subscribers) s->paced.store(true);
    for (std::uint64_t j = 0;; ++j) {
      const std::uint64_t due = phase_start + j * interval_ns;
      if (due >= phase_end) break;
      std::uint64_t now = now_ns();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
      lag_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(now > due ? now - due : 0, UINT32_MAX)));
      feed.publish(rig, due);
    }
    flush_all(rig);
    for (auto& s : rig.subscribers) s->paced.store(false);
  }
  const std::uint64_t window_delivered =
      total_delivered(rig) - delivered_before;
  const Scrape after = scrape(rig);
  Tracing::set_enabled(false);

  // Oracle: every subscriber received exactly the expected multiset.
  std::uint64_t deviations = feed.failures;
  std::uint64_t expected = 0;
  for (const auto& s : rig.subscribers) {
    expected += s->expected;
    deviations += (s->delivered > s->expected ? s->delivered - s->expected
                                              : s->expected - s->delivered) +
                  s->misdirected;
    if (s->delivered == s->expected && s->misdirected == 0 &&
        s->hash != s->expected_hash) {
      ++deviations;  // right count, wrong multiset
    }
  }
  const std::string error = rig.first_error();
  if (!error.empty()) ++deviations;
  result.attempted += feed.published + feed.failures;
  result.failed += deviations;
  result.info["mesh_failed_ratio"] =
      static_cast<double>(deviations) /
      static_cast<double>(std::max<std::uint64_t>(expected, 1));

  auto spans = Tracing::collect();
  const double published =
      static_cast<double>(feed.published - published_before);
  const double frames_written =
      after.server_frames_written - before.server_frames_written;
  const double bytes_written =
      after.server_bytes_written - before.server_bytes_written;
  const auto delivered =
      static_cast<double>(std::max<std::uint64_t>(window_delivered, 1));
  const double frames = after.frames - before.frames;
  result.add("net.client_publish_us_p50",
             span_quantile_ns(spans, "net.client_publish", 0.5) / 1e3, "us");
  result.add("net.flush_ms", median(flush_ns) / 1e6, "ms");
  result.add("net.frames_written_per_delivery", frames_written / delivered,
             "count");
  result.add("net.bytes_written_per_delivery", bytes_written / delivered,
             "bytes");
  result.add("mesh.hop_latency_us_p50",
             (quantile(rig.subscribers[1]->latency, 0.5) -
              quantile(rig.subscribers[0]->latency, 0.5)) /
                 1e3,
             "us");
  result.add("mesh.link_events_per_frame",
             frames > 0 ? (after.frame_events - before.frame_events) / frames
                        : 0,
             "count");
  result.add("mesh.link_event_messages_per_event",
             (after.link_event_messages - before.link_event_messages) /
                 published,
             "count");
  result.add("mesh.outbox_depth_highwater", after.outbox_highwater, "count");
  result.add("mesh.mailbox_depth_highwater", after.mailbox_highwater, "count");
  result.add("bench.generator_lag_us_p99", quantile(lag_ns, 0.99) / 1e3,
             "us");
  Tracing::reset();
  rig.tear_down();
}

}  // namespace perfbench
