// Hostile-scenario suite: deterministic fault drills against the exactness
// oracle. Every scenario runs the canonical sim::run_hostile_mesh workload
// twice — once pristine, once under a seeded FaultPlan (drops, duplicates,
// delays, mid-stream churn, link flap) — and asserts the delivery and
// composite-firing multisets are identical: with at-least-once links and
// receiver-side dedup, injected faults must be invisible to subscribers.
//
// The crash-restart drills run a BrokerServer over a journaled broker,
// kill it mid-stream, restart from the journal, and let a reconnect-mode
// client resume: deliveries and firings must match an uninterrupted run
// (modulo explicit, counted at-least-once duplicates on plain deliveries).
//
// Seed control: every scenario derives from GENAS_CHAOS_SEED when set
// (export GENAS_CHAOS_SEED=n to reproduce a CI failure); the seed is
// echoed into every failure message via a ScopedTrace.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ens/broker.hpp"
#include "ens/composite.hpp"
#include "ens/journal.hpp"
#include "net/broker_server.hpp"
#include "net/fault.hpp"
#include "net/remote_client.hpp"
#include "profile/parser.hpp"
#include "support/hostile.hpp"

namespace genas {
namespace {

using net::FaultPlan;
using net::kAnyLink;
using sim::HostileMeshConfig;
using sim::HostileMeshRun;
using namespace std::chrono_literals;

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("GENAS_CHAOS_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    if (seed != 0) return seed;
  }
  return 20260808;
}

/// Echoes the seed into every assertion failure in the test body.
class Hostile : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = chaos_seed();
    trace_.emplace(__FILE__, __LINE__,
                   "GENAS_CHAOS_SEED=" + std::to_string(seed_));
  }

  HostileMeshConfig config() const {
    HostileMeshConfig c;
    c.seed = seed_;
    return c;
  }

  static void expect_same(const HostileMeshRun& pristine,
                          const HostileMeshRun& hostile) {
    EXPECT_TRUE(pristine.first_error.empty()) << pristine.first_error;
    EXPECT_TRUE(hostile.first_error.empty()) << hostile.first_error;
    EXPECT_EQ(pristine.deliveries, hostile.deliveries);
    EXPECT_EQ(pristine.firings, hostile.firings);
  }

  std::uint64_t seed_ = 0;
  std::optional<::testing::ScopedTrace> trace_;
};

// ---------------------------------------------------------------------------
// Mesh drills: injected link faults must be invisible through reliable links.

TEST_F(Hostile, PristineRunIsDeterministic) {
  const HostileMeshRun first = sim::run_hostile_mesh(config());
  const HostileMeshRun second = sim::run_hostile_mesh(config());
  ASSERT_FALSE(first.deliveries.empty());
  ASSERT_FALSE(first.firings.empty());
  expect_same(first, second);
  EXPECT_EQ(first.faults.dropped, 0u);
}

TEST_F(Hostile, DroppedFramesAreInvisible) {
  const HostileMeshRun pristine = sim::run_hostile_mesh(config());

  HostileMeshConfig hostile = config();
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->drop_nth(0, 1, 2);
  hostile.fault_plan->drop_nth(1, 2, 5);
  hostile.fault_plan->drop_chance(kAnyLink, kAnyLink, 0.10, 50);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.dropped, 0u);
  expect_same(pristine, run);
}

TEST_F(Hostile, DuplicatedFramesAreInvisible) {
  const HostileMeshRun pristine = sim::run_hostile_mesh(config());

  HostileMeshConfig hostile = config();
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->duplicate_nth(0, 1, 1);
  hostile.fault_plan->duplicate_chance(kAnyLink, kAnyLink, 0.15, 60);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.duplicated, 0u);
  expect_same(pristine, run);
}

TEST_F(Hostile, DelayedFramesAreInvisible) {
  const HostileMeshRun pristine = sim::run_hostile_mesh(config());

  HostileMeshConfig hostile = config();
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->delay_nth(2, 3, 3);
  hostile.fault_plan->delay_chance(kAnyLink, kAnyLink, 0.15, 60);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.delayed, 0u);
  expect_same(pristine, run);
}

TEST_F(Hostile, MixedFaultStormIsInvisible) {
  const HostileMeshRun pristine = sim::run_hostile_mesh(config());

  HostileMeshConfig hostile = config();
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->drop_chance(kAnyLink, kAnyLink, 0.10, 40);
  hostile.fault_plan->duplicate_chance(kAnyLink, kAnyLink, 0.10, 40);
  hostile.fault_plan->delay_chance(kAnyLink, kAnyLink, 0.10, 40);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.dropped + run.faults.duplicated + run.faults.delayed,
            0u);
  expect_same(pristine, run);
}

TEST_F(Hostile, LinkFlapDuringCompositeWindows) {
  // Hammer the middle chain link in both directions: composite leaves and
  // their stimuli cross it constantly, so drops land inside open windows.
  const HostileMeshRun pristine = sim::run_hostile_mesh(config());

  HostileMeshConfig hostile = config();
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->drop_chance(1, 2, 0.5, 80);
  hostile.fault_plan->drop_chance(2, 1, 0.5, 80);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.dropped, 0u);
  expect_same(pristine, run);
}

TEST_F(Hostile, ChurnStormUnderFaults) {
  // Mid-stream subscription churn while every link misbehaves: subscribe /
  // unsubscribe propagation and covering promotion must also survive
  // drops, duplicates, and reordering.
  HostileMeshConfig base = config();
  base.churn = true;
  const HostileMeshRun pristine = sim::run_hostile_mesh(base);

  HostileMeshConfig hostile = base;
  hostile.fault_plan = std::make_shared<FaultPlan>(seed_);
  hostile.fault_plan->drop_chance(kAnyLink, kAnyLink, 0.12, 50);
  hostile.fault_plan->duplicate_chance(kAnyLink, kAnyLink, 0.12, 40);
  hostile.fault_plan->delay_chance(kAnyLink, kAnyLink, 0.12, 40);
  const HostileMeshRun run = sim::run_hostile_mesh(hostile);

  EXPECT_GT(run.faults.dropped + run.faults.duplicated + run.faults.delayed,
            0u);
  expect_same(pristine, run);
}

// ---------------------------------------------------------------------------
// Crash-restart drills: BrokerServer + durable journal + reconnect client.

/// Thread-safe multiset recorder ("<tag>:e<id>" / "<tag>:t<time>" entries).
class Recorder {
 public:
  void record(const char* tag, char kind, std::uint64_t n) {
    std::string entry(tag);
    entry += ':';
    entry += kind;
    entry += std::to_string(n);
    const std::scoped_lock lock(mutex_);
    entries_.push_back(std::move(entry));
  }
  std::vector<std::string> sorted() {
    const std::scoped_lock lock(mutex_);
    std::vector<std::string> copy = entries_;
    std::sort(copy.begin(), copy.end());
    return copy;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> entries_;
};

/// Observations plus fault-accounting counters of one drill.
struct DrillRun {
  std::vector<std::string> deliveries;
  std::vector<std::string> firings;
  std::uint64_t reconnects = 0;
  std::uint64_t replayed = 0;    ///< client publishes re-sent on reconnect
  std::uint64_t duplicates = 0;  ///< server-side sequenced-publish drops
};

/// Deterministic stream: an active pattern that keeps composite windows
/// busy, shaped around the injected disruption so the oracle stays exact.
///
/// `quiet_gap` (crash drill): events 28..47 match no profile and no
/// composite leaf (kind 40 is outside every predicate used below), so the
/// at-least-once replays after the restart are observationally inert.
///
/// `cut_zones` (link-cut drill): events within 8 of each chunk boundary
/// (20/40/60) are kind 55 — they match the plain "kind >= 50" subscription
/// (so replayed publishes still produce observable deliveries) but no
/// composite leaf. A cut retracts the client's composite subscription
/// server-side and the resubscribe starts a fresh detector, so a
/// client-registered composite window can never straddle a cut; the zones
/// keep the reference run from firing across boundaries the cut run
/// cannot. (Broker-local composites survive cuts — the mesh drills above
/// cover windows straddling link faults.)
int drill_kind(std::size_t i, bool quiet_gap, bool cut_zones) {
  if (quiet_gap && i >= 28 && i < 48) return 40;
  if (cut_zones) {
    for (std::size_t boundary = 20; boundary <= 60; boundary += 20) {
      if (i + 8 >= boundary && i < boundary + 8) return 55;
    }
  }
  static constexpr int kPattern[] = {65, 85, 5, 95, 55, 15};
  return kPattern[i % 6];
}

constexpr std::size_t kDrillEvents = 80;

/// One end-to-end drill: a journaled broker served over TCP, a
/// reconnect-mode client with plain + composite subscriptions, and a fixed
/// 80-event stream split around a mid-stream disruption. `crash` kills the
/// server AND broker after event 40 and restarts both from the journal on
/// the same port; `cuts` severs just the connections (broker survives) at
/// chunk boundaries. With neither, it is the uninterrupted reference run.
DrillRun run_drill(bool crash, std::size_t cuts, bool quiet_gap,
                   bool cut_zones, const std::string& journal_path) {
  const SchemaPtr schema = sim::hostile_schema();
  Recorder deliveries;
  Recorder firings;

  const auto record_delivery = [&deliveries](const char* tag) {
    return [&deliveries, tag](const Notification& n) {
      deliveries.record(tag, 'e',
                        static_cast<std::uint64_t>(n.event.value("id").as_int()));
    };
  };
  const auto record_firing = [&firings](const char* tag) {
    return [&firings, tag](const CompositeFiring& f) {
      firings.record(tag, 't', static_cast<std::uint64_t>(f.time));
    };
  };

  // Durable broker-side state: one plain and one composite local
  // subscription, journaled so the restarted broker can recover them.
  const Profile local_profile = parse_profile(schema, "kind >= 90");
  const CompositeExprPtr local_composite =
      parse_composite(schema, "conj({kind <= 10}, {kind >= 90}, w=6)");
  SubscriptionJournal journal;
  journal.open(journal_path);
  journal.record_schema(*schema);
  journal.record_subscribe(7, local_profile);
  journal.record_composite_subscribe(9, *local_composite);
  journal.sync();

  auto broker = std::make_unique<Broker>(schema);
  broker->subscribe(local_profile, record_delivery("ld"));
  broker->subscribe_composite(local_composite, record_firing("lc"));

  net::ServerOptions server_options;
  auto server = std::make_unique<net::BrokerServer>(*broker, server_options);
  server->start();
  const std::uint16_t port = server->port();

  net::ClientOptions client_options;
  client_options.max_redials = 100;
  client_options.redial_backoff = 5ms;
  client_options.redial_backoff_cap = 50ms;
  client_options.publish_window = 12;
  net::RemoteBrokerClient client("127.0.0.1", port, client_options);

  client.subscribe("kind >= 50", record_delivery("p0"));
  client.subscribe("kind <= 20", record_delivery("p1"));
  client.subscribe_composite("seq({kind >= 60}, {kind <= 30}, w=8)",
                             record_firing("c0"));

  const auto publish_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      client.publish(Event::from_pairs(
          client.schema(),
          {{"kind", drill_kind(i, quiet_gap, cut_zones)},
           {"id", static_cast<std::int64_t>(i)}},
          static_cast<Timestamp>(i + 1)));
    }
  };

  // The reader notices a severed stream asynchronously; publishes issued
  // before it does go into the dead socket and live only in the client's
  // replay window. Never let more than the window accumulate unprocessed:
  // publish a bounded "blind" prefix after each cut, then wait for the
  // session to resume before continuing (at-least-once only covers what
  // the window retains).
  const auto wait_resumed = [&](std::uint64_t reconnect_count) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline &&
           (client.reconnects() < reconnect_count || !client.connected())) {
      std::this_thread::sleep_for(2ms);
    }
  };

  if (cuts > 0) {
    // Link-flap drill: sever every connection at chunk boundaries; the
    // broker (and its composite windows, which straddle the cuts) survives.
    const std::size_t chunk = kDrillEvents / (cuts + 1);
    const std::size_t blind = client_options.publish_window / 2;
    for (std::size_t c = 0; c <= cuts; ++c) {
      const std::size_t begin = c * chunk;
      const std::size_t end = c == cuts ? kDrillEvents : begin + chunk;
      if (c > 0) {
        publish_range(begin, begin + blind);  // into the severed socket
        wait_resumed(c);
        publish_range(begin + blind, end);
      } else {
        publish_range(begin, end);
      }
      client.flush();
      if (c < cuts) server->disconnect_all();
    }
  } else {
    publish_range(0, kDrillEvents / 2);
    client.flush();
    if (crash) {
      // Kill the service: connections die, broker state (composite
      // detectors, subscription engine) is gone. Recover the control plane
      // from the journal and resume serving on the same port while the
      // client redials.
      server.reset();
      broker.reset();
      journal.close();

      SubscriptionJournal recovered;
      SubscriptionJournal::LoadStats stats;
      const SubscriptionJournal::State& state =
          recovered.open(journal_path, &stats);
      EXPECT_EQ(state.subscriptions.size(), 1u);
      EXPECT_EQ(state.composites.size(), 1u);
      EXPECT_EQ(stats.bytes_dropped, 0u);

      broker = std::make_unique<Broker>(state.schema);
      replay_journal(
          state, *broker,
          [&](std::uint64_t) { return record_delivery("ld"); },
          [&](std::uint64_t) { return record_firing("lc"); });

      server_options.port = port;  // the client is redialing this address
      server = std::make_unique<net::BrokerServer>(*broker, server_options);
      server->start();
      // Resume before phase 2 so its publishes flow over the live session
      // and only the quiet pre-crash window tail is ever replayed.
      wait_resumed(1);
    }
    publish_range(kDrillEvents / 2, kDrillEvents);
    client.flush();
  }

  DrillRun run;
  run.reconnects = client.reconnects();
  run.replayed = client.replayed_publishes();
  run.duplicates = server->duplicate_publishes();
  client.close();
  server.reset();
  run.deliveries = deliveries.sorted();
  run.firings = firings.sorted();
  return run;
}

/// Unique-per-process temp path (drills run with fresh journals).
std::string drill_journal_path(const char* name) {
  std::string path = ::testing::TempDir();
  if (path.empty() || path.back() != '/') path += '/';
  path += "genas_drill_";
  path += name;
  path += '_';
  path += std::to_string(::getpid());
  path += ".journal";
  std::remove(path.c_str());
  return path;
}

TEST_F(Hostile, CrashRestartMidStreamRecoversExactly) {
  // Flushed-before-crash variant: everything delivered before the kill,
  // replays land in the quiet gap — the multisets must match the
  // uninterrupted run exactly.
  const DrillRun reference =
      run_drill(false, 0, true, false, drill_journal_path("crash_ref"));
  const DrillRun crashed =
      run_drill(true, 0, true, false, drill_journal_path("crash"));

  ASSERT_FALSE(reference.deliveries.empty());
  ASSERT_FALSE(reference.firings.empty());
  EXPECT_EQ(reference.deliveries, crashed.deliveries);
  EXPECT_EQ(reference.firings, crashed.firings);
  EXPECT_EQ(crashed.reconnects, 1u);
  // The restarted server adopted the session fresh, so the whole retained
  // window replayed (at-least-once), and none of it was dropped as a
  // duplicate — but every replayed event was observationally inert.
  EXPECT_EQ(crashed.replayed, 12u);
  EXPECT_EQ(crashed.duplicates, 0u);
  EXPECT_EQ(reference.reconnects, 0u);
  EXPECT_EQ(reference.replayed, 0u);
}

TEST_F(Hostile, ServerRestartOverADefaultBrokerKeepsCompositesExact) {
  // A default Broker outlives its BrokerServer, which is destroyed and
  // recreated on the same port. The new server does not know the client's
  // session, so the reconnecting client replays its whole publish window
  // (at-least-once). Each replay carries the same dedup token as the
  // original, and the broker's composite ingress must drop it: the
  // broker-local composite fires exactly as often as in the plain stream.
  const SchemaPtr schema = sim::hostile_schema();
  const std::string expression = "conj({kind <= 10}, {kind >= 90}, w=1)";
  // Five (kind 5, kind 95) pairs one tick apart, ten ticks between pairs:
  // the conj completes once per pair.
  std::vector<Event> stream;
  for (std::int64_t pair = 0; pair < 5; ++pair) {
    for (std::int64_t k = 0; k < 2; ++k) {
      stream.push_back(Event::from_pairs(
          schema, {{"kind", k == 0 ? 5 : 95}, {"id", 2 * pair + k}},
          static_cast<Timestamp>(10 * pair + k + 1)));
    }
  }

  std::atomic<std::size_t> reference{0};
  {
    Broker local(schema);
    local.subscribe_composite(expression, [&](const CompositeFiring&) {
      reference.fetch_add(1);
    });
    for (const Event& event : stream) local.publish(event);
    local.flush_composites();
  }
  ASSERT_EQ(reference.load(), 5u);

  Broker broker(schema);
  std::atomic<std::size_t> fired{0};
  broker.subscribe_composite(expression,
                             [&](const CompositeFiring&) { fired.fetch_add(1); });
  auto server = std::make_unique<net::BrokerServer>(broker);
  server->start();
  net::ServerOptions server_options;
  server_options.port = server->port();

  net::ClientOptions client_options;
  client_options.max_redials = 100;
  client_options.redial_backoff = 5ms;
  client_options.redial_backoff_cap = 50ms;
  net::RemoteBrokerClient client("127.0.0.1", server_options.port,
                                 client_options);
  for (const Event& event : stream) {
    client.publish(Event::from_pairs(
        client.schema(),
        {{"kind", event.value("kind").as_int()},
         {"id", event.value("id").as_int()}},
        event.time()));
  }
  client.flush();
  EXPECT_EQ(fired.load(), reference.load());

  server.reset();
  server = std::make_unique<net::BrokerServer>(broker, server_options);
  server->start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline &&
         (client.reconnects() < 1 || !client.connected())) {
    std::this_thread::sleep_for(2ms);
  }
  client.flush();

  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_EQ(client.replayed_publishes(), stream.size());
  EXPECT_EQ(fired.load(), reference.load());
  EXPECT_GT(broker.composite_duplicates_dropped(), 0u);
  client.close();
  server.reset();
}

TEST_F(Hostile, LinkCutsResumeExactlyOnce) {
  // The broker survives; only connections are severed (three times, with
  // composite windows straddling every cut). Session resume + the server's
  // publish watermark make recovery exactly-once: identical multisets, no
  // quiet gap required.
  const DrillRun reference =
      run_drill(false, 0, false, true, drill_journal_path("cut_ref"));
  const DrillRun cut =
      run_drill(false, 3, false, true, drill_journal_path("cut"));

  ASSERT_FALSE(reference.deliveries.empty());
  ASSERT_FALSE(reference.firings.empty());
  EXPECT_EQ(reference.deliveries, cut.deliveries);
  EXPECT_EQ(reference.firings, cut.firings);
  EXPECT_EQ(cut.reconnects, 3u);
}

}  // namespace
}  // namespace genas
