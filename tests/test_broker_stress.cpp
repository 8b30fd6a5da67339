// Multithreaded broker stress: publisher threads race subscribe/unsubscribe
// churn and assert the snapshot semantics the threading model promises —
// no lost and no duplicated notifications for subscriptions that are stable
// across a publish, consistent atomic counters, quiescence after an
// unsubscribe has been observed, and adaptive restructuring that never
// changes what gets delivered. Run under -fsanitize=thread in CI (the
// GENAS_SANITIZE=thread configuration) to verify data-race freedom.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "ens/broker.hpp"
#include "match/naive_matcher.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

constexpr int kPublishers = 4;
constexpr int kEventsPerPublisher = 400;

TEST(BrokerStress, NoLostOrDuplicatedNotificationsUnderChurn) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);

  // Stable subscription: matches every event, so it must see exactly one
  // notification per publish — a lost delivery undercounts, a duplicated
  // one overcounts. Per-slot flags catch duplicates of individual events.
  std::atomic<std::uint64_t> stable_notifications{0};
  std::vector<std::atomic<int>> seen(
      static_cast<std::size_t>(kPublishers) * kEventsPerPublisher);
  const SubscriptionId stable = broker.subscribe(
      "temperature >= -30", [&](const Notification& n) {
        stable_notifications.fetch_add(1, std::memory_order_relaxed);
        seen[static_cast<std::size_t>(n.event.time())].fetch_add(
            1, std::memory_order_relaxed);
      });

  // Churn subscription: repeatedly subscribed and unsubscribed while the
  // publishers run; deliveries may race the unsubscribe (documented), but
  // the broker must never crash, deadlock, or misroute.
  std::atomic<std::uint64_t> churn_notifications{0};
  std::atomic<bool> stop{false};

  std::barrier start(kPublishers + 1);
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kEventsPerPublisher; ++i) {
        const Timestamp id = static_cast<Timestamp>(t) * kEventsPerPublisher + i;
        Event event = Event::from_pairs(
            schema,
            {{"temperature", (i * 7) % 81 - 30},
             {"humidity", (t * 31 + i) % 101},
             {"radiation", 1 + (i % 100)}},
            id);
        broker.publish(event);
      }
    });
  }

  std::thread churn([&] {
    start.arrive_and_wait();
    while (!stop.load(std::memory_order_relaxed)) {
      const SubscriptionId id = broker.subscribe(
          "humidity >= 50", [&](const Notification&) {
            churn_notifications.fetch_add(1, std::memory_order_relaxed);
          });
      broker.unsubscribe(id);
    }
  });

  for (std::thread& publisher : publishers) publisher.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kPublishers) * kEventsPerPublisher;
  EXPECT_EQ(stable_notifications.load(), kTotal);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "event " << i << " lost or duplicated";
  }
  EXPECT_EQ(broker.counters().events_published, kTotal);
  EXPECT_EQ(broker.counters().events_matched, kTotal);

  // Quiescence: after every mutator and publisher has joined, one further
  // publish must deliver to the stable subscription only.
  const std::uint64_t churned = churn_notifications.load();
  const PublishResult quiesced =
      broker.publish("temperature = 0; humidity = 99; radiation = 1");
  EXPECT_EQ(quiesced.notified, 1u);
  EXPECT_EQ(churn_notifications.load(), churned);

  broker.unsubscribe(stable);
  EXPECT_EQ(broker.subscription_count(), 0u);
}

TEST(BrokerStress, ConcurrentBatchAndSinglePublishersAgree) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);

  std::atomic<std::uint64_t> notified{0};
  broker.subscribe("radiation >= 1",
                   [&](const Notification&) { notified.fetch_add(1); });

  const JointDistribution joint = testutil::peak_joint(schema, true);
  const std::vector<Event> batch = testutil::event_stream(joint, 256, 5);

  constexpr int kThreads = 4;
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      if (t % 2 == 0) {
        const BatchPublishResult result = broker.publish_batch(batch);
        EXPECT_EQ(result.notified, batch.size());
      } else {
        for (const Event& event : batch) {
          EXPECT_EQ(broker.publish(event).notified, 1u);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kThreads) * batch.size();
  EXPECT_EQ(notified.load(), expected);
  EXPECT_EQ(broker.counters().notifications, expected);
  EXPECT_EQ(broker.counters().events_published, expected);
}

TEST(BrokerStress, SubscribersArrivingMidStreamSeeOnlyLaterEvents) {
  // A subscription created after a publish returns must never have seen
  // that publish; one created before a publish starts must see it. The
  // gray zone is only the true race window.
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);

  std::atomic<int> early_count{0};
  broker.subscribe("temperature >= -30",
                   [&](const Notification&) { early_count.fetch_add(1); });

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 200; ++i) {
      broker.publish("temperature = 10; humidity = 5; radiation = 1");
    }
    done.store(true);
  });

  go.store(true);
  // Subscribe while the publisher runs; count only post-subscribe events.
  std::atomic<int> late_count{0};
  broker.subscribe("temperature >= -30",
                   [&](const Notification&) { late_count.fetch_add(1); });
  publisher.join();

  // The late subscriber saw at most the events published after it joined.
  EXPECT_LE(late_count.load(), early_count.load());
  EXPECT_EQ(early_count.load(), 200);

  // And it reliably sees everything from now on.
  broker.publish("temperature = 0; humidity = 0; radiation = 1");
  EXPECT_GE(late_count.load(), 1);
}

TEST(BrokerStress, AdaptiveDeliveryMatchesNaiveAndStaticBroker) {
  // Publishers alternate two P_e regimes on an adaptive broker, so drift
  // rebuilds swap the tree under concurrent lock-free matching; a static
  // broker gets the same events. Every stable subscription's delivery
  // multiset must equal the NaiveMatcher truth on both brokers.
  const SchemaPtr schema = testutil::example1_schema();
  const std::vector<std::string> expressions = {
      "temperature >= 35",
      "temperature <= -20",
      "humidity >= 90",
      "temperature >= 0 && humidity <= 50",
      "radiation >= 50 && temperature >= 20",
      "humidity <= 10 && radiation <= 30",
      "temperature >= 40 && humidity >= 40 && radiation >= 40",
      "radiation >= 1"};

  EngineOptions adaptive_options;
  adaptive_options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 64;
  adaptive.rebuild_cooldown = 64;
  adaptive.drift_threshold = 0.3;
  adaptive.decay = 0.98;
  adaptive_options.adaptive = adaptive;
  Broker adaptive_broker(schema, adaptive_options);
  Broker static_broker(schema);

  constexpr std::size_t kEvents = 640;  // per publisher
  constexpr std::size_t kBlock = 160;   // events per regime block
  constexpr std::size_t kBatch = 16;    // events per publish_batch call
  constexpr std::size_t kAll = kPublishers * kEvents;
  // Delivery counts per (subscription index, event id); the event id is
  // the event's timestamp.
  std::vector<std::atomic<int>> adaptive_counts(expressions.size() * kAll);
  std::vector<std::atomic<int>> static_counts(expressions.size() * kAll);
  ProfileSet profiles(schema);
  for (std::size_t s = 0; s < expressions.size(); ++s) {
    profiles.add(parse_profile(schema, expressions[s]));
    const auto count_into = [s](std::vector<std::atomic<int>>& counts) {
      return [&counts, s](const Notification& n) {
        counts[s * kAll + static_cast<std::size_t>(n.event.time())]
            .fetch_add(1, std::memory_order_relaxed);
      };
    };
    adaptive_broker.subscribe(expressions[s], count_into(adaptive_counts));
    static_broker.subscribe(expressions[s], count_into(static_counts));
  }

  // Per-publisher event streams, regimes alternating every kBlock events.
  std::vector<std::vector<Event>> streams(kPublishers);
  for (std::size_t t = 0; t < kPublishers; ++t) {
    for (std::size_t block = 0; block * kBlock < kEvents; ++block) {
      const std::vector<Event> part = testutil::event_stream(
          testutil::peak_joint(schema, block % 2 == 1), kBlock,
          100 * t + block + 1);
      for (const Event& event : part) {
        const std::size_t id = t * kEvents + streams[t].size();
        streams[t].push_back(Event::from_indices(
            schema, event.indices(), static_cast<Timestamp>(id)));
      }
    }
  }

  std::atomic<std::uint64_t> churn_notifications{0};
  std::barrier start(kPublishers);
  std::vector<std::thread> publishers;
  for (std::size_t t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&, t] {
      start.arrive_and_wait();
      const std::vector<Event>& stream = streams[t];
      static_assert(kEvents % kBatch == 0);
      for (std::size_t chunk = 0; chunk * kBatch < stream.size(); ++chunk) {
        const std::span<const Event> events(stream.data() + chunk * kBatch,
                                            kBatch);
        if (t == 0 && chunk % 8 == 7) {
          // Publisher 0 churns a subscription now and then (each change
          // also rebuilds, against the current estimate).
          const SubscriptionId churned = adaptive_broker.subscribe(
              "humidity >= 50", [&](const Notification&) {
                churn_notifications.fetch_add(1, std::memory_order_relaxed);
              });
          adaptive_broker.unsubscribe(churned);
        }
        // Every publisher alternates both publish paths, so drift rebuilds
        // land in each of them.
        if ((chunk + t) % 2 == 0) {
          adaptive_broker.publish_batch(events);
          static_broker.publish_batch(events);
        } else {
          for (const Event& event : events) {
            adaptive_broker.publish(event);
            static_broker.publish(event);
          }
        }
      }
    });
  }
  for (std::thread& publisher : publishers) publisher.join();

  EXPECT_GT(adaptive_broker.metrics().snapshot().value(
                "genas_broker_adaptive_rebuilds_total"),
            0)
      << "the regime changes must trigger drift rebuilds";

  const NaiveMatcher oracle(profiles);
  std::size_t expected_total = 0;
  for (const std::vector<Event>& stream : streams) {
    for (const Event& event : stream) {
      const auto id = static_cast<std::size_t>(event.time());
      std::vector<int> want(expressions.size(), 0);
      for (const ProfileId profile : oracle.match(event).matched) {
        want[profile] = 1;
        ++expected_total;
      }
      for (std::size_t s = 0; s < expressions.size(); ++s) {
        const std::size_t slot = s * kAll + id;
        ASSERT_EQ(adaptive_counts[slot].load(), want[s])
            << "adaptive broker, subscription " << s << ", event " << id;
        ASSERT_EQ(static_counts[slot].load(), want[s])
            << "static broker, subscription " << s << ", event " << id;
      }
    }
  }
  EXPECT_GT(expected_total, 0u);
  EXPECT_EQ(static_broker.counters().notifications, expected_total);
  EXPECT_EQ(adaptive_broker.counters().notifications,
            expected_total + churn_notifications.load());
}

}  // namespace
}  // namespace genas
