// Tests for the ENS broker: subscriptions, delivery, counters, statistics.
#include <gtest/gtest.h>

#include <thread>

#include "common/error.hpp"
#include "ens/broker.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
  Broker broker_{schema_};
};

TEST_F(BrokerTest, DeliversToMatchingSubscribers) {
  std::vector<SubscriptionId> fired;
  const SubscriptionId hot = broker_.subscribe(
      "temperature >= 35",
      [&](const Notification& n) { fired.push_back(n.subscription); });
  const SubscriptionId wet = broker_.subscribe(
      "humidity >= 90",
      [&](const Notification& n) { fired.push_back(n.subscription); });
  broker_.subscribe("humidity <= 5", [&](const Notification& n) {
    fired.push_back(n.subscription);
  });

  const PublishResult result =
      broker_.publish("temperature = 40; humidity = 95; radiation = 1");
  EXPECT_EQ(result.notified, 2u);
  EXPECT_EQ(testutil::sorted(std::vector<ProfileId>(
                {static_cast<ProfileId>(fired[0]),
                 static_cast<ProfileId>(fired[1])})),
            testutil::sorted({static_cast<ProfileId>(hot),
                              static_cast<ProfileId>(wet)}));
}

TEST_F(BrokerTest, NotificationCarriesTheEvent) {
  Value seen_temp(0);
  broker_.subscribe("temperature >= 35", [&](const Notification& n) {
    seen_temp = n.event.value("temperature");
  });
  broker_.publish("temperature = 42; humidity = 1; radiation = 1");
  EXPECT_EQ(seen_temp.as_int(), 42);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  int fired = 0;
  const SubscriptionId id = broker_.subscribe(
      "temperature >= 35", [&](const Notification&) { ++fired; });
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  broker_.unsubscribe(id);
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(fired, 1);
  EXPECT_THROW(broker_.unsubscribe(id), Error);
  EXPECT_EQ(broker_.subscription_count(), 0u);
}

TEST_F(BrokerTest, CountersAggregate) {
  broker_.subscribe("temperature >= 35", [](const Notification&) {});
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  broker_.publish("temperature = 0; humidity = 0; radiation = 1");  // miss
  const ServiceCounters counters = broker_.counters();
  EXPECT_EQ(counters.events_published, 2u);
  EXPECT_EQ(counters.events_matched, 1u);
  EXPECT_EQ(counters.notifications, 1u);
  EXPECT_GT(counters.operations, 0u);
  EXPECT_DOUBLE_EQ(counters.match_rate(), 0.5);
  EXPECT_GT(counters.ops_per_event(), 0.0);
}

TEST_F(BrokerTest, CallbacksMayResubscribe) {
  // Callbacks run outside the broker lock: re-entrant subscribe is legal.
  int fired = 0;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    ++fired;
    if (fired == 1) {
      broker_.subscribe("humidity >= 90", [&](const Notification&) {});
    }
  });
  EXPECT_NO_THROW(
      broker_.publish("temperature = 40; humidity = 0; radiation = 1"));
  EXPECT_EQ(broker_.subscription_count(), 2u);
}

TEST_F(BrokerTest, ProfileStatisticsReflectSubscriptions) {
  broker_.subscribe("humidity >= 99", [](const Notification&) {});
  broker_.subscribe("humidity >= 99", [](const Notification&) {});
  const ProfileStatistics stats = broker_.profile_statistics();
  EXPECT_EQ(stats.constrained_profiles(schema_->id_of("humidity")), 2u);
  EXPECT_DOUBLE_EQ(stats.reference_count(schema_->id_of("humidity"), 99), 2.0);
  EXPECT_DOUBLE_EQ(stats.reference_count(schema_->id_of("humidity"), 42), 0.0);
  EXPECT_EQ(stats.operator_count(Op::kGe), 2u);
}

TEST_F(BrokerTest, ConcurrentPublishersAreSerialized) {
  std::atomic<int> fired{0};
  broker_.subscribe("temperature >= 0", [&](const Notification&) { ++fired; });
  constexpr int kPerThread = 200;
  const auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      broker_.publish("temperature = 10; humidity = 5; radiation = 1");
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(fired.load(), 2 * kPerThread);
  EXPECT_EQ(broker_.counters().events_published,
            static_cast<std::uint64_t>(2 * kPerThread));
}

TEST_F(BrokerTest, Validation) {
  EXPECT_THROW(broker_.subscribe("temperature >= 35", nullptr), Error);
  EXPECT_THROW(Broker(nullptr), Error);
}

TEST_F(BrokerTest, PublishBatchMatchesSinglePublishes) {
  Broker single(schema_);
  std::vector<std::pair<SubscriptionId, Timestamp>> batch_seen, single_seen;
  for (Broker* broker : {&broker_, &single}) {
    auto* seen = broker == &broker_ ? &batch_seen : &single_seen;
    broker->subscribe("temperature >= 35", [seen](const Notification& n) {
      seen->emplace_back(n.subscription, n.event.time());
    });
    broker->subscribe("humidity >= 90", [seen](const Notification& n) {
      seen->emplace_back(n.subscription, n.event.time());
    });
  }

  std::vector<Event> events;
  for (Timestamp t = 0; t < 8; ++t) {
    events.push_back(Event::from_pairs(
        schema_,
        {{"temperature", 30 + 2 * t}, {"humidity", 88 + t}, {"radiation", 1}},
        t));
  }

  const BatchPublishResult batch = broker_.publish_batch(events);
  std::size_t single_notified = 0;
  std::uint64_t single_operations = 0;
  std::size_t single_matched_events = 0;
  for (const Event& event : events) {
    const PublishResult result = single.publish(event);
    single_notified += result.notified;
    single_operations += result.operations;
    if (result.notified > 0) ++single_matched_events;
  }

  EXPECT_EQ(batch.events, events.size());
  EXPECT_EQ(batch.notified, single_notified);
  EXPECT_EQ(batch.operations, single_operations);
  EXPECT_EQ(batch.matched_events, single_matched_events);
  EXPECT_EQ(batch_seen, single_seen);

  const ServiceCounters counters = broker_.counters();
  EXPECT_EQ(counters.events_published, events.size());
  EXPECT_EQ(counters.notifications, batch.notified);
  EXPECT_EQ(counters.operations, batch.operations);

  EXPECT_EQ(broker_.publish_batch({}).events, 0u);
}

TEST_F(BrokerTest, PublishBatchDrainsNotificationsOutsideLock) {
  // A callback fired from a batch may re-enter the broker (subscribe or
  // even publish another batch) without deadlocking.
  int fired = 0;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    if (++fired == 1) {
      broker_.subscribe("humidity >= 90", [](const Notification&) {});
      broker_.publish("temperature = 36; humidity = 0; radiation = 1");
    }
  });
  std::vector<Event> events = {
      Event::from_pairs(schema_, {{"temperature", 40},
                                  {"humidity", 0},
                                  {"radiation", 1}})};
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(result.notified, 1u);
  EXPECT_EQ(fired, 2);  // re-entrant publish delivered too
  EXPECT_EQ(broker_.subscription_count(), 2u);
}

TEST_F(BrokerTest, PublishBatchWithAdaptiveEngineStillDelivers) {
  EngineOptions options;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 4;
  adaptive.rebuild_cooldown = 4;
  options.adaptive = adaptive;
  Broker broker(schema_, options);
  int fired = 0;
  broker.subscribe("temperature >= 35", [&](const Notification&) { ++fired; });

  std::vector<Event> events;
  for (int i = 0; i < 16; ++i) {
    events.push_back(Event::from_pairs(
        schema_,
        {{"temperature", 40}, {"humidity", i % 100}, {"radiation", 1}}));
  }
  const BatchPublishResult result = broker.publish_batch(events);
  EXPECT_EQ(result.notified, 16u);
  EXPECT_EQ(fired, 16);
  EXPECT_EQ(broker.counters().events_published, 16u);
}

TEST_F(BrokerTest, AdaptiveBrokerAccountsChurnAndDriftRebuilds) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 50;
  adaptive.rebuild_cooldown = 50;
  adaptive.drift_threshold = 0.3;
  adaptive.decay = 0.98;
  options.adaptive = adaptive;
  Broker broker(schema_, options);
  int fired = 0;
  broker.subscribe("temperature >= 35", [&](const Notification&) { ++fired; });
  const Event hot = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  EXPECT_TRUE(broker.publish(hot).rebuilt);  // first build
  EXPECT_FALSE(broker.publish(hot).rebuilt);

  // A subscription change rebuilds on the next publish, which says so.
  broker.subscribe("humidity >= 90", [&](const Notification&) { ++fired; });
  EXPECT_TRUE(broker.publish(hot).rebuilt);
  EXPECT_EQ(fired, 3);

  // Alternate two P_e regimes until the drift loop has rebuilt the tree.
  bool drift_rebuilt = false;
  for (int block = 0; block < 8; ++block) {
    const std::vector<Event> stream = testutil::event_stream(
        testutil::peak_joint(schema_, block % 2 == 0), 200,
        static_cast<std::uint64_t>(block) + 1);
    for (const Event& event : stream) {
      drift_rebuilt |= broker.publish(event).rebuilt;
    }
  }
  EXPECT_TRUE(drift_rebuilt);

  const obs::StatsSnapshot scrape = broker.metrics().snapshot();
  const std::int64_t snapshot_rebuilds =
      scrape.value("genas_broker_snapshot_rebuilds_total");
  const std::int64_t adaptive_rebuilds =
      scrape.value("genas_broker_adaptive_rebuilds_total");
  EXPECT_GE(snapshot_rebuilds, 2);
  EXPECT_GT(adaptive_rebuilds, 0);
  const obs::MetricSnapshot* pause =
      scrape.find("genas_broker_rebuild_pause_ns");
  ASSERT_NE(pause, nullptr);
  EXPECT_EQ(pause->count(),
            static_cast<std::uint64_t>(snapshot_rebuilds + adaptive_rebuilds));
}

// --- delivery sinks ---------------------------------------------------------

TEST_F(BrokerTest, MultipleDeliverySinksAllObserveAndSetOnlySwapsItsOwn) {
  // Regression: set_delivery_sink used to silently clobber whatever sink was
  // installed — an internal tap could knock out a user sink. Sinks added
  // through add_delivery_sink are independent; set_delivery_sink swaps only
  // the sink it installed itself.
  int user = 0;
  int first_default = 0;
  int second_default = 0;
  broker_.subscribe("temperature >= 35", [](const Notification&) {});

  const SinkId user_sink =
      broker_.add_delivery_sink([&](const Notification&) { ++user; });
  broker_.set_delivery_sink([&](const Notification&) { ++first_default; });

  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(user, 1);
  EXPECT_EQ(first_default, 1);

  // Explicit swap: replaces the previous set_delivery_sink slot only.
  broker_.set_delivery_sink([&](const Notification&) { ++second_default; });
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(user, 2);          // survived the swap
  EXPECT_EQ(first_default, 1); // swapped out
  EXPECT_EQ(second_default, 1);

  // Clearing the default slot leaves added sinks installed.
  broker_.set_delivery_sink(nullptr);
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(user, 3);
  EXPECT_EQ(second_default, 1);

  broker_.remove_delivery_sink(user_sink);
  broker_.publish("temperature = 40; humidity = 0; radiation = 1");
  EXPECT_EQ(user, 3);
  EXPECT_THROW(broker_.remove_delivery_sink(user_sink), Error);
  EXPECT_THROW(broker_.add_delivery_sink(nullptr), Error);
}

TEST_F(BrokerTest, SinksObserveBatchDeliveries) {
  int sink_batch = 0;
  int sink_added = 0;
  broker_.subscribe("temperature >= 35", [](const Notification&) {});
  broker_.set_delivery_sink([&](const Notification&) { ++sink_batch; });
  broker_.add_delivery_sink([&](const Notification&) { ++sink_added; });

  std::vector<Event> events;
  for (int i = 0; i < 4; ++i) {
    events.push_back(Event::from_pairs(
        schema_, {{"temperature", 40}, {"humidity", i}, {"radiation", 1}}));
  }
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(result.notified, 4u);
  EXPECT_EQ(sink_batch, 4);
  EXPECT_EQ(sink_added, 4);
}

TEST_F(BrokerTest, BatchSurvivesReentrantSubscribeAndPublishMidDrain) {
  // Regression: publish_batch used to scope its snapshot handle inside the
  // matching block while the drain dereferenced raw pointers into it — a
  // callback that subscribes (bumping the version) and then publishes
  // (refreshing the thread-local cache, the only other owner) freed the
  // snapshot under the remaining deliveries.
  int follower_fired = 0;
  bool reentered = false;
  broker_.subscribe("temperature >= 35", [&](const Notification&) {
    if (reentered) return;
    reentered = true;
    broker_.subscribe("humidity <= 100", [](const Notification&) {});
    broker_.publish("temperature = 10; humidity = 1; radiation = 1");
  });
  broker_.subscribe("temperature >= 30",
                    [&](const Notification&) { ++follower_fired; });

  std::vector<Event> events;
  events.push_back(Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}}));
  const BatchPublishResult result = broker_.publish_batch(events);
  EXPECT_EQ(result.notified, 2u);
  EXPECT_EQ(follower_fired, 1);
  EXPECT_EQ(broker_.subscription_count(), 3u);
}

}  // namespace
}  // namespace genas
