// Tests for the ENS broker: subscriptions, delivery, counters, statistics.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

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

TEST_F(BrokerTest, CallbackCopyOfTheEventOutlivesThePublish) {
  // A notification views the published event for the duration of the
  // callback only; a callback that keeps the event copies it, and the copy
  // stays valid and equal once the published event is gone.
  std::vector<Event> kept;
  broker_.subscribe("temperature >= 35",
                    [&](const Notification& n) { kept.push_back(n.event); });
  {
    const Event published = Event::from_pairs(
        schema_, {{"temperature", 42}, {"humidity", 7}, {"radiation", 3}},
        11);
    broker_.publish(published);
  }
  // The text overload publishes a temporary that dies before it returns.
  broker_.publish("temperature = 45; humidity = 8; radiation = 4", 12);

  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].schema(), schema_);
  EXPECT_EQ(kept[0].time(), 11);
  EXPECT_EQ(kept[0].indices(),
            Event::from_pairs(schema_, {{"temperature", 42},
                                        {"humidity", 7},
                                        {"radiation", 3}})
                .indices());
  EXPECT_EQ(kept[1].time(), 12);
  EXPECT_EQ(kept[1].value("temperature").as_int(), 45);
  EXPECT_EQ(kept[1].value("radiation").as_int(), 4);
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

TEST_F(BrokerTest, BatchSurvivesSlotEvictionByOtherBrokersMidDrain) {
  // A publish borrows its snapshot from the thread's cache slot, and a
  // thread caches 8 brokers; a ninth evicts one. Broker ids are sequential,
  // so of nine brokers built back to back the first and the last share a
  // slot once the fresh thread's slots are all taken (by the fillers). The
  // first delivery of broker 0's batch subscribes to and publishes on the
  // other eight — the last evicts broker 0's slot mid-drain — then
  // subscribes to and publishes on broker 0, whose rebuild drops its own
  // reference to the old snapshot. The outer batch still reads that
  // snapshot: the rest of its deliveries and its drain hook must arrive
  // exactly once.
  constexpr std::size_t kSlots = 8;
  std::vector<std::unique_ptr<Broker>> fillers;
  for (std::size_t i = 0; i < kSlots; ++i) {
    fillers.push_back(std::make_unique<Broker>(schema_));
  }
  std::vector<std::unique_ptr<Broker>> brokers;
  for (std::size_t i = 0; i <= kSlots; ++i) {
    brokers.push_back(std::make_unique<Broker>(schema_));
  }
  Broker& outer = *brokers[0];

  std::vector<int> inner_fired(brokers.size(), 0);
  int trigger_fired = 0;
  int follower_fired = 0;
  int hooks_run = 0;
  outer.add_drain_hook([&] { ++hooks_run; });
  outer.subscribe("temperature >= 35", [&](const Notification&) {
    if (++trigger_fired > 1) return;
    for (std::size_t b = 1; b < brokers.size(); ++b) {
      brokers[b]->subscribe("temperature >= -30",
                            [&inner_fired, b](const Notification&) {
                              ++inner_fired[b];
                            });
      brokers[b]->publish("temperature = 10; humidity = 1; radiation = 1");
    }
    outer.subscribe("humidity <= 100",
                    [&](const Notification&) { ++inner_fired[0]; });
    outer.publish("temperature = 10; humidity = 1; radiation = 1");
  });
  outer.subscribe("temperature >= 30",
                  [&](const Notification&) { ++follower_fired; });

  std::vector<Event> events;
  for (int i = 0; i < 3; ++i) {
    events.push_back(Event::from_pairs(
        schema_, {{"temperature", 40 + i}, {"humidity", 0}, {"radiation", 1}},
        i));
  }
  BatchPublishResult result;
  std::thread publisher([&] {
    const Event warm = Event::from_pairs(
        schema_, {{"temperature", 0}, {"humidity", 0}, {"radiation", 1}});
    for (const auto& filler : fillers) filler->publish(warm);
    result = outer.publish_batch(events);
  });
  publisher.join();

  EXPECT_EQ(result.notified, 6u);
  EXPECT_EQ(trigger_fired, 3);
  EXPECT_EQ(follower_fired, 3);
  EXPECT_EQ(hooks_run, 2);  // the outer batch and the re-entrant publish
  for (std::size_t b = 0; b < brokers.size(); ++b) {
    EXPECT_EQ(inner_fired[b], 1) << "broker " << b;
  }
}

TEST_F(BrokerTest, DeadBrokersFreeTheirThreadSnapshotSlots) {
  // A thread caches 8 brokers' snapshots. After 8 brokers that published
  // on it are destroyed, two live brokers whose ids share a hashed slot
  // (ids are sequential: the first and the ninth of nine built back to
  // back) must each get a freed slot instead of evicting each other on
  // every publish, which would take the mutation mutex every time.
  constexpr std::size_t kSlots = 8;
  std::vector<std::unique_ptr<Broker>> built;
  for (std::size_t i = 0; i <= kSlots + 1; ++i) {
    built.push_back(std::make_unique<Broker>(schema_));
  }
  std::unique_ptr<Broker> first = std::move(built[0]);
  std::unique_ptr<Broker> ninth = std::move(built[kSlots]);
  std::vector<std::unique_ptr<Broker>> doomed;
  for (auto& broker : built) {
    if (broker != nullptr) doomed.push_back(std::move(broker));
  }
  ASSERT_EQ(doomed.size(), kSlots);

  int fired = 0;
  for (Broker* live : {first.get(), ninth.get()}) {
    live->subscribe("temperature >= 35", [&](const Notification&) { ++fired; });
  }
  const Event hot = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  constexpr int kRounds = 500;
  std::thread publisher([&] {
    for (const auto& broker : doomed) broker->publish(hot);
    doomed.clear();  // every slot of this thread now holds a dead broker
    for (int i = 0; i < kRounds; ++i) {
      first->publish(hot);
      ninth->publish(hot);
    }
  });
  publisher.join();

  EXPECT_EQ(fired, 2 * kRounds);
  const auto refreshes = [](const Broker& broker) {
    return broker.metrics().snapshot().value(
        "genas_broker_snapshot_slot_refreshes_total");
  };
  EXPECT_LE(refreshes(*first) + refreshes(*ninth), 2);
}

TEST_F(BrokerTest, TreeBuildsCountOnlyFullBuilds) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 100;
  adaptive.rebuild_cooldown = 100;
  adaptive.decay = 0.99;
  options.adaptive = adaptive;
  Broker broker(schema_, options);
  broker.subscribe("temperature >= 35", [](const Notification&) {});
  const auto scrape = [&](const char* name) {
    return broker.metrics().snapshot().value(name);
  };
  const Event hot = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  broker.publish(hot);
  EXPECT_EQ(scrape("genas_broker_tree_builds_total"), 1);

  // A churn that leaves the profile set as it was recosts the live tree.
  broker.unsubscribe(broker.subscribe("humidity >= 90",
                                      [](const Notification&) {}));
  EXPECT_TRUE(broker.publish(hot).rebuilt);
  EXPECT_EQ(scrape("genas_broker_snapshot_rebuilds_total"), 2);
  EXPECT_EQ(scrape("genas_broker_tree_builds_total"), 1);

  // Drift restructures recost too; a real subscription change builds.
  for (int block = 0; block < 6; ++block) {
    for (const Event& event : testutil::event_stream(
             testutil::peak_joint(schema_, block % 2 == 0), 200,
             static_cast<std::uint64_t>(block) + 1)) {
      broker.publish(event);
    }
  }
  EXPECT_GT(scrape("genas_broker_adaptive_rebuilds_total"), 0);
  EXPECT_EQ(scrape("genas_broker_tree_builds_total"), 1);
  broker.subscribe("humidity >= 90", [](const Notification&) {});
  broker.publish(hot);
  EXPECT_EQ(scrape("genas_broker_tree_builds_total"), 2);
}

}  // namespace
}  // namespace genas
