// Tests for first-class composite subscriptions at the Broker: decomposition
// into internal primitive profiles, watermark-driven firing, flush, skew,
// unsubscription, coexistence with plain subscriptions, and re-entrancy from
// composite callbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ens/broker.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class CompositeBrokerTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
  Broker broker_{schema_};
  std::vector<Timestamp> fired_;

  CompositeCallback recorder() {
    return [this](const CompositeFiring& f) { fired_.push_back(f.time); };
  }

  void publish(std::int64_t t, std::int64_t h, std::int64_t r,
               Timestamp time) {
    Event event = Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
    event.set_time(time);
    broker_.publish(event);
  }
};

TEST_F(CompositeBrokerTest, SequenceDetectsAcrossPublishes) {
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  EXPECT_EQ(broker_.composite_count(), 1u);
  // Decomposed leaves are internal: not user subscriptions.
  EXPECT_EQ(broker_.subscription_count(), 0u);

  publish(40, 0, 1, 1);   // A
  publish(0, 95, 1, 5);   // B, 4 <= 10 after A
  EXPECT_TRUE(fired_.empty());  // instant 5 awaits the watermark
  // The watermark advances on primitive (leaf-matching) stimuli: a later A
  // pushes it past instant 5 and the sequence fires — no flush needed.
  publish(40, 0, 1, 6);
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));
}

TEST_F(CompositeBrokerTest, FlushReleasesTheTail) {
  broker_.subscribe_composite(
      conj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  publish(0, 95, 1, 2);
  publish(40, 0, 1, 7);
  EXPECT_TRUE(fired_.empty());
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{7}));
}

TEST_F(CompositeBrokerTest, OneEventCanCompleteAConjunctionAlone) {
  // A single event matching both leaves is one simultaneous instant.
  broker_.subscribe_composite(
      conj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  publish(40, 95, 1, 3);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{3}));
}

TEST_F(CompositeBrokerTest, SkewToleratesOutOfOrderPublishes) {
  broker_.set_composite_skew(100);
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  // B arrives before A (timestamp-wise): the reorder stage sorts them.
  publish(0, 95, 1, 8);
  publish(40, 0, 1, 6);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{8}));
}

TEST_F(CompositeBrokerTest, TextualFormSubscribes) {
  broker_.subscribe_composite(
      "seq({temperature >= 35}, {humidity >= 90}, w=10)", recorder());
  publish(40, 0, 1, 1);
  publish(0, 95, 1, 5);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));
}

TEST_F(CompositeBrokerTest, UnsubscribeCompositeRemovesLeaves) {
  const CompositeId id = broker_.subscribe_composite(
      disj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90"))),
      recorder());
  publish(40, 0, 1, 1);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{1}));

  broker_.unsubscribe_composite(id);
  EXPECT_EQ(broker_.composite_count(), 0u);
  // The internal leaf subscriptions are gone: a matching event produces no
  // notification (and thus no further firing).
  const std::uint64_t notifications_before =
      broker_.counters().notifications;
  publish(40, 95, 1, 3);
  broker_.flush_composites();
  EXPECT_EQ(fired_.size(), 1u);
  EXPECT_EQ(broker_.counters().notifications, notifications_before);
  EXPECT_THROW(broker_.unsubscribe_composite(id), Error);
}

TEST_F(CompositeBrokerTest, CoexistsWithPlainSubsAndCountsLeafTaps) {
  // The composite tap must not disturb plain subscriptions, and the
  // broker's notification count covers both: the mesh reads it as the
  // node's delivery count, leaf taps included.
  int plain_seen = 0;
  broker_.subscribe("temperature >= 35",
                    [&](const Notification&) { ++plain_seen; });
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());

  const std::uint64_t notifications_before =
      broker_.counters().notifications;
  publish(40, 0, 1, 1);
  publish(0, 95, 1, 2);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{2}));
  EXPECT_EQ(plain_seen, 1);
  // The plain delivery and both internal leaf taps.
  EXPECT_EQ(broker_.counters().notifications - notifications_before, 3u);
  EXPECT_EQ(broker_.subscription_count(), 1u);
}

TEST_F(CompositeBrokerTest, CompositeCallbackMayReenterTheBroker) {
  CompositeId second = 0;
  std::vector<Timestamp> second_fired;
  const CompositeId first = broker_.subscribe_composite(
      disj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90"))),
      [&](const CompositeFiring& f) {
        fired_.push_back(f.time);
        if (second == 0) {
          second = broker_.subscribe_composite(
              disj(primitive(parse_profile(schema_, "radiation >= 50")),
                   primitive(parse_profile(schema_, "radiation >= 90"))),
              [&](const CompositeFiring& g) {
                second_fired.push_back(g.time);
              });
        }
      });
  publish(40, 0, 1, 1);
  broker_.flush_composites();  // fires the first; its callback adds `second`
  publish(0, 0, 60, 2);        // matches only the re-entrantly added one
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{1}));
  EXPECT_EQ(second_fired, (std::vector<Timestamp>{2}));

  // Re-entrant unsubscribe from a composite callback.
  CompositeId third = 0;
  third = broker_.subscribe_composite(
      disj(primitive(parse_profile(schema_, "temperature <= -20")),
           primitive(parse_profile(schema_, "temperature <= -25"))),
      [&](const CompositeFiring& f) {
        fired_.push_back(f.time);
        broker_.unsubscribe_composite(third);
      });
  publish(-22, 0, 1, 10);
  publish(-22, 0, 1, 11);  // advances the watermark: `third` fires at 10 and
                           // unsubscribes itself mid-delivery
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{1, 10}));
  EXPECT_EQ(broker_.composite_count(), 2u);
  broker_.unsubscribe_composite(first);
  broker_.unsubscribe_composite(second);
}

TEST_F(CompositeBrokerTest, Validation) {
  // Detector-level (profile-id) leaves are broker-local: rejected.
  EXPECT_THROW(
      broker_.subscribe_composite(seq(primitive(1), primitive(2), 10),
                                  recorder()),
      Error);
  // Foreign-schema leaves are rejected.
  const SchemaPtr other = testutil::example1_schema();
  EXPECT_THROW(broker_.subscribe_composite(
                   primitive(parse_profile(other, "temperature >= 0")),
                   recorder()),
               Error);
  EXPECT_THROW(broker_.subscribe_composite(
                   primitive(parse_profile(schema_, "temperature >= 0")),
                   nullptr),
               Error);
  EXPECT_THROW(broker_.subscribe_composite(CompositeExprPtr{}, recorder()),
               Error);
  EXPECT_THROW(broker_.unsubscribe_composite(12345), Error);
  EXPECT_THROW(broker_.set_composite_skew(-1), Error);
}

TEST_F(CompositeBrokerTest, IntraExpressionDuplicateLeafRegistersOnce) {
  // Regression: two leaves with equal profiles inside ONE expression used
  // to subscribe twice (dedup was keyed by node pointer, not by profile
  // equality) — burning a second engine registration and a second ingress
  // stimulus per matching event.
  broker_.subscribe_composite(
      disj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "temperature >= 35"))),
      recorder());
  EXPECT_EQ(broker_.composite_leaf_count(), 1u);
  // Engine-level: exactly one registered profile constrains temperature.
  EXPECT_EQ(broker_.profile_statistics().constrained_profiles(
                schema_->id_of("temperature")),
            1u);

  const std::uint64_t before = broker_.counters().notifications;
  publish(40, 0, 1, 1);
  broker_.flush_composites();
  // One internal tap delivery — not one per duplicate — and one firing.
  EXPECT_EQ(broker_.counters().notifications, before + 1);
  EXPECT_EQ(fired_, (std::vector<Timestamp>{1}));

  // Equality is semantic (normalized accepted sets), not textual: a
  // between-spelling of the same range still dedups.
  broker_.subscribe_composite(
      disj(primitive(parse_profile(schema_, "temperature in [35, 50]")),
           primitive(parse_profile(schema_, "humidity >= 90"))),
      recorder());
  EXPECT_EQ(broker_.composite_leaf_count(), 2u);
}

TEST_F(CompositeBrokerTest, SharedLeavesAcrossCompositesAreRefcounted) {
  const CompositeId first = broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  const CompositeId second = broker_.subscribe_composite(
      conj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "radiation >= 50")), 10),
      recorder());
  // Four leaves, three distinct profiles: the temperature leaf is shared.
  EXPECT_EQ(broker_.composite_leaf_count(), 3u);

  // Removing the first composite keeps the shared leaf alive for the
  // second, which must still detect through it.
  broker_.unsubscribe_composite(first);
  EXPECT_EQ(broker_.composite_leaf_count(), 2u);
  publish(40, 0, 60, 5);  // completes the conj in one instant
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));

  // The last reference retracts the registration.
  broker_.unsubscribe_composite(second);
  EXPECT_EQ(broker_.composite_leaf_count(), 0u);
  const std::uint64_t before = broker_.counters().notifications;
  publish(40, 95, 60, 6);
  broker_.flush_composites();
  EXPECT_EQ(broker_.counters().notifications, before);
  EXPECT_EQ(fired_.size(), 1u);
}

TEST_F(CompositeBrokerTest, AdvanceWatermarkFiresSparseStreamsWithoutFlush) {
  broker_.set_composite_skew(50);
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());
  publish(40, 0, 1, 1);  // A
  publish(0, 95, 1, 5);  // B — buffered: nothing newer than skew has passed
  EXPECT_TRUE(fired_.empty());
  EXPECT_EQ(broker_.composite_buffered(), 2u);

  // The time-driven tick releases both instants; no flush, no stimulus.
  broker_.advance_watermark(1000);
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));
  EXPECT_EQ(broker_.composite_buffered(), 0u);

  // Bounded-memory regression: a sparse leaf stream with periodic external
  // ticks never accumulates more than the skew window of instants.
  std::size_t max_buffered = 0;
  for (Timestamp t = 2000; t < 3000; t += 25) {
    publish(40, 0, 1, t);
    broker_.advance_watermark(t);
    max_buffered = std::max(max_buffered, broker_.composite_buffered());
  }
  EXPECT_LE(max_buffered, 3u);  // skew 50 / stride 25, plus the edge
}

TEST_F(CompositeBrokerTest, CompositeIndexToggleKeepsFiringsIdentical) {
  // Same broker workload with the dispatch index off (the swept oracle):
  // the firing sequence must match the default exactly.
  Broker swept(schema_);
  swept.set_composite_index_enabled(false);
  std::vector<Timestamp> swept_fired;
  const auto expr = [&] {
    return seq(primitive(parse_profile(schema_, "temperature >= 35")),
               primitive(parse_profile(schema_, "humidity >= 90")), 10);
  };
  broker_.subscribe_composite(expr(), recorder());
  swept.subscribe_composite(expr(), [&](const CompositeFiring& f) {
    swept_fired.push_back(f.time);
  });
  for (Timestamp t = 0; t < 40; ++t) {
    const std::int64_t temp = (t % 3 == 0) ? 40 : 0;
    const std::int64_t hum = (t % 5 == 0) ? 95 : 0;
    Event event = Event::from_pairs(
        schema_,
        {{"temperature", temp}, {"humidity", hum}, {"radiation", 1}});
    event.set_time(t);
    broker_.publish(event);
    swept.publish(event);
  }
  broker_.flush_composites();
  swept.flush_composites();
  EXPECT_FALSE(fired_.empty());
  EXPECT_EQ(fired_, swept_fired);
}

TEST_F(CompositeBrokerTest, NotificationTimestampDrivesDetectionNotArrival) {
  // Detection consumes event timestamps: publishing the same wall-clock
  // instant with distinct event times still orders the sequence.
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 5),
      recorder());
  publish(40, 0, 1, 100);
  publish(0, 95, 1, 200);  // far outside the window
  broker_.flush_composites();
  EXPECT_TRUE(fired_.empty());
}

TEST_F(CompositeBrokerTest, TokenedRedeliveryNeverDoubleFires) {
  // At-least-once transports may hand the broker the same event twice.
  // The default broker's dedup window makes a tokened redelivery invisible
  // to composite detection: the conj fires exactly once.
  broker_.subscribe_composite(
      conj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());

  Event both = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 95}, {"radiation", 1}});
  both.set_time(5);
  broker_.publish(both, 9001);
  broker_.publish(both, 9001);  // redelivery, same token
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{5}));
}

TEST_F(CompositeBrokerTest, UntokenedPublishesBypassTheDedupWindow) {
  // Token 0 (and the plain publish overload) stay untracked by the dedup
  // window — local publishers are exactly-once by construction.
  broker_.subscribe_composite(
      conj(primitive(parse_profile(schema_, "temperature >= 35")),
           primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());

  Event both = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 95}, {"radiation", 1}});
  both.set_time(3);
  Event later = both;
  later.set_time(4);
  broker_.publish(both, 0);  // untracked: both instants fire
  broker_.publish(later, 0);

  Event tracked = both;
  tracked.set_time(5);
  Event tracked_redelivery = both;
  tracked_redelivery.set_time(6);
  broker_.publish(tracked, 500);
  broker_.publish(tracked_redelivery, 500);  // same token: deduped

  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{3, 4, 5}));
}

TEST_F(CompositeBrokerTest, DedupDoesNotSuppressPlainDeliveries) {
  // The window guards composite state only; plain subscribers see every
  // publish (at-least-once duplicates surface as counted deliveries).
  int delivered = 0;
  broker_.subscribe(parse_profile(schema_, "temperature >= 35"),
                    [&](const Notification&) { ++delivered; });
  Event hot = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  hot.set_time(1);
  broker_.publish(hot, 77);
  broker_.publish(hot, 77);
  EXPECT_EQ(delivered, 2);
}

TEST_F(CompositeBrokerTest, BatchPublishThreadsPerEventTokens) {
  broker_.subscribe_composite(
      seq(primitive(parse_profile(schema_, "temperature >= 35")),
          primitive(parse_profile(schema_, "humidity >= 90")), 10),
      recorder());

  Event a = Event::from_pairs(
      schema_, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  a.set_time(1);
  Event b = Event::from_pairs(
      schema_, {{"temperature", 0}, {"humidity", 95}, {"radiation", 1}});
  b.set_time(4);
  const std::vector<Event> events{a, b, a, b};  // redeliveries inline
  const std::vector<std::uint64_t> tokens{11, 12, 11, 12};
  broker_.publish_batch(events, tokens);
  broker_.flush_composites();
  EXPECT_EQ(fired_, (std::vector<Timestamp>{4}));

  EXPECT_THROW(broker_.publish_batch(events, std::vector<std::uint64_t>{1}),
               Error);
}

}  // namespace
}  // namespace genas