// End-to-end integration: broker + adaptive engine + composite detector +
// the event-history estimator working together, and the statistics objects
// driving a profile-distribution-aware rebuild (the paper's full §4.2
// workflow).
#include <gtest/gtest.h>

#include "dist/estimator.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "ens/broker.hpp"
#include "ens/composite.hpp"
#include "test_util.hpp"
#include "tree/expected_cost.hpp"

namespace genas {
namespace {

TEST(Integration, BrokerFeedsCompositeDetectorAndHistory) {
  const SchemaPtr schema = testutil::example1_schema();
  Broker broker(schema);
  CompositeDetector detector;
  SchemaEstimator history(schema);

  // Primitive profiles: heat spike (profile 0), humidity spike (profile 1).
  broker.subscribe("temperature >= 40", [&](const Notification& n) {
    detector.on_match(0, n.event.time());
  });
  broker.subscribe("humidity >= 95", [&](const Notification& n) {
    detector.on_match(1, n.event.time());
  });

  int fired = 0;
  detector.add(conj(primitive(0), primitive(1), 10),
               [&](const CompositeFiring&) { ++fired; });

  const auto publish = [&](Timestamp t, std::int64_t temp, std::int64_t hum) {
    const Event event = Event::from_pairs(
        schema,
        {{"temperature", temp}, {"humidity", hum}, {"radiation", 1}}, t);
    history.observe(event);
    broker.publish(event);
  };

  publish(1, 45, 10);   // heat only
  publish(5, 10, 99);   // humidity within 10 -> composite fires
  EXPECT_EQ(fired, 1);
  publish(30, 45, 10);  // heat again
  publish(50, 10, 99);  // humidity 20 later -> outside window
  EXPECT_EQ(fired, 1);

  EXPECT_EQ(history.observations(), 4u);
  EXPECT_EQ(broker.counters().events_published, 4u);
  EXPECT_EQ(broker.counters().notifications, 4u);
}

TEST(Integration, HistoryWarmedEngineMatchesColdEngineSemantics) {
  const SchemaPtr schema = testutil::example1_schema();
  const JointDistribution feed = JointDistribution::independent(
      schema, {shapes::percent_peak(81, 0.9, true, 0.1), shapes::equal(101),
               shapes::equal(100)});

  // Observe history, then hand its empirical distribution to a fresh engine
  // as the prior (the paper's "history of events" workflow).
  SchemaEstimator history(schema);
  for (const Event& event : testutil::event_stream(feed, 2000, 3)) {
    history.observe(event);
  }
  const JointDistribution learned = history.estimate_joint(0.5);

  EngineOptions warm;
  warm.policy.value_order = ValueOrder::kEventProbability;
  warm.prior = learned;
  FilterEngine engine(schema, warm);
  engine.subscribe("temperature >= 35");
  engine.subscribe("temperature <= -10");
  engine.subscribe("humidity >= 90");

  // Semantics must equal the naive truth regardless of the learned order.
  for (const Event& event : testutil::event_stream(feed, 500, 4)) {
    const EngineMatch match = engine.match(event);
    std::vector<ProfileId> expected;
    for (const ProfileId id : engine.profiles().active_ids()) {
      if (engine.profiles().profile(id).matches(event)) {
        expected.push_back(id);
      }
    }
    ASSERT_EQ(match.matched, expected);
  }

  // And the learned order must beat the natural one on this feed. The
  // engines keep only the compiled tree, so each node form is rebuilt from
  // the engine's profiles, policy, and build distribution.
  const auto cost = [&feed](const FilterEngine& e) {
    return expected_cost(build_tree(e.profiles(), e.policy(),
                                    e.effective_distribution()),
                         feed)
        .ops_per_event;
  };
  const double learned_cost = cost(engine);
  FilterEngine cold(schema);
  cold.subscribe("temperature >= 35");
  cold.subscribe("temperature <= -10");
  cold.subscribe("humidity >= 90");
  const double natural_cost = cost(cold);
  EXPECT_LE(learned_cost, natural_cost + 1e-9);
}

TEST(Integration, ProfileStatisticsDriveProfileDistribution) {
  // §4.2: statistic objects derive P_p from registered profiles; verify the
  // derived distribution matches the predicate structure.
  const SchemaPtr schema = testutil::example1_schema();
  ProfileSet set(schema);
  set.add(ProfileBuilder(schema).where("humidity", Op::kGe, 90).build());
  set.add(ProfileBuilder(schema).where("humidity", Op::kGe, 90).build());
  set.add(ProfileBuilder(schema).between("humidity", 0, 10).build());

  ProfileStatistics stats(schema);
  stats.rebuild(set);
  const DiscreteDistribution pp =
      stats.profile_distribution(schema->id_of("humidity"));
  // Mass: values 90..100 referenced twice (2*11=22), 0..10 once (11);
  // total 33.
  EXPECT_NEAR(pp.mass(Interval{90, 100}), 22.0 / 33.0, 1e-12);
  EXPECT_NEAR(pp.mass(Interval{0, 10}), 11.0 / 33.0, 1e-12);
  EXPECT_DOUBLE_EQ(pp.mass(Interval{20, 80}), 0.0);

  // Counter manipulation (the paper's simulation workflow) reshapes P_p.
  stats.set_reference_weight(schema->id_of("humidity"), 50, 100.0);
  const DiscreteDistribution shaped =
      stats.profile_distribution(schema->id_of("humidity"));
  EXPECT_GT(shaped.pmf(50), 0.7);
}

TEST(Integration, AdaptiveBrokerSurvivesChurnUnderLoad) {
  // Subscribe/unsubscribe churn interleaved with publishing and adaptive
  // rebuilds must preserve exact delivery semantics throughout.
  const SchemaPtr schema = testutil::example1_schema();
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 100;
  adaptive.rebuild_cooldown = 100;
  adaptive.drift_threshold = 0.2;
  options.adaptive = adaptive;
  FilterEngine engine(schema, options);

  Rng rng(11);
  std::vector<ProfileId> live;
  const JointDistribution feed = JointDistribution::independent(
      schema, {shapes::gauss(81), shapes::equal(101), shapes::falling(100)});
  const auto stream = testutil::event_stream(feed, 1500, 12);

  for (int step = 0; step < 1500; ++step) {
    if (live.size() < 5 || rng.chance(0.3)) {
      const auto v = rng.range(-30, 49);
      live.push_back(engine.subscribe(
          "temperature >= " + std::to_string(v)));
    } else if (rng.chance(0.3)) {
      const std::size_t pick = rng.below(live.size());
      engine.unsubscribe(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    const Event& event = stream[static_cast<std::size_t>(step)];
    const EngineMatch match = engine.match(event);
    std::vector<ProfileId> expected;
    for (const ProfileId id : live) {
      if (engine.profiles().profile(id).matches(event)) {
        expected.push_back(id);
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(match.matched, expected) << "step " << step;
  }
  EXPECT_GT(engine.rebuild_count(), 1u);
}

}  // namespace
}  // namespace genas
