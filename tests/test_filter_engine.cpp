// Tests for the FilterEngine facade.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/filter_engine.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class FilterEngineTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();

  Event make_event(std::int64_t t, std::int64_t h, std::int64_t r) {
    return Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
  }
};

TEST_F(FilterEngineTest, SubscribeMatchUnsubscribe) {
  FilterEngine engine(schema_);
  const ProfileId hot = engine.subscribe("temperature >= 35");
  const ProfileId wet = engine.subscribe("humidity >= 90");

  EngineMatch match = engine.match(make_event(40, 95, 1));
  EXPECT_EQ(testutil::sorted(match.matched),
            (std::vector<ProfileId>{hot, wet}));
  EXPECT_GT(match.operations, 0u);

  engine.unsubscribe(hot);
  match = engine.match(make_event(40, 95, 1));
  EXPECT_EQ(match.matched, (std::vector<ProfileId>{wet}));
}

TEST_F(FilterEngineTest, LazyRebuildOnSubscriptionChange) {
  FilterEngine engine(schema_);
  engine.subscribe("temperature >= 35");
  (void)engine.snapshot();
  const std::uint64_t builds = engine.rebuild_count();
  // No change: snapshot() must not rebuild again.
  (void)engine.snapshot();
  EXPECT_EQ(engine.rebuild_count(), builds);
  // Subscription change invalidates.
  engine.subscribe("humidity >= 90");
  (void)engine.snapshot();
  EXPECT_EQ(engine.rebuild_count(), builds + 1);
}

TEST_F(FilterEngineTest, PolicyChangeTriggersRebuildWithNewShape) {
  EngineOptions options;
  options.prior = JointDistribution::independent(
      schema_, {shapes::equal(81), shapes::equal(101), shapes::equal(100)});
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35 && humidity >= 90");
  engine.subscribe("humidity <= 5");

  (void)engine.snapshot();
  OrderingPolicy policy;
  policy.attribute_measure = AttributeMeasure::kA1;
  policy.direction = OrderDirection::kDescending;
  engine.set_policy(policy);
  const std::shared_ptr<const FlatProfileTree> tree = engine.snapshot();
  // Humidity has the larger zero-subdomain: it must now be the root.
  ASSERT_GE(tree->root(), 0);
  EXPECT_EQ(tree->nodes()[static_cast<std::size_t>(tree->root())].attribute,
            schema_->id_of("humidity"));
}

TEST_F(FilterEngineTest, EffectiveDistributionFallsBackToUniformThenPrior) {
  FilterEngine plain(schema_);
  const JointDistribution uniform = plain.effective_distribution();
  EXPECT_NEAR(uniform.marginal(0).pmf(0), 1.0 / 81.0, 1e-12);

  EngineOptions options;
  options.prior = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.9, true, 0.1),
                shapes::equal(101), shapes::equal(100)});
  FilterEngine with_prior(schema_, options);
  EXPECT_GT(with_prior.effective_distribution().marginal(0).mass(
                Interval{73, 80}),
            0.8);
}

TEST_F(FilterEngineTest, AdaptiveLoopRebuildsOnDrift) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 300;
  adaptive.rebuild_cooldown = 300;
  adaptive.drift_threshold = 0.4;
  adaptive.decay = 0.995;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");
  engine.subscribe("temperature <= -20");

  const auto low_joint = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.95, false, 0.1),
                shapes::equal(101), shapes::equal(100)});
  const auto high_joint = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.95, true, 0.1),
                shapes::equal(101), shapes::equal(100)});

  std::uint64_t rebuilds_seen = 0;
  EventSampler low(low_joint, 1);
  for (int i = 0; i < 600; ++i) {
    if (engine.match(low.sample()).rebuilt) ++rebuilds_seen;
  }
  EXPECT_GE(rebuilds_seen, 1u);  // first adaptive optimization

  EventSampler high(high_joint, 2);
  std::uint64_t drift_rebuilds = 0;
  for (int i = 0; i < 2000; ++i) {
    if (engine.match(high.sample()).rebuilt) ++drift_rebuilds;
  }
  EXPECT_GE(drift_rebuilds, 1u) << "regime change must trigger a rebuild";
  ASSERT_NE(engine.adaptive(), nullptr);
  EXPECT_GE(engine.adaptive()->rebuilds(), 2u);
}

TEST_F(FilterEngineTest, TreeDumpFollowsThePriorTheTreeWasBuiltFor) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  options.prior = JointDistribution::independent(
      schema_, {shapes::percent_peak(81, 0.9, true, 0.1), shapes::equal(101),
                shapes::equal(100)});
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35 && humidity >= 90");
  engine.subscribe("temperature <= -20");

  const std::string dump = engine.tree_dump();
  EXPECT_EQ(dump,
            build_tree(engine.profiles(), engine.policy(), *options.prior)
                .dump());
  EXPECT_EQ(engine.rebuild_count(), 1u);  // the dump refreshed the stale tree
  EXPECT_EQ(engine.tree_dump(), dump);    // and did not rebuild it again
  EXPECT_EQ(engine.rebuild_count(), 1u);
}

TEST_F(FilterEngineTest, TreeDumpFollowsTheAdaptiveBaselineAfterDrift) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 300;
  adaptive.rebuild_cooldown = 300;
  adaptive.drift_threshold = 0.4;
  adaptive.decay = 0.995;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");
  engine.subscribe("temperature <= -20");
  const std::string uniform_dump = engine.tree_dump();

  EventSampler low(JointDistribution::independent(
                       schema_, {shapes::percent_peak(81, 0.95, false, 0.1),
                                 shapes::equal(101), shapes::equal(100)}),
                   1);
  for (int i = 0; i < 600; ++i) engine.match(low.sample());
  EventSampler high(JointDistribution::independent(
                        schema_, {shapes::percent_peak(81, 0.95, true, 0.1),
                                  shapes::equal(101), shapes::equal(100)}),
                    2);
  bool drift_rebuilt = false;
  for (int i = 0; i < 2000; ++i) {
    drift_rebuilt |= engine.match(high.sample()).rebuilt;
  }
  ASSERT_TRUE(drift_rebuilt);

  ASSERT_NE(engine.adaptive(), nullptr);
  ASSERT_TRUE(engine.adaptive()->baseline().has_value());
  const std::string dump = engine.tree_dump();
  EXPECT_EQ(dump, build_tree(engine.profiles(), engine.policy(),
                             *engine.adaptive()->baseline())
                      .dump());
  EXPECT_NE(dump, uniform_dump);  // the drift rebuild reshaped the tree
}

TEST_F(FilterEngineTest, SnapshotIsImmutableAcrossMutations) {
  FilterEngine engine(schema_);
  const ProfileId hot = engine.subscribe("temperature >= 35");
  const std::shared_ptr<const FlatProfileTree> snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->source_version(), engine.profiles().version());

  // Mutate and rebuild: the old snapshot must keep matching the old set.
  engine.subscribe("humidity >= 90");
  const std::shared_ptr<const FlatProfileTree> fresh = engine.snapshot();
  EXPECT_NE(fresh, snapshot);

  const Event wet = make_event(0, 95, 1);
  EXPECT_EQ(snapshot->match(wet).matched_count, 0u);  // old: hot only
  ASSERT_EQ(fresh->match(wet).matched_count, 1u);

  const Event both = make_event(40, 95, 1);
  const FlatMatch old_match = snapshot->match(both);
  ASSERT_EQ(old_match.matched_count, 1u);
  EXPECT_EQ(old_match.matched[0], hot);
  EXPECT_EQ(fresh->match(both).matched_count, 2u);
}

TEST_F(FilterEngineTest, ObserveWithoutAdaptiveLoopLeavesMatchingAlone) {
  FilterEngine engine(schema_);
  engine.subscribe("temperature >= 35");
  engine.subscribe("humidity >= 90");
  engine.subscribe("radiation >= 50");

  const std::vector<Event> events = {
      make_event(40, 95, 1),  make_event(0, 0, 99), make_event(-30, 0, 1),
      make_event(36, 91, 77), make_event(35, 90, 50)};

  // Matching the snapshot (what the broker does) agrees with match(), and
  // observe() on a non-adaptive engine neither rebuilds nor swaps it.
  const std::shared_ptr<const FlatProfileTree> snapshot = engine.snapshot();
  const std::uint64_t builds = engine.rebuild_count();
  std::uint64_t snapshot_operations = 0;
  std::uint64_t single_operations = 0;
  std::size_t snapshot_matched_events = 0;
  std::size_t single_matched_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const MatchOutcome from_snapshot = testutil::flat_match(*snapshot, events[i]);
    snapshot_operations += from_snapshot.operations;
    if (!from_snapshot.matched.empty()) ++snapshot_matched_events;
    const EngineMatch single = engine.match(events[i]);
    single_operations += single.operations;
    if (!single.matched.empty()) ++single_matched_events;
    EXPECT_EQ(from_snapshot.matched, single.matched) << "event " << i;
    EXPECT_FALSE(single.rebuilt);
  }
  EXPECT_EQ(snapshot_operations, single_operations);
  EXPECT_EQ(snapshot_matched_events, single_matched_events);
  EXPECT_FALSE(engine.observe(events));

  // A second pass changes nothing either.
  EXPECT_FALSE(engine.observe(events));
  EXPECT_EQ(engine.rebuild_count(), builds);
  EXPECT_EQ(engine.snapshot(), snapshot);
}

TEST_F(FilterEngineTest, ObserveFeedsAdaptiveLoop) {
  EngineOptions options;
  AdaptiveOptions adaptive;
  adaptive.min_observations = 100;
  adaptive.rebuild_cooldown = 100;
  adaptive.drift_threshold = 0.4;
  adaptive.decay = 0.995;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");

  const std::vector<Event> low =
      testutil::event_stream(testutil::peak_joint(schema_, false), 256, 3);
  const std::shared_ptr<const FlatProfileTree> before = engine.snapshot();
  bool rebuilt = false;
  for (int round = 0; round < 4; ++round) {
    rebuilt |= engine.observe(low);
  }
  EXPECT_TRUE(rebuilt);  // batch observations drive the first optimization
  EXPECT_NE(engine.snapshot(), before);  // the rebuild swapped the snapshot
  ASSERT_NE(engine.adaptive(), nullptr);
  EXPECT_EQ(engine.adaptive()->observations(), 4u * 256u);
}

TEST_F(FilterEngineTest, Validation) {
  EXPECT_THROW(FilterEngine(nullptr), Error);
  FilterEngine engine(schema_);
  const SchemaPtr other = testutil::example1_schema();
  EXPECT_THROW(engine.match(Event::from_indices(other, {0, 0, 0})), Error);
  const Event foreign = Event::from_indices(other, {0, 0, 0});
  EngineOptions adaptive;
  adaptive.adaptive = AdaptiveOptions{};
  FilterEngine adaptive_engine(schema_, adaptive);
  EXPECT_THROW(adaptive_engine.observe({&foreign, 1}), Error);
  EXPECT_THROW(engine.unsubscribe(42), Error);

  EngineOptions bad;
  bad.prior = JointDistribution::independent(
      other, {shapes::equal(81), shapes::equal(101), shapes::equal(100)});
  EXPECT_THROW(FilterEngine(schema_, bad), Error);
}

}  // namespace
}  // namespace genas
