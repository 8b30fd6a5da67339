// Tests for the FilterEngine facade.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/filter_engine.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
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

// --- Rebuild paths: full build, recost --------------------------------------

/// The tree a full build gives for the engine's profile set and policy.
FlatProfileTree fresh_tree(const FilterEngine& engine,
                           const JointDistribution& distribution) {
  return FlatProfileTree::compile(
      build_tree(engine.profiles(), engine.policy(), distribution));
}

EngineOptions v1_with_prior(const SchemaPtr& schema) {
  EngineOptions options;
  options.policy.value_order = ValueOrder::kEventProbability;
  options.prior = testutil::peak_joint(schema, true, 0.9, 0.1);
  return options;
}

TEST_F(FilterEngineTest, NetNoOpChurnRefreshesWithoutAFullBuild) {
  FilterEngine engine(schema_, v1_with_prior(schema_));
  engine.subscribe("temperature >= 35 && humidity >= 90");
  engine.subscribe("temperature <= -20");
  const std::shared_ptr<const FlatProfileTree> before = engine.snapshot();
  EXPECT_EQ(engine.build_count(), 1u);
  EXPECT_EQ(engine.rebuild_count(), 1u);

  engine.unsubscribe(engine.subscribe("radiation >= 50"));
  const std::shared_ptr<const FlatProfileTree> after = engine.snapshot();
  EXPECT_EQ(engine.build_count(), 1u);
  EXPECT_EQ(engine.rebuild_count(), 2u);
  EXPECT_NE(after, before);
  EXPECT_EQ(after->source_version(), engine.profiles().version());
  EXPECT_TRUE(*after == fresh_tree(engine, engine.effective_distribution()));
  // Fresh, so the next snapshot() does not refresh again.
  EXPECT_EQ(engine.snapshot(), after);
  EXPECT_EQ(engine.rebuild_count(), 2u);
}

TEST_F(FilterEngineTest, DriftRebuildIsNotAFullBuild) {
  EngineOptions options = v1_with_prior(schema_);
  AdaptiveOptions adaptive;
  adaptive.min_observations = 200;
  adaptive.rebuild_cooldown = 200;
  adaptive.drift_threshold = 0.3;
  adaptive.decay = 0.99;
  options.adaptive = adaptive;
  FilterEngine engine(schema_, options);
  engine.subscribe("temperature >= 35");
  engine.subscribe("temperature <= -20 && humidity <= 10");
  (void)engine.snapshot();
  ASSERT_EQ(engine.build_count(), 1u);

  bool drift_rebuilt = false;
  for (const bool high : {false, true, false}) {
    for (const Event& event : testutil::event_stream(
             testutil::peak_joint(schema_, high), 600, high ? 2 : 3)) {
      drift_rebuilt |= engine.observe({&event, 1});
    }
  }
  ASSERT_TRUE(drift_rebuilt);
  EXPECT_GE(engine.rebuild_count(), 3u);
  EXPECT_EQ(engine.build_count(), 1u);
  ASSERT_NE(engine.adaptive(), nullptr);
  EXPECT_TRUE(*engine.snapshot() ==
              fresh_tree(engine, *engine.adaptive()->baseline()));
}

TEST_F(FilterEngineTest, RealChangesAndDistributionDependentShapesBuildOnce) {
  FilterEngine engine(schema_, v1_with_prior(schema_));
  const ProfileId hot = engine.subscribe("temperature >= 35");
  engine.subscribe("humidity >= 90");
  (void)engine.snapshot();
  std::uint64_t builds = engine.build_count();

  const auto expect_one_build = [&](const char* what) {
    (void)engine.snapshot();
    EXPECT_EQ(engine.build_count(), builds + 1) << what;
    EXPECT_EQ(engine.rebuild_count(), engine.build_count()) << what;
    builds = engine.build_count();
    EXPECT_TRUE(*engine.snapshot() ==
                fresh_tree(engine, engine.effective_distribution()))
        << what;
  };

  const ProfileId added = engine.subscribe("radiation >= 50");
  expect_one_build("add");
  engine.unsubscribe(hot);
  expect_one_build("remove");
  // Same size, different set: one id in, another out.
  engine.subscribe("temperature <= -20");
  engine.unsubscribe(added);
  expect_one_build("swap");
  engine.set_priority(engine.profiles().active_ids().front(), 4.0);
  expect_one_build("set_priority");
  OrderingPolicy policy = engine.policy();
  policy.strategy = SearchStrategy::kBinary;
  engine.set_policy(policy);
  expect_one_build("set_policy");

  // Policies that cannot recost rebuild in full even on a no-op churn.
  OrderingPolicy natural;
  natural.value_order = ValueOrder::kNaturalAscending;
  OrderingPolicy v3;
  v3.value_order = ValueOrder::kCombinedProbability;
  OrderingPolicy a2;
  a2.value_order = ValueOrder::kEventProbability;
  a2.attribute_measure = AttributeMeasure::kA2;
  for (const OrderingPolicy& shaped : {natural, v3, a2}) {
    engine.set_policy(shaped);
    expect_one_build(shaped.label().c_str());
    engine.unsubscribe(engine.subscribe("radiation <= 5"));
    expect_one_build(shaped.label().c_str());
  }
}

struct RefreshPropertyParam {
  OrderingPolicy policy;
  bool always_builds = false;  ///< the policy cannot recost
};

// Names the case by its policy (the default prints raw bytes, padding
// included, so the suite's test names would change from run to run).
void PrintTo(const RefreshPropertyParam& param, std::ostream* os) {
  *os << param.policy.label() << (param.always_builds ? ", always builds" : "");
}

class FilterEngineRefreshProperty
    : public ::testing::TestWithParam<RefreshPropertyParam> {};

TEST_P(FilterEngineRefreshProperty,
       RandomChurnAndDriftMatchAFreshTreeAndTheNaiveMatcher) {
  const SchemaPtr schema = testutil::example1_schema();
  ProfileWorkloadOptions pool_options;
  pool_options.count = 48;
  pool_options.dont_care_probability = 0.3;
  pool_options.equality_only = false;
  pool_options.range_width_mean = 0.1;
  pool_options.seed = 17;
  const ProfileSet pool = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), pool_options);

  EngineOptions options;
  options.policy = GetParam().policy;
  options.prior = testutil::peak_joint(schema, false, 0.8, 0.2);
  AdaptiveOptions adaptive;
  adaptive.min_observations = 150;
  adaptive.rebuild_cooldown = 150;
  adaptive.drift_threshold = 0.3;
  adaptive.decay = 0.99;
  options.adaptive = adaptive;
  FilterEngine engine(schema, options);
  for (ProfileId id = 0; id < 16; ++id) engine.subscribe(pool.profile(id));
  (void)engine.snapshot();

  Rng rng(2024);
  std::vector<ProfileId> live = engine.profiles().active_ids();
  std::uint64_t set_changes = 0;
  std::uint64_t drift_rebuilds = 0;
  std::uint64_t no_op_churns = 0;
  for (int step = 0; step < 120; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t rebuilds_before = engine.rebuild_count();
    const Profile& drawn = pool.profile(
        static_cast<ProfileId>(rng.below(pool.active_count())));
    switch (rng.below(4)) {
      case 0:
        live.push_back(engine.subscribe(drawn));
        ++set_changes;
        break;
      case 1:
        if (live.size() > 1) {
          const std::size_t at = rng.below(live.size());
          engine.unsubscribe(live[at]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
          ++set_changes;
        }
        break;
      case 2:
        engine.unsubscribe(engine.subscribe(drawn));
        ++no_op_churns;
        break;
      default: {
        // P_e alternates between the low and the high peak every 8 steps.
        const JointDistribution regime =
            testutil::peak_joint(schema, (step / 8) % 2 == 1);
        const std::vector<Event> batch =
            testutil::event_stream(regime, 100, rng());
        if (engine.observe(batch)) ++drift_rebuilds;
        break;
      }
    }

    const std::shared_ptr<const FlatProfileTree> tree = engine.snapshot();
    ASSERT_TRUE(engine.adaptive()->baseline().has_value());
    // The baseline is the distribution of the latest restructure; when this
    // step restructured, it is the effective distribution now.
    const FlatProfileTree fresh =
        engine.rebuild_count() != rebuilds_before
            ? fresh_tree(engine, engine.effective_distribution())
            : fresh_tree(engine, *engine.adaptive()->baseline());
    ASSERT_TRUE(*tree == fresh);

    const NaiveMatcher naive(engine.profiles());
    for (const Event& event : testutil::event_stream(
             testutil::peak_joint(schema, rng.chance(0.5)), 40, rng())) {
      const MatchOutcome got = testutil::flat_match(*tree, event);
      const MatchOutcome want = testutil::flat_match(fresh, event);
      ASSERT_EQ(got.operations, want.operations) << event.to_string();
      ASSERT_EQ(got.matched, want.matched) << event.to_string();
      ASSERT_EQ(got.matched, naive.match(event).matched) << event.to_string();
    }
  }
  EXPECT_GT(drift_rebuilds, 0u);
  EXPECT_GT(no_op_churns, 0u);
  if (GetParam().always_builds) {
    EXPECT_EQ(engine.build_count(), engine.rebuild_count());
  } else {
    // One build up front, then one per step that changed the set.
    EXPECT_EQ(engine.build_count(), 1 + set_changes);
    EXPECT_GT(engine.rebuild_count(), engine.build_count());
  }
}

OrderingPolicy make_policy(ValueOrder order, SearchStrategy strategy,
                           std::optional<AttributeMeasure> measure) {
  OrderingPolicy policy;
  policy.value_order = order;
  policy.strategy = strategy;
  policy.attribute_measure = measure;
  return policy;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FilterEngineRefreshProperty,
    ::testing::Values(
        // Recost.
        RefreshPropertyParam{make_policy(ValueOrder::kEventProbability,
                                         SearchStrategy::kLinear,
                                         std::nullopt)},
        RefreshPropertyParam{make_policy(ValueOrder::kEventProbability,
                                         SearchStrategy::kLinear,
                                         AttributeMeasure::kA1)},
        // Full build.
        RefreshPropertyParam{make_policy(ValueOrder::kNaturalAscending,
                                         SearchStrategy::kLinear,
                                         std::nullopt),
                             true},
        RefreshPropertyParam{make_policy(ValueOrder::kProfileProbability,
                                         SearchStrategy::kLinear,
                                         AttributeMeasure::kA1),
                             true},
        RefreshPropertyParam{make_policy(ValueOrder::kEventProbability,
                                         SearchStrategy::kBinary,
                                         std::nullopt),
                             true},
        RefreshPropertyParam{make_policy(ValueOrder::kCombinedProbability,
                                         SearchStrategy::kLinear,
                                         std::nullopt),
                             true},
        RefreshPropertyParam{make_policy(ValueOrder::kEventProbability,
                                         SearchStrategy::kLinear,
                                         AttributeMeasure::kA2),
                             true}));

}  // namespace
}  // namespace genas
