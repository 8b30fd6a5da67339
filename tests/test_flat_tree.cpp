// Tests for FlatProfileTree, the only form that matches events: across
// every ordering policy, search strategy, and workload its matched sets must
// equal the NaiveMatcher brute force, and its counted operations must equal
// what the node form's cost model charges the same event. A V1/linear
// recost for a new event distribution must equal, slab for slab, a fresh
// compile for that distribution.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/ordering_policy.hpp"
#include "dist/estimator.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"
#include "tree/expected_cost.hpp"
#include "tree/flat_tree.hpp"

namespace genas {
namespace {

Event make_event(const SchemaPtr& schema, std::int64_t t, std::int64_t h,
                 std::int64_t r) {
  return Event::from_pairs(
      schema, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
}

/// Operations the node form charges `event`: its exact expected cost under
/// the point mass on the event's values, an oracle independent of the flat
/// compilation's slabs.
double node_form_operations(const ProfileTree& tree, const Event& event) {
  const SchemaPtr& schema = tree.schema();
  std::vector<DiscreteDistribution> marginals;
  for (AttributeId id = 0; id < schema->attribute_count(); ++id) {
    std::vector<double> weights(
        static_cast<std::size_t>(schema->attribute(id).domain.size()), 0.0);
    weights[static_cast<std::size_t>(event.index(id))] = 1.0;
    marginals.push_back(DiscreteDistribution::from_weights(std::move(weights)));
  }
  return expected_cost(tree,
                       JointDistribution::independent(schema, std::move(marginals)))
      .ops_per_event;
}

TEST(FlatTree, MatchesExample1Exactly) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet profiles = testutil::example1_profiles(schema);
  const ProfileTree tree = ProfileTree::build(profiles, {});
  const FlatProfileTree flat = FlatProfileTree::compile(tree);

  EXPECT_EQ(flat.node_count(), tree.nodes().size());
  EXPECT_EQ(flat.leaf_count(), tree.leaves().size());
  EXPECT_EQ(flat.profile_count(), tree.profile_count());
  EXPECT_EQ(flat.source_version(), tree.source_version());
  EXPECT_EQ(flat.root(), tree.root());
  EXPECT_GT(flat.arena_bytes(), 0u);

  const NaiveMatcher oracle(profiles);
  const Event hot = make_event(schema, 40, 95, 40);
  const MatchOutcome flat_match = testutil::flat_match(flat, hot);
  EXPECT_EQ(flat_match.matched, (std::vector<ProfileId>{0, 1, 2, 4}));
  EXPECT_EQ(flat_match.matched, oracle.match(hot).matched);
  EXPECT_EQ(static_cast<double>(flat_match.operations),
            node_form_operations(tree, hot));

  const Event miss = make_event(schema, 0, 50, 70);
  const FlatMatch nothing = flat.match(miss);
  EXPECT_EQ(nothing.matched_count, 0u);
  EXPECT_EQ(nothing.matched, nullptr);
  EXPECT_TRUE(oracle.match(miss).matched.empty());
  EXPECT_EQ(static_cast<double>(nothing.operations),
            node_form_operations(tree, miss));
}

TEST(FlatTree, EmptyProfileSetNeverMatches) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet empty(schema);
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(empty, {}));
  const FlatMatch match = flat.match(make_event(schema, 0, 0, 1));
  EXPECT_EQ(match.matched_count, 0u);
  EXPECT_EQ(match.operations, 0u);
  EXPECT_EQ(flat.node_count(), 0u);
}

TEST(FlatTree, DontCareOnlyProfileMatchesEverything) {
  const SchemaPtr schema = testutil::example1_schema();
  ProfileSet profiles(schema);
  const ProfileId all = profiles.add(ProfileBuilder(schema).build());
  const FlatProfileTree flat =
      FlatProfileTree::compile(ProfileTree::build(profiles, {}));
  const FlatMatch match = flat.match(make_event(schema, -30, 0, 1));
  ASSERT_EQ(match.matched_count, 1u);
  EXPECT_EQ(match.matched[0], all);
}

struct FlatTreeOracleParam {
  ValueOrder value_order;
  SearchStrategy strategy;
};

class FlatTreeOracle : public ::testing::TestWithParam<FlatTreeOracleParam> {};

TEST_P(FlatTreeOracle, AgreesWithNodeFormOnRandomWorkloads) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 49)
                               .add_integer("b", 0, 29)
                               .add_integer("c", 0, 19)
                               .build();
  const JointDistribution joint =
      make_event_distribution(schema, {"gauss", "d37", "equal"});

  ProfileWorkloadOptions options;
  options.count = 200;
  options.dont_care_probability = 0.3;
  options.equality_only = false;
  options.range_width_mean = 0.15;
  options.seed = 7;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);

  TreeConfig config;
  config.value_order = GetParam().value_order;
  config.strategy = GetParam().strategy;
  config.event_distribution = joint;
  const ProfileTree tree = ProfileTree::build(profiles, config);
  const FlatProfileTree flat = FlatProfileTree::compile(tree);

  EXPECT_EQ(flat.node_count(), tree.nodes().size());
  EXPECT_EQ(flat.leaf_count(), tree.leaves().size());
  EXPECT_EQ(flat.cell_count(), tree.build_stats().cell_count);

  const NaiveMatcher oracle(profiles);
  for (const Event& event : testutil::event_stream(joint, 500, 11)) {
    const MatchOutcome flat_match = testutil::flat_match(flat, event);
    ASSERT_EQ(static_cast<double>(flat_match.operations),
              node_form_operations(tree, event))
        << event.to_string();
    EXPECT_EQ(flat_match.matched, oracle.match(event).matched)
        << event.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAndStrategies, FlatTreeOracle,
    ::testing::Values(
        FlatTreeOracleParam{ValueOrder::kNaturalAscending,
                            SearchStrategy::kLinear},
        FlatTreeOracleParam{ValueOrder::kNaturalDescending,
                            SearchStrategy::kBinary},
        FlatTreeOracleParam{ValueOrder::kEventProbability,
                            SearchStrategy::kLinear},
        FlatTreeOracleParam{ValueOrder::kProfileProbability,
                            SearchStrategy::kInterpolation},
        FlatTreeOracleParam{ValueOrder::kCombinedProbability,
                            SearchStrategy::kHash}));

/// A decayed-histogram estimate of `source`, as the adaptive loop forms it:
/// `count` events drawn from `source` folded into a SchemaEstimator.
JointDistribution decayed_estimate(const JointDistribution& source,
                                   std::size_t count, double decay,
                                   std::uint64_t seed) {
  SchemaEstimator estimator(source.schema(), decay);
  for (const Event& event : testutil::event_stream(source, count, seed)) {
    estimator.observe(event);
  }
  return estimator.estimate_joint(1.0);
}

FlatProfileTree compile_for(const ProfileSet& profiles,
                            const OrderingPolicy& policy,
                            const JointDistribution& distribution) {
  return FlatProfileTree::compile(build_tree(profiles, policy, distribution));
}

/// Asserts `refreshed` equals `fresh` in every slab, shares `built`'s
/// structure, and matches a sample stream identically.
void expect_same_tree(const FlatProfileTree& refreshed,
                      const FlatProfileTree& fresh,
                      const FlatProfileTree& built,
                      const JointDistribution& stream_source) {
  EXPECT_TRUE(refreshed == fresh);
  ASSERT_EQ(refreshed.cell_count(), fresh.cell_count());
  for (std::size_t i = 0; i < fresh.cell_count(); ++i) {
    ASSERT_EQ(refreshed.costs()[i], fresh.costs()[i]) << "cell " << i;
  }
  EXPECT_EQ(refreshed.nodes().data(), built.nodes().data());
  for (const Event& event : testutil::event_stream(stream_source, 200, 5)) {
    const MatchOutcome a = testutil::flat_match(refreshed, event);
    const MatchOutcome b = testutil::flat_match(fresh, event);
    ASSERT_EQ(a.operations, b.operations) << event.to_string();
    ASSERT_EQ(a.matched, b.matched) << event.to_string();
  }
}

TEST(FlatTreeRecost, EqualsAFreshCompileAcrossProfileSetsAndMeasures) {
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 39)
                               .add_integer("b", 0, 24)
                               .add_integer("c", 0, 14)
                               .build();
  const JointDistribution before =
      make_event_distribution(schema, {"gauss", "d37", "equal"});
  const JointDistribution after =
      make_event_distribution(schema, {"gauss-high", "equal", "d37"});
  const std::vector<std::optional<AttributeMeasure>> measures = {
      std::nullopt, AttributeMeasure::kA1};

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ProfileWorkloadOptions options;
    options.count = 60 * seed;
    options.dont_care_probability = 0.25;
    options.equality_only = seed == 2;
    options.range_width_mean = 0.1;
    options.seed = seed;
    const ProfileSet profiles = generate_profiles(
        schema, make_profile_distributions(schema, {"gauss"}), options);
    const JointDistribution d1 = decayed_estimate(before, 800, 0.995, seed);
    const JointDistribution d2 = decayed_estimate(after, 800, 0.995, seed + 9);

    for (const auto& measure : measures) {
      OrderingPolicy policy;
      policy.value_order = ValueOrder::kEventProbability;
      policy.strategy = SearchStrategy::kLinear;
      policy.attribute_measure = measure;
      SCOPED_TRACE(policy.label() + " seed " + std::to_string(seed));
      const FlatProfileTree built = compile_for(profiles, policy, d1);
      const FlatProfileTree fresh = compile_for(profiles, policy, d2);
      // The shift moves the costs, so equality below is the recost's doing.
      EXPECT_FALSE(std::equal(built.costs().begin(), built.costs().end(),
                              fresh.costs().begin(), fresh.costs().end()));
      expect_same_tree(built.recost(d2, profiles.version()), fresh, built,
                       d2);
    }
  }
}

TEST(FlatTreeRecost, DriftWorkloadShiftFromGaussToGaussHigh) {
  // The drift benchmark's profile set (2,000 equality profiles over three
  // 100-value attributes, 20% don't-care, gauss P_p, seed 21), its P_e
  // moving from gauss to gauss-high.
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a0", 0, 99)
                               .add_integer("a1", 0, 99)
                               .add_integer("a2", 0, 99)
                               .build();
  ProfileWorkloadOptions options;
  options.count = 2000;
  options.dont_care_probability = 0.2;
  options.equality_only = true;
  options.seed = 21;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);
  const JointDistribution gauss = make_event_distribution(schema, {"gauss"});
  const JointDistribution high =
      make_event_distribution(schema, {"gauss-high"});

  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  const FlatProfileTree built = compile_for(profiles, policy, gauss);
  const FlatProfileTree fresh = compile_for(profiles, policy, high);
  // The shift moves the costs, so equality below is the recost's doing.
  ASSERT_EQ(built.cell_count(), fresh.cell_count());
  EXPECT_FALSE(std::equal(built.costs().begin(), built.costs().end(),
                          fresh.costs().begin()));
  expect_same_tree(built.recost(high, profiles.version()), fresh, built, high);

  // And back, from a decayed estimate of the shifted feed.
  const JointDistribution estimate = decayed_estimate(high, 3000, 0.999, 4);
  expect_same_tree(built.recost(estimate, profiles.version()),
                   compile_for(profiles, policy, estimate), built, gauss);
}

TEST(FlatTreeRecost, RejectsADistributionOverAnotherSchema) {
  const SchemaPtr schema = testutil::example1_schema();
  const ProfileSet profiles = testutil::example1_profiles(schema);
  const FlatProfileTree built =
      FlatProfileTree::compile(ProfileTree::build(profiles, {}));
  const SchemaPtr other = testutil::example1_schema();
  EXPECT_THROW((void)built.recost(
                   make_event_distribution(other, {"equal"}), 0),
               Error);
}

}  // namespace
}  // namespace genas
