// Cross-matcher agreement: the naive and counting matchers and the compiled
// flat tree must produce identical matched sets on random workloads.
#include <gtest/gtest.h>

#include "core/ordering_policy.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "match/counting_matcher.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

TEST(Matchers, CountingHandlesDontCareOnlyProfiles) {
  const SchemaPtr schema = testutil::example1_schema();
  ProfileSet set(schema);
  const ProfileId all = set.add(ProfileBuilder(schema).build());
  const ProfileId hot =
      set.add(ProfileBuilder(schema).where("temperature", Op::kGe, 35).build());

  CountingMatcher counting(set);
  const Event cold = Event::from_pairs(
      schema, {{"temperature", -30}, {"humidity", 0}, {"radiation", 1}});
  EXPECT_EQ(counting.match(cold).matched, (std::vector<ProfileId>{all}));
  const Event warm = Event::from_pairs(
      schema, {{"temperature", 40}, {"humidity", 0}, {"radiation", 1}});
  EXPECT_EQ(counting.match(warm).matched,
            (std::vector<ProfileId>{all, hot}));
}

TEST(Matchers, RebuildPicksUpRemovals) {
  const SchemaPtr schema = testutil::example1_schema();
  ProfileSet set(schema);
  const ProfileId a =
      set.add(ProfileBuilder(schema).where("humidity", Op::kGe, 50).build());
  const ProfileId b =
      set.add(ProfileBuilder(schema).where("humidity", Op::kGe, 60).build());

  NaiveMatcher naive(set);
  CountingMatcher counting(set);
  const Event wet = Event::from_pairs(
      schema, {{"temperature", 0}, {"humidity", 90}, {"radiation", 1}});
  EXPECT_EQ(naive.match(wet).matched, (std::vector<ProfileId>{a, b}));

  set.remove(a);
  naive.rebuild(set);
  counting.rebuild(set);
  EXPECT_EQ(naive.match(wet).matched, (std::vector<ProfileId>{b}));
  EXPECT_EQ(counting.match(wet).matched, (std::vector<ProfileId>{b}));
}

class MatcherAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherAgreement, AllThreeMatchersAgree) {
  const std::uint64_t seed = GetParam();
  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 49)
                               .add_integer("b", 0, 29)
                               .add_integer("c", -5, 14)
                               .build();
  ProfileWorkloadOptions options;
  options.count = 200;
  options.dont_care_probability = 0.4;
  options.equality_only = seed % 2 == 0;
  options.range_width_mean = 0.2;
  options.seed = seed;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"gauss"}), options);

  const JointDistribution joint = make_event_distribution(schema, {"equal"});

  const NaiveMatcher naive(profiles);
  const CountingMatcher counting(profiles);
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  const FlatProfileTree tree =
      FlatProfileTree::compile(build_tree(profiles, policy, joint));

  EventSampler sampler(joint, seed + 100);
  for (int i = 0; i < 300; ++i) {
    const Event event = sampler.sample();
    const auto expected = naive.match(event).matched;
    EXPECT_EQ(counting.match(event).matched, expected) << event.to_string();
    EXPECT_EQ(testutil::flat_match(tree, event).matched, expected)
        << event.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MatcherAgreement,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Matchers, TreeVisitsFarFewerPostingsThanNaiveOnBigSets) {
  const SchemaPtr schema = SchemaBuilder().add_integer("a", 0, 999).build();
  ProfileWorkloadOptions options;
  options.count = 2000;
  options.seed = 9;
  const ProfileSet profiles = generate_profiles(
      schema, make_profile_distributions(schema, {"equal"}), options);
  const JointDistribution joint = make_event_distribution(schema, {"equal"});

  const NaiveMatcher naive(profiles);
  OrderingPolicy policy;
  policy.strategy = SearchStrategy::kBinary;
  const FlatProfileTree tree =
      FlatProfileTree::compile(build_tree(profiles, policy, joint));

  EventSampler sampler(joint, 10);
  std::uint64_t naive_ops = 0;
  std::uint64_t tree_ops = 0;
  for (int i = 0; i < 200; ++i) {
    const Event event = sampler.sample();
    naive_ops += naive.match(event).operations;
    tree_ops += tree.match(event).operations;
  }
  // Binary tree search is logarithmic in p; naive is linear.
  EXPECT_LT(tree_ops * 20, naive_ops);
}

TEST(Matchers, CountingSurvivesMoreThan255Predicates) {
  // Regression: required_/counters_ were std::uint8_t, so a profile with
  // more than 255 predicates wrapped (e.g. 260 -> 4) and an event matching
  // exactly the wrapped count of predicates false-matched.
  constexpr std::size_t kAttributes = 260;
  // Appended rather than `"a" + std::to_string(i)`: GCC 12 at -O2 reports a
  // false -Wrestrict on that operator+ overload (GCC bug 105329).
  const auto name = [](std::size_t i) {
    std::string out = "a";
    out += std::to_string(i);
    return out;
  };
  SchemaBuilder builder;
  for (std::size_t i = 0; i < kAttributes; ++i) {
    builder.add_integer(name(i), 0, 1);
  }
  const SchemaPtr schema = builder.build();

  ProfileSet set(schema);
  ProfileBuilder profile(schema);
  for (std::size_t i = 0; i < kAttributes; ++i) {
    profile.where(name(i), Op::kEq, 1);
  }
  const ProfileId wants_all = set.add(profile.build());
  const CountingMatcher counting(set);

  // 260 % 256 == 4: satisfy exactly 4 predicates — the wrapped counter
  // would have reported a match here.
  std::vector<DomainIndex> indices(kAttributes, 0);
  for (std::size_t i = 0; i < 4; ++i) indices[i] = 1;
  const Event four_of_260 = Event::from_indices(schema, indices);
  EXPECT_TRUE(counting.match(four_of_260).matched.empty());

  // All 260 satisfied still matches.
  const Event all_260 =
      Event::from_indices(schema, std::vector<DomainIndex>(kAttributes, 1));
  EXPECT_EQ(counting.match(all_260).matched,
            (std::vector<ProfileId>{wants_all}));
}

TEST(Matchers, Names) {
  const SchemaPtr schema = SchemaBuilder().add_integer("a", 0, 9).build();
  ProfileSet set(schema);
  set.add(ProfileBuilder(schema).where("a", Op::kEq, 1).build());
  EXPECT_EQ(NaiveMatcher(set).name(), "naive");
  EXPECT_EQ(CountingMatcher(set).name(), "counting");
}

}  // namespace
}  // namespace genas
