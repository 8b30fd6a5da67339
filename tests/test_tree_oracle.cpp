// The central correctness property: on random workloads, every tree
// configuration (all value orders × all search strategies × attribute
// permutations) matches exactly the same profiles as the naive oracle.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "match/naive_matcher.hpp"
#include "sim/workload.hpp"
#include "test_util.hpp"
#include "tree/flat_tree.hpp"

namespace genas {
namespace {

struct OracleCase {
  ValueOrder order;
  SearchStrategy strategy;
  std::uint64_t seed;
};

class TreeOracle : public ::testing::TestWithParam<OracleCase> {};

JointDistribution random_joint(const SchemaPtr& schema, Rng& rng) {
  std::vector<DiscreteDistribution> marginals;
  for (const Attribute& attribute : schema->attributes()) {
    const std::int64_t d = attribute.domain.size();
    switch (rng.below(4)) {
      case 0: marginals.push_back(shapes::equal(d)); break;
      case 1: marginals.push_back(shapes::gauss(d)); break;
      case 2:
        marginals.push_back(shapes::percent_peak(d, 0.9, rng.chance(0.5)));
        break;
      default: marginals.push_back(shapes::falling(d)); break;
    }
  }
  return JointDistribution::independent(schema, std::move(marginals));
}

TEST_P(TreeOracle, AgreesWithNaiveMatcherOnRandomWorkloads) {
  const OracleCase param = GetParam();
  Rng rng(param.seed);

  const SchemaPtr schema = SchemaBuilder()
                               .add_integer("a", 0, 39)
                               .add_integer("b", -10, 19)
                               .add_integer("c", 0, 24)
                               .build();

  // Random mixed workload: range + equality profiles with don't-cares.
  ProfileWorkloadOptions options;
  options.count = 150;
  options.dont_care_probability = 0.35;
  options.equality_only = rng.chance(0.5);
  options.range_width_mean = 0.15;
  options.seed = param.seed * 7919 + 13;
  std::vector<DiscreteDistribution> profile_dists;
  for (const Attribute& attribute : schema->attributes()) {
    profile_dists.push_back(
        shapes::gauss(attribute.domain.size(), 0.6, 0.25));
  }
  const ProfileSet profiles =
      generate_profiles(schema, profile_dists, options);

  const JointDistribution joint = random_joint(schema, rng);

  // Random attribute permutation as well.
  TreeConfig config;
  config.attribute_order = {0, 1, 2};
  for (std::size_t i = 2; i > 0; --i) {
    std::swap(config.attribute_order[i],
              config.attribute_order[rng.below(i + 1)]);
  }
  config.value_order = param.order;
  config.strategy = param.strategy;
  config.event_distribution = joint;

  const ProfileTree tree = ProfileTree::build(profiles, config);
  const FlatProfileTree flat = FlatProfileTree::compile(tree);
  const NaiveMatcher oracle(profiles);

  EventSampler sampler(joint, param.seed + 1);
  for (int i = 0; i < 400; ++i) {
    const Event event = sampler.sample();
    const MatchOutcome tree_match = testutil::flat_match(flat, event);
    const MatchOutcome expected = oracle.match(event);
    ASSERT_EQ(tree_match.matched, expected.matched) << event.to_string();
    // Cost sanity: at most one full scan per level.
    std::size_t bound = 0;
    for (const auto& node : tree.nodes()) {
      bound = std::max(bound, node.cells.size());
    }
    EXPECT_LE(tree_match.operations, 3 * (bound + 1));
  }
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const ValueOrder orders[] = {
      ValueOrder::kNaturalAscending, ValueOrder::kNaturalDescending,
      ValueOrder::kEventProbability, ValueOrder::kProfileProbability,
      ValueOrder::kCombinedProbability};
  const SearchStrategy strategies[] = {
      SearchStrategy::kLinear, SearchStrategy::kBinary,
      SearchStrategy::kInterpolation, SearchStrategy::kHash};
  std::uint64_t seed = 1;
  for (const ValueOrder order : orders) {
    for (const SearchStrategy strategy : strategies) {
      cases.push_back({order, strategy, seed++});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<OracleCase>& info) {
  std::string name = std::string(to_string(info.param.order)) + "_" +
                     std::string(to_string(info.param.strategy));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllOrdersAndStrategies, TreeOracle,
                         ::testing::ValuesIn(oracle_cases()), case_name);

}  // namespace
}  // namespace genas
