// Tests for OrderingPolicy -> TreeConfig materialization.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/ordering_policy.hpp"
#include "dist/shapes.hpp"
#include "test_util.hpp"

namespace genas {
namespace {

class OrderingPolicyTest : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
  ProfileSet profiles_ = testutil::example1_profiles(schema_);

  JointDistribution uniform_joint() {
    return JointDistribution::independent(
        schema_,
        {shapes::equal(81), shapes::equal(101), shapes::equal(100)});
  }
};

TEST_F(OrderingPolicyTest, DefaultPolicyNeedsNoDistribution) {
  const OrderingPolicy policy;
  const TreeConfig config = make_tree_config(profiles_, policy, std::nullopt);
  EXPECT_TRUE(config.attribute_order.empty());  // schema order
  EXPECT_EQ(config.value_order, ValueOrder::kNaturalAscending);
  EXPECT_NO_THROW(ProfileTree::build(profiles_, config));
}

TEST_F(OrderingPolicyTest, V1RequiresDistribution) {
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  EXPECT_THROW(make_tree_config(profiles_, policy, std::nullopt), Error);
  EXPECT_NO_THROW(make_tree_config(profiles_, policy, uniform_joint()));
}

TEST_F(OrderingPolicyTest, A2RequiresDistributionButA1DoesNot) {
  OrderingPolicy a1;
  a1.attribute_measure = AttributeMeasure::kA1;
  EXPECT_NO_THROW(make_tree_config(profiles_, a1, std::nullopt));

  OrderingPolicy a2;
  a2.attribute_measure = AttributeMeasure::kA2;
  EXPECT_THROW(make_tree_config(profiles_, a2, std::nullopt), Error);
}

TEST_F(OrderingPolicyTest, DirectionControlsOrder) {
  OrderingPolicy desc;
  desc.attribute_measure = AttributeMeasure::kA1;
  desc.direction = OrderDirection::kDescending;
  OrderingPolicy asc = desc;
  asc.direction = OrderDirection::kAscending;

  const auto order_desc =
      make_tree_config(profiles_, desc, std::nullopt).attribute_order;
  const auto order_asc =
      make_tree_config(profiles_, asc, std::nullopt).attribute_order;
  EXPECT_EQ(order_desc, (std::vector<AttributeId>{1, 0, 2}));
  EXPECT_EQ(order_asc, (std::vector<AttributeId>{2, 0, 1}));
}

TEST_F(OrderingPolicyTest, A3ProducesAPermutation) {
  OrderingPolicy a3;
  a3.attribute_measure = AttributeMeasure::kA3;
  const auto order =
      make_tree_config(profiles_, a3, uniform_joint()).attribute_order;
  ASSERT_EQ(order.size(), 3u);
  std::vector<AttributeId> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<AttributeId>{0, 1, 2}));
}

TEST_F(OrderingPolicyTest, BuildTreeConvenienceProducesMatchingTree) {
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kCombinedProbability;
  policy.strategy = SearchStrategy::kBinary;
  policy.attribute_measure = AttributeMeasure::kA2;
  const ProfileTree tree = build_tree(profiles_, policy, uniform_joint());
  const Event event = Event::from_pairs(
      schema_, {{"temperature", 30}, {"humidity", 90}, {"radiation", 2}});
  const MatchOutcome match = testutil::flat_match(tree, event);
  EXPECT_EQ(match.matched, (std::vector<ProfileId>{1, 4}));
}

TEST_F(OrderingPolicyTest, LabelsAreDescriptive) {
  OrderingPolicy policy;
  policy.value_order = ValueOrder::kEventProbability;
  policy.strategy = SearchStrategy::kBinary;
  policy.attribute_measure = AttributeMeasure::kA2;
  policy.direction = OrderDirection::kDescending;
  const std::string label = policy.label();
  EXPECT_NE(label.find("V1"), std::string::npos);
  EXPECT_NE(label.find("binary"), std::string::npos);
  EXPECT_NE(label.find("A2"), std::string::npos);
  EXPECT_NE(label.find("descending"), std::string::npos);
}

}  // namespace
}  // namespace genas
