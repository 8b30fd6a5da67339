// Tests for priority-weighted profile distributions (V2/V3 with weights).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/filter_engine.hpp"
#include "dist/shapes.hpp"
#include "tree/expected_cost.hpp"
#include "tree/profile_tree.hpp"

namespace genas {
namespace {

SchemaPtr schema1() {
  return SchemaBuilder().add_integer("x", 0, 99).build();
}

TEST(ProfileWeights, DefaultsToOneAndValidates) {
  const SchemaPtr schema = schema1();
  ProfileSet set(schema);
  const ProfileId a =
      set.add(ProfileBuilder(schema).where("x", Op::kEq, 1).build());
  EXPECT_DOUBLE_EQ(set.weight(a), 1.0);
  set.set_weight(a, 5.0);
  EXPECT_DOUBLE_EQ(set.weight(a), 5.0);
  EXPECT_THROW(set.set_weight(a, 0.0), Error);
  EXPECT_THROW(set.set_weight(99, 1.0), Error);
  set.remove(a);
  EXPECT_THROW(set.weight(a), Error);
  EXPECT_THROW(set.set_weight(a, 2.0), Error);
}

TEST(ProfileWeights, WeightChangeBumpsVersion) {
  const SchemaPtr schema = schema1();
  ProfileSet set(schema);
  const ProfileId a =
      set.add(ProfileBuilder(schema).where("x", Op::kEq, 1).build());
  const std::uint64_t v = set.version();
  set.set_weight(a, 2.0);
  EXPECT_GT(set.version(), v);
}

TEST(ProfileWeights, HeavyProfileScannedFirstUnderV2) {
  const SchemaPtr schema = schema1();
  ProfileSet set(schema);
  set.add(ProfileBuilder(schema).where("x", Op::kEq, 10).build());
  const ProfileId heavy =
      set.add(ProfileBuilder(schema).where("x", Op::kEq, 50).build());
  set.add(ProfileBuilder(schema).where("x", Op::kEq, 90).build());

  TreeConfig config;
  config.value_order = ValueOrder::kProfileProbability;

  // Unweighted: ties resolve to natural order -> value 10 scanned first.
  {
    const ProfileTree tree = ProfileTree::build(set, config);
    const auto& root = tree.nodes().back();
    // Cells: gap, [10], gap, [50], gap, [90], gap.
    ASSERT_EQ(root.cells.size(), 7u);
    EXPECT_EQ(root.scan_rank[1], 1u);
    EXPECT_EQ(root.scan_rank[3], 2u);
    EXPECT_EQ(root.scan_rank[5], 3u);
  }

  // Weighting the middle profile moves its value to the front of the scan.
  set.set_weight(heavy, 10.0);
  {
    const ProfileTree tree = ProfileTree::build(set, config);
    const auto& root = tree.nodes().back();
    EXPECT_EQ(root.scan_rank[3], 1u);
    EXPECT_EQ(root.scan_rank[1], 2u);
    EXPECT_EQ(root.scan_rank[5], 3u);
  }
}

TEST(ProfileWeights, PriorityLowersThatProfilesExpectedOps) {
  const SchemaPtr schema = schema1();
  const JointDistribution joint =
      JointDistribution::independent(schema, {shapes::equal(100)});

  ProfileSet set(schema);
  std::vector<ProfileId> ids;
  for (int v = 0; v < 20; ++v) {
    ids.push_back(
        set.add(ProfileBuilder(schema).where("x", Op::kEq, 5 * v).build()));
  }
  const ProfileId vip = ids[15];

  TreeConfig config;
  config.value_order = ValueOrder::kProfileProbability;
  config.event_distribution = joint;

  const double before =
      expected_cost(ProfileTree::build(set, config), joint)
          .per_profile_ops[vip];
  set.set_weight(vip, 100.0);
  const double after =
      expected_cost(ProfileTree::build(set, config), joint)
          .per_profile_ops[vip];
  EXPECT_LT(after, before);
  EXPECT_DOUBLE_EQ(after, 1.0);  // scanned first
}

TEST(ProfileWeights, EngineExposesPriorities) {
  const SchemaPtr schema = schema1();
  EngineOptions options;
  options.policy.value_order = ValueOrder::kProfileProbability;
  FilterEngine engine(schema, options);
  const ProfileId a = engine.subscribe("x = 3");
  engine.subscribe("x = 7");
  (void)engine.snapshot();
  const std::uint64_t builds = engine.rebuild_count();
  engine.set_priority(a, 4.0);
  (void)engine.snapshot();  // weight change invalidates the tree
  EXPECT_EQ(engine.rebuild_count(), builds + 1);
  EXPECT_THROW(engine.set_priority(77, 1.0), Error);
}

}  // namespace
}  // namespace genas
