// Structural and matching tests for the profile tree on the paper's
// Example 1. Matching runs on the tree's compiled flat form
// (testutil::flat_match), the only form that matches events.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dist/shapes.hpp"
#include "test_util.hpp"
#include "tree/profile_tree.hpp"

namespace genas {
namespace {

class Example1Tree : public ::testing::Test {
 protected:
  SchemaPtr schema_ = testutil::example1_schema();
  ProfileSet profiles_ = testutil::example1_profiles(schema_);

  Event make_event(std::int64_t t, std::int64_t h, std::int64_t r) {
    return Event::from_pairs(
        schema_, {{"temperature", t}, {"humidity", h}, {"radiation", r}});
  }
};

TEST_F(Example1Tree, PaperEventMatchesP2P5) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  // Paper §3: event(30, 90, 2) follows [30,35) -> [90,100] -> (*) and is
  // matched by P2 and P5.
  const MatchOutcome match = testutil::flat_match(tree, make_event(30, 90, 2));
  EXPECT_EQ(match.matched, (std::vector<ProfileId>{1, 4}));
  EXPECT_GT(match.operations, 0u);
}

TEST_F(Example1Tree, AllFiveProfilesReachable) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  // P1,P2,P3,P5 all match (40, 95, 40); P4 matches (-25, 3, 70).
  const MatchOutcome hot = testutil::flat_match(tree, make_event(40, 95, 40));
  EXPECT_EQ(hot.matched, (std::vector<ProfileId>{0, 1, 2, 4}));

  const MatchOutcome cold = testutil::flat_match(tree, make_event(-25, 3, 70));
  EXPECT_EQ(cold.matched, (std::vector<ProfileId>{3}));
}

TEST_F(Example1Tree, ZeroSubdomainEventRejectedAtRoot) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  // Temperature 0 lies in D_0 of a1 ([-19,29]): single-path rejection.
  const MatchOutcome miss = testutil::flat_match(tree, make_event(0, 90, 40));
  EXPECT_TRUE(miss.matched.empty());
}

TEST_F(Example1Tree, PartialMatchRejectedDeeper) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  // Temperature fits P4 but humidity 50 kills it.
  const MatchOutcome miss = testutil::flat_match(tree, make_event(-25, 50, 70));
  EXPECT_TRUE(miss.matched.empty());
}

TEST_F(Example1Tree, RootHasThePaperEdges) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  ASSERT_FALSE(tree.nodes().empty());
  const ProfileTree::Node& root =
      tree.nodes()[static_cast<std::size_t>(tree.root())];
  EXPECT_EQ(root.attribute, schema_->id_of("temperature"));
  // Cells: [-30,-20] edge, [-19,29] gap, [30,34] edge, [35,50] edge.
  ASSERT_EQ(root.cells.size(), 4u);
  EXPECT_EQ(root.cells[0], Interval(0, 10));
  EXPECT_EQ(root.cells[1], Interval(11, 59));
  EXPECT_EQ(root.cells[2], Interval(60, 64));
  EXPECT_EQ(root.cells[3], Interval(65, 80));
  EXPECT_EQ(root.child[1], ProfileTree::kMiss);
  EXPECT_NE(root.child[0], ProfileTree::kMiss);
}

TEST_F(Example1Tree, MemoizationSharesSubtrees) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  // The a2>=90 subtree under [30,35) and [35,50] overlaps; sharing must
  // occur somewhere in this workload.
  EXPECT_GT(tree.build_stats().memo_hits, 0u);
  EXPECT_EQ(tree.build_stats().node_count, tree.nodes().size());
  EXPECT_EQ(tree.build_stats().leaf_count, tree.leaves().size());
}

TEST_F(Example1Tree, AttributeReorderBuildsValidTree) {
  TreeConfig config;
  config.attribute_order = {1, 0, 2};  // humidity first (paper Example 3)
  const ProfileTree tree = ProfileTree::build(profiles_, config);
  const ProfileTree::Node& root =
      tree.nodes()[static_cast<std::size_t>(tree.root())];
  EXPECT_EQ(root.attribute, schema_->id_of("humidity"));
  const MatchOutcome match = testutil::flat_match(tree, make_event(30, 90, 2));
  EXPECT_EQ(match.matched, (std::vector<ProfileId>{1, 4}));
}

TEST_F(Example1Tree, ConfigValidation) {
  TreeConfig bad_order;
  bad_order.attribute_order = {0, 1};  // wrong size
  EXPECT_THROW(ProfileTree::build(profiles_, bad_order), Error);

  TreeConfig repeated;
  repeated.attribute_order = {0, 0, 1};
  EXPECT_THROW(ProfileTree::build(profiles_, repeated), Error);

  TreeConfig out_of_range;
  out_of_range.attribute_order = {0, 1, 7};
  EXPECT_THROW(ProfileTree::build(profiles_, out_of_range), Error);

  TreeConfig needs_dist;
  needs_dist.value_order = ValueOrder::kEventProbability;
  EXPECT_THROW(ProfileTree::build(profiles_, needs_dist), Error);
}

TEST_F(Example1Tree, EmptyProfileSetMatchesNothing) {
  ProfileSet empty(schema_);
  const ProfileTree tree = ProfileTree::build(empty, {});
  EXPECT_EQ(tree.root(), ProfileTree::kMiss);
  const MatchOutcome match = testutil::flat_match(tree, make_event(0, 0, 1));
  EXPECT_TRUE(match.matched.empty());
  EXPECT_EQ(match.operations, 0u);
}

TEST_F(Example1Tree, MatchAllProfileFlowsThroughStarEdges) {
  ProfileSet set(schema_);
  set.add(ProfileBuilder(schema_).build());  // don't-care everywhere
  const ProfileTree tree = ProfileTree::build(set, {});
  const MatchOutcome match = testutil::flat_match(tree, make_event(0, 0, 1));
  EXPECT_EQ(match.matched.size(), 1u);
}

TEST_F(Example1Tree, SourceVersionTracksProfileSet) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  EXPECT_EQ(tree.source_version(), profiles_.version());
  EXPECT_EQ(tree.profile_count(), 5u);
}

TEST_F(Example1Tree, DumpMentionsStructure) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  const std::string dump = tree.dump();
  EXPECT_NE(dump.find("temperature"), std::string::npos);
  EXPECT_NE(dump.find("leaf"), std::string::npos);
  EXPECT_NE(dump.find("miss"), std::string::npos);
}

TEST_F(Example1Tree, ChildrenPrecedeParents) {
  const ProfileTree tree = ProfileTree::build(profiles_, {});
  for (std::size_t i = 0; i < tree.nodes().size(); ++i) {
    for (const std::int32_t child : tree.nodes()[i].child) {
      if (child >= 0) {
        EXPECT_LT(child, static_cast<std::int32_t>(i));
      }
    }
  }
  EXPECT_EQ(tree.root(), static_cast<std::int32_t>(tree.nodes().size()) - 1);
}

}  // namespace
}  // namespace genas
