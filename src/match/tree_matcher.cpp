#include "match/tree_matcher.hpp"

namespace genas {

TreeMatcher::TreeMatcher(const ProfileSet& profiles, OrderingPolicy policy,
                         std::optional<JointDistribution> event_distribution)
    : policy_(std::move(policy)),
      distribution_(std::move(event_distribution)) {
  rebuild(profiles);
}

void TreeMatcher::rebuild(const ProfileSet& profiles) {
  flat_ = std::make_unique<const FlatProfileTree>(
      FlatProfileTree::compile(build_tree(profiles, policy_, distribution_)));
}

MatchOutcome TreeMatcher::match(const Event& event) const {
  MatchOutcome outcome;
  const FlatMatch result = flat_->match(event);
  outcome.operations = result.operations;
  outcome.matched.assign(result.matched, result.matched + result.matched_count);
  return outcome;
}

}  // namespace genas
