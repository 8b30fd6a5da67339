// GENAS — Matcher adapter over the profile tree.
//
// Builds a profile tree (with any ordering policy), compiles it, and keeps
// only the flat form behind the common Matcher interface, so the benchmark
// harness and the routing tables can swap algorithms freely.
#pragma once

#include <memory>
#include <optional>

#include "core/ordering_policy.hpp"
#include "match/matcher.hpp"
#include "tree/flat_tree.hpp"

namespace genas {

class TreeMatcher final : public Matcher {
 public:
  TreeMatcher(const ProfileSet& profiles, OrderingPolicy policy,
              std::optional<JointDistribution> event_distribution);

  std::string_view name() const noexcept override { return "tree"; }

  MatchOutcome match(const Event& event) const override;

  void rebuild(const ProfileSet& profiles) override;

  const FlatProfileTree& flat() const noexcept { return *flat_; }

 private:
  OrderingPolicy policy_;
  std::optional<JointDistribution> distribution_;
  std::unique_ptr<const FlatProfileTree> flat_;
};

}  // namespace genas
