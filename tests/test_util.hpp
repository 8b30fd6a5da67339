// Shared fixtures: the paper's Example 1 toy system and small helpers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dist/joint.hpp"
#include "dist/sampler.hpp"
#include "dist/shapes.hpp"
#include "event/event.hpp"
#include "event/schema.hpp"
#include "match/matcher.hpp"
#include "profile/profile.hpp"
#include "tree/flat_tree.hpp"

namespace genas::testutil {

/// Example 1 schema: temperature [-30,50], humidity [0,100],
/// radiation [1,100].
inline SchemaPtr example1_schema() {
  return SchemaBuilder()
      .add_integer("temperature", -30, 50)
      .add_integer("humidity", 0, 100)
      .add_integer("radiation", 1, 100)
      .build();
}

/// Example 1 profiles P1..P5 (ids 0..4).
inline ProfileSet example1_profiles(const SchemaPtr& schema) {
  ProfileSet set(schema);
  set.add(ProfileBuilder(schema)  // P1
              .where("temperature", Op::kGe, 35)
              .where("humidity", Op::kGe, 90)
              .build());
  set.add(ProfileBuilder(schema)  // P2
              .where("temperature", Op::kGe, 30)
              .where("humidity", Op::kGe, 90)
              .build());
  set.add(ProfileBuilder(schema)  // P3
              .where("temperature", Op::kGe, 30)
              .where("humidity", Op::kGe, 90)
              .between("radiation", 35, 50)
              .build());
  set.add(ProfileBuilder(schema)  // P4
              .between("temperature", -30, -20)
              .where("humidity", Op::kLe, 5)
              .between("radiation", 40, 100)
              .build());
  set.add(ProfileBuilder(schema)  // P5
              .where("temperature", Op::kGe, 30)
              .where("humidity", Op::kGe, 80)
              .build());
  return set;
}

/// Sorted copy helper for matched-set comparisons.
inline std::vector<ProfileId> sorted(std::vector<ProfileId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Owned copy of one match on a compiled tree — the flat form is the only
/// one that matches events: the matched ids (ascending, as leaves store
/// them) and the counted filter operations.
inline MatchOutcome flat_match(const FlatProfileTree& flat,
                               const Event& event) {
  const FlatMatch match = flat.match(event);
  return MatchOutcome{{match.matched, match.matched + match.matched_count},
                      match.operations};
}

/// flat_match() on the compilation of a built node-form tree.
inline MatchOutcome flat_match(const ProfileTree& tree, const Event& event) {
  return flat_match(FlatProfileTree::compile(tree), event);
}

/// Independent joint whose first attribute carries `mass` of its
/// probability in the top (high) or bottom band of normalized `width`,
/// with every other attribute uniform. The canonical "skewed feed" the
/// adaptive and build-sanity suites drive regime changes with.
inline JointDistribution peak_joint(const SchemaPtr& schema, bool high,
                                    double mass = 0.95, double width = 0.2) {
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(schema->attribute_count());
  marginals.push_back(shapes::percent_peak(
      schema->attribute(0).domain.size(), mass, high, width));
  for (AttributeId id = 1; id < schema->attribute_count(); ++id) {
    marginals.push_back(shapes::equal(schema->attribute(id).domain.size()));
  }
  return JointDistribution::independent(schema, std::move(marginals));
}

/// Draws `count` events from `joint` with the deterministic library RNG
/// (common/rng.hpp via EventSampler). One shared generator keeps the
/// integration, adaptive, and smoke suites' event streams identical for a
/// given (joint, count, seed) triple.
inline std::vector<Event> event_stream(const JointDistribution& joint,
                                       std::size_t count, std::uint64_t seed) {
  EventSampler sampler(joint, seed);
  return sampler.sample_batch(count);
}

}  // namespace genas::testutil
