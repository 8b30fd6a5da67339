#include "match/counting_matcher.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace genas {

void CountingMatcher::rebuild(const ProfileSet& profiles) {
  const Schema& schema = *profiles.schema();
  attributes_.clear();
  attributes_.resize(schema.attribute_count());
  match_all_.clear();
  capacity_ = profiles.capacity();
  required_.assign(capacity_, 0);
  counters_.assign(capacity_, 0);

  const std::vector<ProfileId> active = profiles.active_ids();
  for (AttributeId a = 0; a < schema.attribute_count(); ++a) {
    std::vector<ProfileId> constrained;
    std::vector<const IntervalSet*> sets;
    for (const ProfileId id : active) {
      const Predicate* predicate = profiles.profile(id).predicate(a);
      if (predicate != nullptr) {
        constrained.push_back(id);
        sets.push_back(&predicate->accepted());
      }
    }
    AttributeIndex& index = attributes_[a];
    index.decomposition = decompose(schema.attribute(a).domain.full(), sets);
    index.postings.resize(index.decomposition.cells.size());
    for (std::size_t cell = 0; cell < index.postings.size(); ++cell) {
      const auto accepters = index.decomposition.accepters(cell);
      index.postings[cell].reserve(accepters.size());
      for (const std::uint32_t c : accepters) {
        index.postings[cell].push_back(constrained[c]);
      }
    }
  }

  for (const ProfileId id : active) {
    const auto count = profiles.profile(id).constrained_count();
    GENAS_REQUIRE(count <= UINT16_MAX, ErrorCode::kInvalidArgument,
                  "counting matcher supports at most 65535 predicates/profile");
    required_[id] = static_cast<std::uint16_t>(count);
    if (count == 0) match_all_.push_back(id);
  }
}

MatchOutcome CountingMatcher::match(const Event& event) const {
  MatchOutcome outcome;
  outcome.matched = match_all_;  // don't-care-only profiles always match

  // Reset scratch counters lazily by tracking touched ids.
  std::vector<ProfileId> touched;
  for (AttributeId a = 0; a < attributes_.size(); ++a) {
    const AttributeIndex& index = attributes_[a];
    const std::size_t cell = index.decomposition.locate(event.index(a));
    for (const ProfileId id : index.postings[cell]) {
      ++outcome.operations;
      if (counters_[id] == 0) touched.push_back(id);
      if (++counters_[id] == required_[id]) {
        outcome.matched.push_back(id);
      }
    }
  }
  for (const ProfileId id : touched) counters_[id] = 0;
  std::sort(outcome.matched.begin(), outcome.matched.end());
  return outcome;
}

}  // namespace genas
