// GENAS — the common matcher interface.
//
// The paper compares the tree algorithm against the broader design space of
// main-memory matchers (§2: simple algorithms, clustering/counting,
// tree-based). Every matcher consumes a snapshot of a profile set and
// reports, per event, the matched profiles plus the number of elementary
// operations it performed — the paper's platform-independent cost metric.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "event/event.hpp"
#include "profile/profile.hpp"

namespace genas {

/// Result of matching one event through any matcher.
struct MatchOutcome {
  std::vector<ProfileId> matched;  ///< ascending profile ids
  std::uint64_t operations = 0;    ///< counted elementary operations
};

/// Abstract profile matcher over a snapshot of a ProfileSet.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Human-readable algorithm name ("naive", "counting").
  virtual std::string_view name() const noexcept = 0;

  /// Matches one event. Implementations are const and thread-safe.
  virtual MatchOutcome match(const Event& event) const = 0;

  /// Re-synchronizes with the profile set after add/remove.
  virtual void rebuild(const ProfileSet& profiles) = 0;
};

}  // namespace genas
