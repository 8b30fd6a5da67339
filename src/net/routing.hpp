// GENAS — content-based routing state shared by the overlay simulation and
// the concurrent broker mesh.
//
// Siena-style routing (the paper's ref [3]) keeps, per link, the set of
// profiles registered somewhere behind that link; an event crosses the link
// only when it matches one of them. The covering optimization suppresses a
// profile at a link whose table already holds a more general one, so only
// the most general profiles propagate through the network.
//
// LinkTable is that per-link table. Both src/net/overlay.* (the
// deterministic single-threaded simulation) and src/mesh/* (the
// multi-threaded runtime) build on it, so suppression order, entry counts,
// and forwarding decisions are identical by construction — the property the
// mesh-vs-overlay oracle test asserts. The installed entries live in a
// non-adaptive FilterEngine, the one owner of a matchable tree: a link's
// tree is built and refreshed exactly like a broker's, for the same
// policy and the same event distribution (uniform when none is given).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "core/filter_engine.hpp"
#include "profile/covering.hpp"

namespace genas::net {

using NodeId = std::size_t;

enum class RoutingMode : std::uint8_t {
  kFlooding,
  kRouting,
  kRoutingCovered,
};

std::string_view to_string(RoutingMode mode) noexcept;

/// Aggregate cost counters in the paper's currency: filter operations plus
/// link messages. Shared by OverlayNetwork and MeshNetwork so their numbers
/// are directly comparable.
struct OverlayStats {
  std::uint64_t events_published = 0;
  std::uint64_t event_messages = 0;    ///< event transmissions over links
  std::uint64_t profile_messages = 0;  ///< routing-table entries installed
  std::uint64_t filter_operations = 0; ///< comparisons across all brokers
  std::uint64_t deliveries = 0;        ///< local notifications
};

/// Per-link routing table with covering.
///
/// Entries are keyed by a network-wide subscription id. An `add` either
/// installs the profile (it participates in forwarding decisions and must be
/// propagated onward by the caller) or — in covering mode — suppresses it
/// when an installed entry already covers it. Suppressed entries are
/// remembered so a later `remove` of the covering entry can promote them
/// back into the table (the caller then propagates the promoted profiles
/// onward, exactly like fresh subscriptions).
class LinkTable {
 public:
  /// The link's tree is built for `policy` and `event_distribution`.
  LinkTable(SchemaPtr schema, OrderingPolicy policy,
            std::optional<JointDistribution> event_distribution);

  /// Installs `profile` under `key`, or suppresses it when `covering` is set
  /// and an installed entry covers it. Returns true when installed — the
  /// caller should propagate the profile onward; false means propagation
  /// stops here.
  bool add(std::uint64_t key, const Profile& profile, bool covering);

  /// Outcome of removing a key.
  struct Removal {
    bool removed = false;    ///< the key was present (installed or suppressed)
    bool installed = false;  ///< it was installed (so it had propagated onward)
    /// Entries previously suppressed by the removed key, now installed here;
    /// the caller must propagate them onward like fresh subscriptions.
    std::vector<std::pair<std::uint64_t, Profile>> promoted;
  };
  Removal remove(std::uint64_t key);

  /// Number of installed (forwarding-relevant) entries.
  std::size_t entry_count() const noexcept {
    return engine_.profiles().active_count();
  }

  /// Compiled tree over the installed entries (FilterEngine::snapshot():
  /// rebuilt first when a mutation made it stale). An event crosses the
  /// link when it matches at least one entry.
  std::shared_ptr<const FlatProfileTree> snapshot() {
    return engine_.snapshot();
  }

 private:
  struct Installed {
    std::uint64_t key;
    ProfileId id;  ///< id inside engine_
  };
  struct Suppressed {
    std::uint64_t key;
    Profile profile;
    std::uint64_t covered_by;  ///< key of the installed entry that covers it
  };

  const Profile& installed_profile(const Installed& entry) const {
    return engine_.profiles().profile(entry.id);
  }

  FilterEngine engine_;
  std::vector<Installed> installed_;
  std::vector<Suppressed> suppressed_;
};

}  // namespace genas::net
