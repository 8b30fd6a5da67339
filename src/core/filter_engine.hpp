// GENAS — FilterEngine: the library's primary facade.
//
// Owns the profile set and the current profile tree, applies an
// OrderingPolicy, and optionally runs the adaptive loop: observe events,
// detect distribution drift, restructure the tree. The engine rebuilds
// lazily — subscription changes mark the tree stale and the next match (or
// an explicit rebuild()) refreshes it. It is the one owner of a matchable
// tree: the broker, every routing table (net::LinkTable) and the overlay's
// brokers build theirs through it, so one rule decides when a tree is
// stale and which distribution it is built for.
//
// A rebuild takes the cheapest path that yields exactly the tree a full
// build would. The tree's structure depends only on the profile set, its
// weights and the policy; under a V1/linear policy with no attribute
// measure or A1, the event distribution P_e only moves per-cell costs (the
// scan order). So:
//   * a recost (FlatProfileTree::recost: shared structure, fresh costs)
//     when the policy is V1/linear (no measure or A1) and the profile set
//     and weights are those of the last full build;
//   * otherwise a full build: the node-form tree is compiled into an
//     immutable FlatProfileTree and the node form dropped.
// Under such a policy a drift restructure, and the refresh after a churn
// that left the profile set as it was (subscribe, then unsubscribe the
// same profile), recost. The set is compared in O(1): ids are append-only, so a count of
// ids added since the build that are still live and a count of the build's
// ids removed since are both zero iff the set is unchanged. set_priority
// and set_policy force a full build.
//
// snapshot() hands the current tree out as a shared_ptr, so a caller can
// keep matching against a consistent tree while the engine mutates and
// rebuilds off to the side — this is what the broker's lock-free publish
// path is built on. The adaptive loop is a separate observe() step after
// matching: it feeds the drift estimator and swaps in a fresh snapshot when
// drift demands it.
//
// Thread-safety: FilterEngine itself is single-threaded by design (callers
// serialize mutations and observe()); but a snapshot, once obtained, is
// immutable and safe to match against from any number of threads. The ENS
// broker (src/ens/broker.hpp) layers the mutation mutex and atomic snapshot
// publication on top.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/adaptive_filter.hpp"
#include "core/ordering_policy.hpp"
#include "profile/parser.hpp"
#include "tree/flat_tree.hpp"

namespace genas {

/// Engine construction options.
struct EngineOptions {
  OrderingPolicy policy;
  /// Prior event distribution (e.g., known sensor characteristics). Used
  /// until the adaptive estimate (if enabled) takes over.
  std::optional<JointDistribution> prior;
  /// Adaptive restructuring; disabled when nullopt.
  std::optional<AdaptiveOptions> adaptive;
};

/// Outcome of matching one event through the engine.
struct EngineMatch {
  std::vector<ProfileId> matched;  ///< owned copy, safe across rebuilds
  std::uint64_t operations = 0;
  bool rebuilt = false;  ///< this match triggered an adaptive rebuild
};

/// High-level distribution-based filter (the paper's "adaptive filter
/// component", §1).
class FilterEngine {
 public:
  explicit FilterEngine(SchemaPtr schema, EngineOptions options = {});

  const SchemaPtr& schema() const noexcept { return schema_; }
  const ProfileSet& profiles() const noexcept { return profiles_; }

  /// Registers a profile; the tree refreshes lazily.
  ProfileId subscribe(Profile profile);
  /// Parses and registers a profile expression ("temp >= 35 && hum = 90").
  ProfileId subscribe(std::string_view expression);
  void unsubscribe(ProfileId id);

  /// Sets a subscription's priority weight (V2/V3 value ordering scans the
  /// subranges of heavier profiles earlier). The tree refreshes lazily.
  void set_priority(ProfileId id, double weight);

  /// Matches an event against the current snapshot (refreshing a stale
  /// tree first), then observe()s it.
  EngineMatch match(const Event& event);

  /// The adaptive loop's step: feeds every event to the adaptive controller
  /// and rebuilds against its estimate when drift demands it. Returns true
  /// when it rebuilt; a no-op returning false when the loop is disabled.
  bool observe(std::span<const Event> events);

  /// Forces an immediate rebuild against the best-known distribution.
  void rebuild();

  /// Replaces the ordering policy (takes effect on the next rebuild).
  void set_policy(OrderingPolicy policy);
  const OrderingPolicy& policy() const noexcept { return options_.policy; }

  /// Distribution the engine would build against right now: the adaptive
  /// estimate when available, else the prior, else uniform.
  JointDistribution effective_distribution() const;

  /// Current immutable tree (rebuilds first if stale). Never null. The
  /// caller may match against it concurrently with engine mutations; it
  /// simply keeps seeing the profile set as of this call. FlatMatch results
  /// point into the tree, so hold the shared_ptr while using them.
  std::shared_ptr<const FlatProfileTree> snapshot();

  /// Text dump of the current tree (rebuilt first if stale), in the node
  /// form, for the distribution the engine last built it against.
  std::string tree_dump();

  /// Restructures of every kind: full builds and recosts.
  std::uint64_t rebuild_count() const noexcept { return rebuild_count_; }
  /// Full structural builds only (a subset of rebuild_count()).
  std::uint64_t build_count() const noexcept { return build_count_; }

  /// Adaptive controller, when enabled; null otherwise. Whether it exists
  /// is fixed at construction.
  const AdaptiveController* adaptive() const noexcept {
    return adaptive_ ? &*adaptive_ : nullptr;
  }

 private:
  void ensure_fresh();
  void rebuild_locked(const JointDistribution& distribution);

  SchemaPtr schema_;
  EngineOptions options_;
  ProfileSet profiles_;
  std::optional<AdaptiveController> adaptive_;
  std::shared_ptr<const FlatProfileTree> snapshot_;
  std::uint64_t rebuild_count_ = 0;
  std::uint64_t build_count_ = 0;
  // The profile set's distance from the last full build's: ids at or past
  // built_capacity_ were added since; set_priority marks the weights.
  std::size_t built_capacity_ = 0;
  std::size_t added_live_ = 0;     ///< ids added since, still live
  std::size_t removed_built_ = 0;  ///< the build's ids removed since
  bool weights_changed_ = false;
};

}  // namespace genas
