// GENAS — the adaptive filter component (paper §1, §5).
//
// "The algorithm can either work based on predefined distributions for the
// observed events, or it has to maintain a history of events in order to
// determine the event distribution." The AdaptiveController maintains that
// history (decayed per-attribute histograms), remembers the distribution the
// current tree was optimized for, and signals a rebuild when the observed
// distribution has drifted past a threshold — with a cooldown so bursty
// noise cannot thrash the tree. The paper notes event-order selectivity "is
// a fragile measure, not robust to changes in the distributions"; the drift
// threshold + cooldown are exactly the stability guard that observation
// calls for.
#pragma once

#include <cstdint>
#include <optional>

#include "dist/estimator.hpp"
#include "dist/joint.hpp"

namespace genas {

/// Tuning of the adaptive rebuild loop.
struct AdaptiveOptions {
  /// Rebuild when max-over-attributes L1(baseline marginal, estimate) grows
  /// past this (L1 ∈ [0,2]).
  double drift_threshold = 0.25;
  /// Observations required before the first adaptive rebuild.
  std::size_t min_observations = 500;
  /// Minimum observations between consecutive rebuilds.
  std::size_t rebuild_cooldown = 500;
  /// Per-observation decay of the history (1.0 = never forget).
  double decay = 1.0;
  /// Laplace smoothing of the estimate.
  double smoothing = 0.5;
};

/// Watches the event stream and decides when the tree should be rebuilt.
class AdaptiveController {
 public:
  AdaptiveController(SchemaPtr schema, AdaptiveOptions options);

  /// Folds one event into the history.
  void observe(const Event& event);

  /// Current independent estimate of the event distribution.
  JointDistribution estimate() const;

  /// Max-over-attributes L1 distance between the estimate and the baseline
  /// the current tree was built for; 0 before any baseline is set.
  double drift() const;

  /// True when drift exceeds the threshold and enough observations have
  /// accumulated since the last rebuild.
  bool should_rebuild() const;

  /// Records that the tree was rebuilt against `baseline`.
  void mark_rebuilt(const JointDistribution& baseline);

  /// Distribution the current tree was built for; empty before the first
  /// mark_rebuilt().
  const std::optional<JointDistribution>& baseline() const noexcept {
    return baseline_;
  }

  std::uint64_t observations() const noexcept { return observations_; }
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  const AdaptiveOptions& options() const noexcept { return options_; }

 private:
  SchemaPtr schema_;
  AdaptiveOptions options_;
  SchemaEstimator estimator_;
  std::optional<JointDistribution> baseline_;
  std::uint64_t observations_ = 0;
  std::uint64_t observations_at_rebuild_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace genas
