// GENAS — empirical distribution estimators.
//
// "The algorithm ... has to maintain a history of events in order to
// determine the event distribution" (paper §5). HistogramEstimator is the
// per-attribute primitive: an exponentially decayed value histogram that
// yields a (Laplace-smoothed) DiscreteDistribution on demand.
// SchemaEstimator bundles one histogram per schema attribute and assembles
// the independent joint estimate the adaptive controller rebuilds against.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/joint.hpp"
#include "event/event.hpp"

namespace genas {

/// Decayed histogram over one attribute domain.
class HistogramEstimator {
 public:
  /// `size` is the domain size (>= 1); `decay` in (0, 1] is applied to all
  /// existing counts before each new observation (1.0 = never forget).
  explicit HistogramEstimator(std::int64_t size, double decay = 1.0);

  /// Folds in one observed domain index; throws when out of range.
  void observe(DomainIndex value);

  /// Raw (undecayed) number of observations since the last reset.
  std::uint64_t observations() const noexcept { return observations_; }

  /// Normalized estimate with Laplace `smoothing` added to every bucket.
  /// Throws when smoothing is negative, or when the histogram is empty and
  /// smoothing is zero (no distribution can be formed).
  DiscreteDistribution estimate(double smoothing) const;

  /// DiscreteDistribution::l1_distance(estimate(smoothing), other), computed
  /// term by term in the same order (so bit-identical) without allocating
  /// the estimate. Throws like estimate(), and when sizes differ.
  double l1_distance(const DiscreteDistribution& other,
                     double smoothing) const;

  void reset() noexcept;

 private:
  // Decay is applied lazily: bucket b holds sum of decay^-t per observation
  // at time t, and scale_ = decay^-now, so the true (decayed) count is
  // counts_[b] / scale_. observe() stays O(1); the full O(d) renormalize
  // runs only when scale_ nears the double range.
  std::vector<double> counts_;
  double decay_;
  double scale_ = 1.0;
  std::uint64_t observations_ = 0;
};

/// One HistogramEstimator per schema attribute.
class SchemaEstimator {
 public:
  explicit SchemaEstimator(SchemaPtr schema, double decay = 1.0);

  /// Folds in one event; the event must carry exactly this schema.
  void observe(const Event& event);

  std::uint64_t observations() const noexcept { return observations_; }

  const HistogramEstimator& attribute(AttributeId id) const;

  /// Independent joint estimate across all attributes.
  JointDistribution estimate_joint(double smoothing) const;

  void reset() noexcept;

 private:
  SchemaPtr schema_;
  std::vector<HistogramEstimator> attributes_;
  std::uint64_t observations_ = 0;
};

}  // namespace genas
