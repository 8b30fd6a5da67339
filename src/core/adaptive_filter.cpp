#include "core/adaptive_filter.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace genas {

AdaptiveController::AdaptiveController(SchemaPtr schema,
                                       AdaptiveOptions options)
    : schema_(std::move(schema)),
      options_(options),
      estimator_(schema_, options.decay) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "adaptive controller requires a schema");
  GENAS_REQUIRE(options_.drift_threshold >= 0.0, ErrorCode::kInvalidArgument,
                "drift threshold must be non-negative");
}

void AdaptiveController::observe(const Event& event) {
  estimator_.observe(event);
  ++observations_;
}

JointDistribution AdaptiveController::estimate() const {
  return estimator_.estimate_joint(options_.smoothing);
}

double AdaptiveController::drift() const {
  if (!baseline_.has_value() || observations_ == 0) return 0.0;
  double worst = 0.0;
  for (AttributeId id = 0; id < schema_->attribute_count(); ++id) {
    worst = std::max(worst, estimator_.attribute(id).l1_distance(
                                baseline_marginals_[id], options_.smoothing));
  }
  return worst;
}

bool AdaptiveController::should_rebuild() const {
  if (observations_ < options_.min_observations) return false;
  // Before the first optimization only min_observations gates the rebuild;
  // the cooldown throttles subsequent ones.
  if (!baseline_.has_value()) return true;
  if (observations_ - observations_at_rebuild_ < options_.rebuild_cooldown) {
    return false;
  }
  return drift() > options_.drift_threshold;
}

void AdaptiveController::mark_rebuilt(const JointDistribution& baseline) {
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(schema_->attribute_count());
  for (AttributeId id = 0; id < schema_->attribute_count(); ++id) {
    marginals.push_back(baseline.marginal(id));
  }
  baseline_ = baseline;
  baseline_marginals_ = std::move(marginals);
  observations_at_rebuild_ = observations_;
  ++rebuilds_;
}

}  // namespace genas
