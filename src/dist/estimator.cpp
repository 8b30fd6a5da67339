#include "dist/estimator.hpp"

#include <cmath>

#include "common/error.hpp"

namespace genas {

HistogramEstimator::HistogramEstimator(std::int64_t size, double decay)
    : decay_(decay) {
  GENAS_REQUIRE(size >= 1, ErrorCode::kInvalidArgument,
                "histogram needs a positive domain size");
  GENAS_REQUIRE(decay > 0.0 && decay <= 1.0, ErrorCode::kInvalidArgument,
                "histogram decay must lie in (0, 1]");
  counts_.assign(static_cast<std::size_t>(size), 0.0);
}

void HistogramEstimator::observe(DomainIndex value) {
  GENAS_REQUIRE(value >= 0 &&
                    value < static_cast<DomainIndex>(counts_.size()),
                ErrorCode::kDomainViolation,
                "observed value outside the histogram domain");
  if (decay_ < 1.0) {
    scale_ /= decay_;
    if (scale_ > 1e120) {
      for (double& c : counts_) c /= scale_;
      scale_ = 1.0;
    }
  }
  counts_[static_cast<std::size_t>(value)] += scale_;
  ++observations_;
}

DiscreteDistribution HistogramEstimator::estimate(double smoothing) const {
  GENAS_REQUIRE(smoothing >= 0.0, ErrorCode::kInvalidArgument,
                "smoothing must be non-negative");
  GENAS_REQUIRE(observations_ > 0 || smoothing > 0.0, ErrorCode::kState,
                "cannot estimate from an empty histogram without smoothing");
  std::vector<double> weights(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    weights[i] = counts_[i] / scale_ + smoothing;
  }
  return DiscreteDistribution::from_weights(std::move(weights));
}

double HistogramEstimator::l1_distance(const DiscreteDistribution& other,
                                       double smoothing) const {
  GENAS_REQUIRE(smoothing >= 0.0, ErrorCode::kInvalidArgument,
                "smoothing must be non-negative");
  GENAS_REQUIRE(observations_ > 0 || smoothing > 0.0, ErrorCode::kState,
                "cannot estimate from an empty histogram without smoothing");
  GENAS_REQUIRE(other.size() == static_cast<std::int64_t>(counts_.size()),
                ErrorCode::kInvalidArgument,
                "L1 distance needs equal domain sizes");
  // The weights and their total exactly as estimate() forms them; each
  // weight is recomputed rather than stored.
  double total = 0.0;
  for (const double count : counts_) total += count / scale_ + smoothing;
  double distance = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double p = (counts_[i] / scale_ + smoothing) / total;
    distance += std::abs(p - other.pmf(static_cast<DomainIndex>(i)));
  }
  return distance;
}

void HistogramEstimator::reset() noexcept {
  counts_.assign(counts_.size(), 0.0);
  scale_ = 1.0;
  observations_ = 0;
}

SchemaEstimator::SchemaEstimator(SchemaPtr schema, double decay)
    : schema_(std::move(schema)) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "estimator needs a schema");
  attributes_.reserve(schema_->attribute_count());
  for (const Attribute& attribute : schema_->attributes()) {
    attributes_.emplace_back(attribute.domain.size(), decay);
  }
}

void SchemaEstimator::observe(const Event& event) {
  GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                "event schema differs from the estimator schema");
  for (AttributeId id = 0; id < attributes_.size(); ++id) {
    attributes_[id].observe(event.index(id));
  }
  ++observations_;
}

const HistogramEstimator& SchemaEstimator::attribute(AttributeId id) const {
  GENAS_REQUIRE(id < attributes_.size(), ErrorCode::kInvalidArgument,
                "attribute id out of range");
  return attributes_[id];
}

JointDistribution SchemaEstimator::estimate_joint(double smoothing) const {
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(attributes_.size());
  for (const HistogramEstimator& h : attributes_) {
    marginals.push_back(h.estimate(smoothing));
  }
  return JointDistribution::independent(schema_, std::move(marginals));
}

void SchemaEstimator::reset() noexcept {
  for (HistogramEstimator& h : attributes_) h.reset();
  observations_ = 0;
}

}  // namespace genas
