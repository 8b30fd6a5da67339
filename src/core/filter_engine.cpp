#include "core/filter_engine.hpp"

#include "common/error.hpp"
#include "dist/shapes.hpp"

namespace genas {

FilterEngine::FilterEngine(SchemaPtr schema, EngineOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      profiles_(schema_) {
  GENAS_REQUIRE(schema_ != nullptr, ErrorCode::kInvalidArgument,
                "filter engine requires a schema");
  if (options_.prior.has_value()) {
    GENAS_REQUIRE(options_.prior->schema() == schema_,
                  ErrorCode::kInvalidArgument,
                  "prior distribution schema differs from engine schema");
  }
  if (options_.adaptive.has_value()) {
    adaptive_.emplace(schema_, *options_.adaptive);
  }
}

ProfileId FilterEngine::subscribe(Profile profile) {
  const ProfileId id = profiles_.add(std::move(profile));
  ++added_live_;
  return id;
}

ProfileId FilterEngine::subscribe(std::string_view expression) {
  return subscribe(parse_profile(schema_, expression));
}

void FilterEngine::unsubscribe(ProfileId id) {
  profiles_.remove(id);
  if (id >= built_capacity_) {
    --added_live_;
  } else {
    ++removed_built_;
  }
}

void FilterEngine::set_priority(ProfileId id, double weight) {
  profiles_.set_weight(id, weight);
  weights_changed_ = true;
}

JointDistribution FilterEngine::effective_distribution() const {
  if (adaptive_.has_value() &&
      adaptive_->observations() >= adaptive_->options().min_observations) {
    return adaptive_->estimate();
  }
  if (options_.prior.has_value()) return *options_.prior;
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(schema_->attribute_count());
  for (const Attribute& attribute : schema_->attributes()) {
    marginals.push_back(shapes::equal(attribute.domain.size()));
  }
  return JointDistribution::independent(schema_, std::move(marginals));
}

namespace {

/// True when a policy's tree structure ignores P_e and its costs are the
/// V1 linear scan's, so a new P_e only needs FlatProfileTree::recost. A2/A3
/// attribute orders read P_e; V3 mixes it with per-cell profile shares the
/// flat tree does not keep. Every other policy rebuilds in full.
bool recostable(const OrderingPolicy& policy) {
  const bool attribute_order_ignores_pe =
      !policy.attribute_measure.has_value() ||
      *policy.attribute_measure == AttributeMeasure::kA1;
  return attribute_order_ignores_pe &&
         policy.strategy == SearchStrategy::kLinear &&
         policy.value_order == ValueOrder::kEventProbability;
}

}  // namespace

void FilterEngine::rebuild_locked(const JointDistribution& distribution) {
  // Build off to the side, then swap the snapshot pointer in one shot: a
  // caller holding the previous snapshot keeps matching against it.
  const bool same_set = snapshot_ != nullptr && added_live_ == 0 &&
                        removed_built_ == 0 && !weights_changed_;
  if (same_set && recostable(options_.policy)) {
    snapshot_ = std::make_shared<const FlatProfileTree>(
        snapshot_->recost(distribution, profiles_.version()));
  } else {
    // The node-form tree is only the compiler's input and dies here.
    snapshot_ = std::make_shared<const FlatProfileTree>(
        FlatProfileTree::compile(
            build_tree(profiles_, options_.policy, distribution)));
    built_capacity_ = profiles_.capacity();
    added_live_ = 0;
    removed_built_ = 0;
    weights_changed_ = false;
    ++build_count_;
  }
  ++rebuild_count_;
  if (adaptive_.has_value()) adaptive_->mark_rebuilt(distribution);
}

std::string FilterEngine::tree_dump() {
  ensure_fresh();
  // rebuild_locked hands every distribution it builds against to the
  // adaptive loop as its baseline; without the loop it is the (fixed)
  // effective distribution.
  return build_tree(profiles_, options_.policy,
                    adaptive_.has_value() ? *adaptive_->baseline()
                                          : effective_distribution())
      .dump();
}

void FilterEngine::rebuild() { rebuild_locked(effective_distribution()); }

void FilterEngine::ensure_fresh() {
  if (snapshot_ == nullptr ||
      snapshot_->source_version() != profiles_.version()) {
    rebuild();
  }
}

std::shared_ptr<const FlatProfileTree> FilterEngine::snapshot() {
  ensure_fresh();
  return snapshot_;
}

bool FilterEngine::observe(std::span<const Event> events) {
  if (!adaptive_.has_value()) return false;
  for (const Event& event : events) {
    GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                  "event schema differs from engine schema");
    adaptive_->observe(event);
  }
  if (!adaptive_->should_rebuild()) return false;
  rebuild_locked(adaptive_->estimate());
  return true;
}

EngineMatch FilterEngine::match(const Event& event) {
  GENAS_REQUIRE(event.schema() == schema_, ErrorCode::kInvalidArgument,
                "event schema differs from engine schema");
  ensure_fresh();

  EngineMatch outcome;
  const FlatMatch result = snapshot_->match(event);
  outcome.operations = result.operations;
  outcome.matched.assign(result.matched, result.matched + result.matched_count);
  outcome.rebuilt = observe({&event, 1});
  return outcome;
}

void FilterEngine::set_policy(OrderingPolicy policy) {
  options_.policy = std::move(policy);
  snapshot_.reset();  // force rebuild on next use
}

}  // namespace genas
