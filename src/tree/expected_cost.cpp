#include "tree/expected_cost.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "tree/flat_tree.hpp"

namespace genas {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Largest profile id appearing in any leaf, or -1 when none.
std::int64_t max_profile_id(const ProfileTree& tree) {
  std::int64_t top = -1;
  for (const ProfileTree::Leaf& leaf : tree.leaves()) {
    for (const ProfileId id : leaf.matched) {
      top = std::max<std::int64_t>(top, id);
    }
  }
  return top;
}

/// Shared tail: turns per-profile numerator/denominator accumulators into
/// the report's profile metrics.
void finalize_profile_metrics(const std::vector<double>& num,
                              const std::vector<double>& den,
                              CostReport& report) {
  report.per_profile_ops.assign(num.size(), kNaN);
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < num.size(); ++i) {
    if (den[i] > 0.0) {
      report.per_profile_ops[i] = num[i] / den[i];
      sum += report.per_profile_ops[i];
      ++counted;
    }
  }
  report.ops_per_profile = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  report.ops_per_event_and_profile =
      report.pairs_per_event > 0.0 ? report.ops_per_event / report.pairs_per_event
                                   : 0.0;
}

}  // namespace

CostReport expected_cost(const ProfileTree& tree,
                         const JointDistribution& joint) {
  GENAS_REQUIRE(joint.schema() == tree.schema(), ErrorCode::kInvalidArgument,
                "distribution schema differs from tree schema");

  CostReport report;
  report.per_attribute_ops.assign(tree.schema()->attribute_count(), 0.0);
  const std::int32_t root = tree.root();
  const std::int64_t top_profile = max_profile_id(tree);
  std::vector<double> num(static_cast<std::size_t>(top_profile + 1), 0.0);
  std::vector<double> den(num.size(), 0.0);
  if (root == ProfileTree::kMiss) {
    finalize_profile_metrics(num, den, report);
    return report;
  }

  const auto& nodes = tree.nodes();
  const auto& leaves = tree.leaves();
  const std::size_t components = joint.component_count();

  // Per-component reach probability and accumulated expected operations
  // E[ops(path) · 1{path reaches slot, component c}]. Children always have
  // smaller indices than parents, so one descending sweep from the root
  // (the last node) visits parents before children.
  std::vector<std::vector<double>> reach(nodes.size(),
                                         std::vector<double>(components, 0.0));
  std::vector<std::vector<double>> acc(nodes.size(),
                                       std::vector<double>(components, 0.0));
  std::vector<std::vector<double>> leaf_reach(
      leaves.size(), std::vector<double>(components, 0.0));
  std::vector<std::vector<double>> leaf_acc(
      leaves.size(), std::vector<double>(components, 0.0));

  GENAS_CHECK(root == static_cast<std::int32_t>(nodes.size()) - 1,
              "root must be the last node built");
  for (std::size_t c = 0; c < components; ++c) {
    reach[static_cast<std::size_t>(root)][c] = joint.component_weight(c);
  }

  for (std::int64_t i = root; i >= 0; --i) {
    const auto ui = static_cast<std::size_t>(i);
    const ProfileTree::Node& node = nodes[ui];
    for (std::size_t c = 0; c < components; ++c) {
      const double q = reach[ui][c];
      const double a = acc[ui][c];
      if (q == 0.0 && a == 0.0) continue;
      const DiscreteDistribution& marginal =
          joint.component_marginal(c, node.attribute);
      for (std::size_t cell = 0; cell < node.cells.size(); ++cell) {
        const double mass = marginal.mass(node.cells[cell]);
        if (mass == 0.0) continue;
        const double cost = static_cast<double>(node.cost[cell]);
        report.ops_per_event += q * mass * cost;
        report.per_attribute_ops[node.attribute] += q * mass * cost;

        const std::int32_t child = node.child[cell];
        if (child == ProfileTree::kMiss) continue;
        const double dq = q * mass;
        const double da = a * mass + dq * cost;
        if (child >= 0) {
          reach[static_cast<std::size_t>(child)][c] += dq;
          acc[static_cast<std::size_t>(child)][c] += da;
        } else {
          const std::size_t leaf = ProfileTree::leaf_index(child);
          leaf_reach[leaf][c] += dq;
          leaf_acc[leaf][c] += da;
        }
      }
    }
  }

  for (std::size_t leaf = 0; leaf < leaves.size(); ++leaf) {
    double q = 0.0;
    double a = 0.0;
    for (std::size_t c = 0; c < components; ++c) {
      q += leaf_reach[leaf][c];
      a += leaf_acc[leaf][c];
    }
    if (q == 0.0) continue;
    report.match_probability += q;
    report.pairs_per_event +=
        q * static_cast<double>(leaves[leaf].matched.size());
    for (const ProfileId id : leaves[leaf].matched) {
      num[id] += a;
      den[id] += q;
    }
  }

  finalize_profile_metrics(num, den, report);
  return report;
}

namespace {

/// Accumulates empirical metrics event by event.
class EmpiricalAccumulator {
 public:
  explicit EmpiricalAccumulator(std::int64_t top_profile)
      : num_(static_cast<std::size_t>(top_profile + 1), 0.0),
        den_(num_.size(), 0.0) {}

  void add(const FlatMatch& match) {
    const auto ops = static_cast<double>(match.operations);
    ++events_;
    sum_ops_ += ops;
    sum_ops_sq_ += ops * ops;
    if (match.matched_count > 0) {
      ++matched_events_;
      pairs_ += static_cast<double>(match.matched_count);
      for (const ProfileId id : match.span()) {
        num_[id] += ops;
        den_[id] += 1.0;
      }
    }
  }

  std::size_t events() const noexcept { return events_; }
  double mean_ops() const noexcept {
    return events_ > 0 ? sum_ops_ / static_cast<double>(events_) : 0.0;
  }

  /// Half-width of the 95% CI of mean ops per event.
  double ci_half_width() const noexcept {
    if (events_ < 2) return std::numeric_limits<double>::infinity();
    const auto n = static_cast<double>(events_);
    const double mean = sum_ops_ / n;
    const double variance =
        std::max(0.0, (sum_ops_sq_ - n * mean * mean) / (n - 1.0));
    return 1.96 * std::sqrt(variance / n);
  }

  CostReport report() const {
    CostReport out;
    if (events_ > 0) {
      const auto n = static_cast<double>(events_);
      out.ops_per_event = sum_ops_ / n;
      out.match_probability = static_cast<double>(matched_events_) / n;
      out.pairs_per_event = pairs_ / n;
    }
    // finalize derives ops_per_profile / per_profile_ops from the raw
    // accumulators and ops_per_event_and_profile from the fields just set.
    finalize_profile_metrics(num_, den_, out);
    return out;
  }

 private:
  std::vector<double> num_;
  std::vector<double> den_;
  std::size_t events_ = 0;
  std::size_t matched_events_ = 0;
  double sum_ops_ = 0.0;
  double sum_ops_sq_ = 0.0;
  double pairs_ = 0.0;
};

}  // namespace

CostReport empirical_cost(const ProfileTree& tree, EventSampler& sampler,
                          std::size_t count) {
  GENAS_REQUIRE(sampler.joint().schema() == tree.schema(),
                ErrorCode::kInvalidArgument,
                "sampler schema differs from tree schema");
  const FlatProfileTree flat = FlatProfileTree::compile(tree);
  EmpiricalAccumulator accum(max_profile_id(tree));
  for (std::size_t i = 0; i < count; ++i) {
    accum.add(flat.match(sampler.sample()));
  }
  return accum.report();
}

PrecisionRun empirical_cost_to_precision(const ProfileTree& tree,
                                         EventSampler& sampler,
                                         double relative_precision,
                                         std::size_t min_events,
                                         std::size_t max_events) {
  GENAS_REQUIRE(relative_precision > 0.0, ErrorCode::kInvalidArgument,
                "relative precision must be positive");
  GENAS_REQUIRE(sampler.joint().schema() == tree.schema(),
                ErrorCode::kInvalidArgument,
                "sampler schema differs from tree schema");
  const FlatProfileTree flat = FlatProfileTree::compile(tree);
  EmpiricalAccumulator accum(max_profile_id(tree));
  while (accum.events() < max_events) {
    accum.add(flat.match(sampler.sample()));
    if (accum.events() >= min_events) {
      const double mean = accum.mean_ops();
      if (mean == 0.0) break;  // degenerate: every event costs zero
      if (accum.ci_half_width() <= relative_precision * mean) break;
    }
  }
  return PrecisionRun{accum.report(), accum.events()};
}

}  // namespace genas
