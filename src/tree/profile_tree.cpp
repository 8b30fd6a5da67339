#include "tree/profile_tree.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tree/decomposition.hpp"

namespace genas {

std::string_view to_string(ValueOrder order) noexcept {
  switch (order) {
    case ValueOrder::kNaturalAscending:    return "natural-asc";
    case ValueOrder::kNaturalDescending:   return "natural-desc";
    case ValueOrder::kEventProbability:    return "event-prob (V1)";
    case ValueOrder::kProfileProbability:  return "profile-prob (V2)";
    case ValueOrder::kCombinedProbability: return "combined-prob (V3)";
  }
  return "?";
}

namespace {

/// Memoization key: (level, alive profile set) with a precomputed hash.
struct MemoKey {
  std::size_t level = 0;
  std::vector<ProfileId> alive;

  friend bool operator==(const MemoKey& a, const MemoKey& b) noexcept {
    return a.level == b.level && a.alive == b.alive;
  }
};

struct ProfileVecHash {
  std::size_t operator()(const std::vector<ProfileId>& ids) const noexcept {
    std::uint64_t h = 0x243F6A8885A308D3ULL;
    for (const ProfileId id : ids) {
      std::uint64_t x = h ^ (id + 0x9E3779B97F4A7C15ULL);
      h = splitmix64(x);
    }
    return static_cast<std::size_t>(h);
  }
};

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& key) const noexcept {
    return ProfileVecHash{}(key.alive) ^ (key.level * 0x9E3779B97F4A7C15ULL);
  }
};

/// Merges two sorted ProfileId lists into one sorted list.
std::vector<ProfileId> merge_sorted(const std::vector<ProfileId>& a,
                                    const std::vector<ProfileId>& b) {
  std::vector<ProfileId> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

class TreeBuilder {
 public:
  TreeBuilder(const ProfileSet& profiles, const TreeConfig& config,
              ProfileTree::Node* /*tag*/ = nullptr)
      : profiles_(profiles), schema_(*profiles.schema()), config_(config) {
    if (config_.event_distribution.has_value()) {
      const JointDistribution& joint = *config_.event_distribution;
      GENAS_REQUIRE(joint.schema() == profiles.schema(),
                    ErrorCode::kInvalidArgument,
                    "event distribution schema differs from profile schema");
      marginals_.reserve(schema_.attribute_count());
      for (AttributeId id = 0; id < schema_.attribute_count(); ++id) {
        marginals_.push_back(joint.marginal(id));
      }
    }
    GENAS_REQUIRE(!needs_event_distribution(config_.value_order) ||
                      config_.event_distribution.has_value(),
                  ErrorCode::kInvalidArgument,
                  "value order requires an event distribution");
  }

  std::int32_t run(std::vector<ProfileId> alive, std::vector<ProfileTree::Node>& nodes,
                   std::vector<ProfileTree::Leaf>& leaves, TreeBuildStats& stats) {
    nodes_ = &nodes;
    leaves_ = &leaves;
    stats_ = &stats;
    if (alive.empty()) return ProfileTree::kMiss;
    return build_slot(0, std::move(alive));
  }

 private:
  std::int32_t build_slot(std::size_t level, std::vector<ProfileId> alive) {
    GENAS_CHECK(!alive.empty(), "build_slot requires a non-empty alive set");
    if (level == order().size()) return build_leaf(std::move(alive));

    MemoKey key{level, std::move(alive)};
    if (const auto it = memo_.find(key); it != memo_.end()) {
      ++stats_->memo_hits;
      return it->second;
    }

    const AttributeId attribute = order()[level];
    const Domain& domain = schema_.attribute(attribute).domain;

    // Split the alive set into profiles constraining this attribute and
    // don't-care profiles (which flow into every cell).
    std::vector<ProfileId> constrained_ids;
    std::vector<const IntervalSet*> constraints;
    std::vector<ProfileId> dont_care;
    for (const ProfileId id : key.alive) {
      const Predicate* predicate = profiles_.profile(id).predicate(attribute);
      if (predicate != nullptr) {
        constrained_ids.push_back(id);
        constraints.push_back(&predicate->accepted());
      } else {
        dont_care.push_back(id);
      }
    }

    const Decomposition decomp = decompose(domain.full(), constraints);
    const std::size_t cell_count = decomp.cells.size();

    ProfileTree::Node node;
    node.attribute = attribute;
    node.cells.reserve(cell_count);
    node.child.reserve(cell_count);

    CellLayout layout;
    layout.cells.reserve(cell_count);
    layout.is_edge.reserve(cell_count);
    layout.order_key.reserve(cell_count);

    for (const Cell& cell : decomp.cells) {
      std::vector<ProfileId> cell_alive = dont_care;
      if (!cell.accepters.empty()) {
        std::vector<ProfileId> accepted;
        accepted.reserve(cell.accepters.size());
        for (const std::uint32_t c : cell.accepters) {
          accepted.push_back(constrained_ids[c]);
        }
        cell_alive = merge_sorted(dont_care, accepted);
      }

      const bool edge = !cell_alive.empty();
      node.cells.push_back(cell.interval);
      node.child.push_back(edge ? build_slot(level + 1, std::move(cell_alive))
                                : ProfileTree::kMiss);

      layout.cells.push_back(cell.interval);
      layout.is_edge.push_back(edge);
      layout.order_key.push_back(order_key(attribute, cell, constrained_ids));
      if (edge) ++stats_->edge_count;
    }

    const CellCosts costs = plan_costs(layout, config_.strategy);
    node.cost = costs.cost;
    node.scan_rank = costs.scan_rank;

    stats_->cell_count += cell_count;
    stats_->max_node_width = std::max(stats_->max_node_width, cell_count);
    ++stats_->node_count;

    const auto index = static_cast<std::int32_t>(nodes_->size());
    nodes_->push_back(std::move(node));
    memo_.emplace(std::move(key), index);
    return index;
  }

  std::int32_t build_leaf(std::vector<ProfileId> alive) {
    if (const auto it = leaf_memo_.find(alive); it != leaf_memo_.end()) {
      ++stats_->memo_hits;
      return it->second;
    }
    const std::int32_t ref = ProfileTree::make_leaf_ref(leaves_->size());
    leaves_->push_back(ProfileTree::Leaf{alive});
    ++stats_->leaf_count;
    leaf_memo_.emplace(std::move(alive), ref);
    return ref;
  }

  /// Scan-priority key of a cell under the configured value order. Higher
  /// keys are scanned earlier; ties resolve to natural interval order.
  double order_key(AttributeId attribute, const Cell& cell,
                   const std::vector<ProfileId>& constrained_ids) const {
    switch (config_.value_order) {
      case ValueOrder::kNaturalAscending:
        return 0.0;  // all ties -> stable sort keeps natural order
      case ValueOrder::kNaturalDescending:
        return static_cast<double>(cell.interval.lo);
      case ValueOrder::kEventProbability:
        return event_mass(attribute, cell.interval);
      case ValueOrder::kProfileProbability:
        return profile_share(cell, constrained_ids);
      case ValueOrder::kCombinedProbability:
        return event_mass(attribute, cell.interval) *
               profile_share(cell, constrained_ids);
    }
    return 0.0;
  }

  double event_mass(AttributeId attribute, const Interval& iv) const {
    GENAS_CHECK(attribute < marginals_.size(),
                "event distribution missing for ordering key");
    return marginals_[attribute].mass(iv);
  }

  /// P_p(x_i): priority-weighted share of constraining profiles that
  /// reference this cell (every profile weighs 1.0 unless the application
  /// raised its priority).
  double profile_share(const Cell& cell,
                       const std::vector<ProfileId>& constrained_ids) const {
    if (constrained_ids.empty()) return 0.0;
    double total = 0.0;
    for (const ProfileId id : constrained_ids) total += profiles_.weight(id);
    double referenced = 0.0;
    for (const std::uint32_t c : cell.accepters) {
      referenced += profiles_.weight(constrained_ids[c]);
    }
    return total > 0.0 ? referenced / total : 0.0;
  }

  const std::vector<AttributeId>& order() const noexcept {
    return config_.attribute_order;
  }

  const ProfileSet& profiles_;
  const Schema& schema_;
  const TreeConfig& config_;
  std::vector<DiscreteDistribution> marginals_;

  std::vector<ProfileTree::Node>* nodes_ = nullptr;
  std::vector<ProfileTree::Leaf>* leaves_ = nullptr;
  TreeBuildStats* stats_ = nullptr;
  std::unordered_map<MemoKey, std::int32_t, MemoKeyHash> memo_;
  std::unordered_map<std::vector<ProfileId>, std::int32_t, ProfileVecHash>
      leaf_memo_;
};

}  // namespace

ProfileTree ProfileTree::build(const ProfileSet& profiles, TreeConfig config) {
  const std::size_t n = profiles.schema()->attribute_count();
  if (config.attribute_order.empty()) {
    config.attribute_order.resize(n);
    for (std::size_t j = 0; j < n; ++j) config.attribute_order[j] = j;
  }
  GENAS_REQUIRE(config.attribute_order.size() == n, ErrorCode::kInvalidArgument,
                "attribute order must cover every schema attribute");
  std::vector<bool> seen(n, false);
  for (const AttributeId id : config.attribute_order) {
    GENAS_REQUIRE(id < n, ErrorCode::kInvalidArgument,
                  "attribute order contains an out-of-range id");
    GENAS_REQUIRE(!seen[id], ErrorCode::kInvalidArgument,
                  "attribute order repeats an attribute");
    seen[id] = true;
  }

  ProfileTree tree;
  tree.schema_ = profiles.schema();
  tree.profile_count_ = profiles.active_count();
  tree.source_version_ = profiles.version();

  TreeBuilder builder(profiles, config);
  tree.root_ = builder.run(profiles.active_ids(), tree.nodes_, tree.leaves_,
                           tree.stats_);
  tree.config_ = std::move(config);
  return tree;
}

std::string ProfileTree::dump() const {
  std::ostringstream os;
  os << "ProfileTree(p=" << profile_count_ << ", nodes=" << nodes_.size()
     << ", leaves=" << leaves_.size() << ", order=" << to_string(config_.value_order)
     << ", search=" << to_string(config_.strategy) << ")\n";

  // Recursive textual rendering; nodes_ forms a DAG, so shared subtrees are
  // printed once per reference (fine for the small trees this is used on).
  const auto render = [&](auto&& self, std::int32_t slot, int depth) -> void {
    const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
    if (slot == kMiss) {
      os << pad << "-> miss\n";
      return;
    }
    if (is_leaf_ref(slot)) {
      os << pad << "-> leaf{";
      const Leaf& leaf = leaves_[leaf_index(slot)];
      for (std::size_t i = 0; i < leaf.matched.size(); ++i) {
        if (i > 0) os << ',';
        os << 'p' << leaf.matched[i];
      }
      os << "}\n";
      return;
    }
    const Node& node = nodes_[static_cast<std::size_t>(slot)];
    os << pad << "node[" << schema_->attribute(node.attribute).name << "]\n";
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      os << pad << "  " << node.cells[i].to_string() << " cost="
         << node.cost[i];
      if (node.scan_rank[i] > 0) os << " rank=" << node.scan_rank[i];
      os << '\n';
      self(self, node.child[i], depth + 2);
    }
  };
  render(render, root_, 0);
  return os.str();
}

}  // namespace genas
