#include "tree/profile_tree.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
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

/// Hash of a sorted alive set. Transparent, so a lookup takes a span into
/// a scratch buffer and only an insert allocates a key. Ids are folded two
/// per 64-bit word with one multiply each, and the result is finalized with
/// splitmix64: alive sets run to hundreds of ids, and most lookups hit.
struct AliveHash {
  using is_transparent = void;
  std::size_t operator()(std::span<const ProfileId> ids) const noexcept {
    constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
    std::uint64_t h = ids.size();
    std::size_t i = 0;
    for (; i + 1 < ids.size(); i += 2) {
      const std::uint64_t word =
          ids[i] | (static_cast<std::uint64_t>(ids[i + 1]) << 32);
      h = (std::rotl(h, 5) ^ word) * kMul;
    }
    if (i < ids.size()) h = (std::rotl(h, 5) ^ ids[i]) * kMul;
    return static_cast<std::size_t>(splitmix64(h));
  }
};

struct AliveEqual {
  using is_transparent = void;
  bool operator()(std::span<const ProfileId> a,
                  std::span<const ProfileId> b) const noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// Slots built at one level, keyed by their alive profile set.
using Memo = std::unordered_map<std::vector<ProfileId>, std::int32_t,
                                AliveHash, AliveEqual>;

class TreeBuilder {
 public:
  TreeBuilder(const ProfileSet& profiles, const TreeConfig& config)
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

  std::int32_t run(const std::vector<ProfileId>& alive,
                   std::vector<ProfileTree::Node>& nodes,
                   std::vector<ProfileTree::Leaf>& leaves, TreeBuildStats& stats) {
    nodes_ = &nodes;
    leaves_ = &leaves;
    stats_ = &stats;
    if (alive.empty()) return ProfileTree::kMiss;

    // Each profile's constraint per attribute, looked up once per build.
    capacity_ = profiles_.capacity();
    constraints_.assign(schema_.attribute_count() * capacity_, nullptr);
    for (const ProfileId id : alive) {
      const Profile& profile = profiles_.profile(id);
      for (AttributeId a = 0; a < schema_.attribute_count(); ++a) {
        if (const Predicate* predicate = profile.predicate(a)) {
          constraints_[a * capacity_ + id] = &predicate->accepted();
        }
      }
    }
    memo_.resize(order().size() + 1);
    merged_.resize(order().size());
    return slot(0, alive);
  }

 private:
  /// The subtree for `alive` at `level` (a leaf past the last level):
  /// shared when an identical one was built before, built otherwise.
  std::int32_t slot(std::size_t level, std::span<const ProfileId> alive) {
    Memo& memo = memo_[level];
    if (const auto it = memo.find(alive); it != memo.end()) {
      ++stats_->memo_hits;
      return it->second;
    }
    std::vector<ProfileId> key(alive.begin(), alive.end());
    const std::int32_t built =
        level == order().size() ? build_leaf(key) : build_node(level, key);
    memo.emplace(std::move(key), built);
    return built;
  }

  std::int32_t build_node(std::size_t level, std::span<const ProfileId> alive) {
    const AttributeId attribute = order()[level];
    const Domain& domain = schema_.attribute(attribute).domain;

    // Split the alive set into profiles constraining this attribute and
    // don't-care profiles (which flow into every cell).
    const IntervalSet* const* constraint_of =
        constraints_.data() + attribute * capacity_;
    std::vector<ProfileId> constrained_ids;
    std::vector<const IntervalSet*> constraints;
    std::vector<ProfileId> dont_care;
    double total_weight = 0.0;  // of the constraining profiles, for P_p
    for (const ProfileId id : alive) {
      if (const IntervalSet* set = constraint_of[id]) {
        constrained_ids.push_back(id);
        constraints.push_back(set);
        total_weight += profiles_.weight(id);
      } else {
        dont_care.push_back(id);
      }
    }

    Decomposition decomp = decompose(domain.full(), constraints);
    const std::size_t cell_count = decomp.cells.size();

    ProfileTree::Node node;
    node.attribute = attribute;
    node.child.reserve(cell_count);

    CellLayout layout;
    layout.is_edge.reserve(cell_count);
    layout.order_key.reserve(cell_count);

    // Every zero cell's alive set is the don't-care list, so its child is
    // built (or found) once and reused; each reuse counts as the memo hit
    // a fresh lookup would have been.
    std::optional<std::int32_t> dont_care_child;
    std::vector<ProfileId>& merged = merged_[level];
    for (std::size_t i = 0; i < cell_count; ++i) {
      const std::span<const std::uint32_t> accepters = decomp.accepters(i);
      std::int32_t child = ProfileTree::kMiss;
      if (!accepters.empty()) {
        // Accepter positions ascend, so their ids do too: merge them with
        // the don't-care list into the sorted alive set of this cell.
        merged.clear();
        std::size_t d = 0;
        for (const std::uint32_t c : accepters) {
          const ProfileId id = constrained_ids[c];
          while (d < dont_care.size() && dont_care[d] < id) {
            merged.push_back(dont_care[d++]);
          }
          merged.push_back(id);
        }
        merged.insert(merged.end(), dont_care.begin() + d, dont_care.end());
        child = slot(level + 1, merged);
      } else if (dont_care_child.has_value()) {
        ++stats_->memo_hits;
        child = *dont_care_child;
      } else if (!dont_care.empty()) {
        dont_care_child = slot(level + 1, dont_care);
        child = *dont_care_child;
      }

      const bool edge = child != ProfileTree::kMiss;
      node.child.push_back(child);
      layout.is_edge.push_back(edge);
      layout.order_key.push_back(order_key(attribute, decomp.cells[i],
                                           accepters, constrained_ids,
                                           total_weight));
      if (edge) ++stats_->edge_count;
    }

    layout.cells = std::move(decomp.cells);
    CellCosts costs = plan_costs(layout, config_.strategy);
    node.cells = std::move(layout.cells);
    node.cost = std::move(costs.cost);
    node.scan_rank = std::move(costs.scan_rank);

    stats_->cell_count += cell_count;
    stats_->max_node_width = std::max(stats_->max_node_width, cell_count);
    ++stats_->node_count;

    const auto index = static_cast<std::int32_t>(nodes_->size());
    nodes_->push_back(std::move(node));
    return index;
  }

  std::int32_t build_leaf(std::span<const ProfileId> alive) {
    const std::int32_t ref = ProfileTree::make_leaf_ref(leaves_->size());
    leaves_->push_back(
        ProfileTree::Leaf{std::vector<ProfileId>(alive.begin(), alive.end())});
    ++stats_->leaf_count;
    return ref;
  }

  /// Scan-priority key of a cell under the configured value order. Higher
  /// keys are scanned earlier; ties resolve to natural interval order.
  double order_key(AttributeId attribute, const Interval& cell,
                   std::span<const std::uint32_t> accepters,
                   const std::vector<ProfileId>& constrained_ids,
                   double total_weight) const {
    switch (config_.value_order) {
      case ValueOrder::kNaturalAscending:
        return 0.0;  // all ties -> stable sort keeps natural order
      case ValueOrder::kNaturalDescending:
        return static_cast<double>(cell.lo);
      case ValueOrder::kEventProbability:
        return event_mass(attribute, cell);
      case ValueOrder::kProfileProbability:
        return profile_share(accepters, constrained_ids, total_weight);
      case ValueOrder::kCombinedProbability:
        return event_mass(attribute, cell) *
               profile_share(accepters, constrained_ids, total_weight);
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
  double profile_share(std::span<const std::uint32_t> accepters,
                       const std::vector<ProfileId>& constrained_ids,
                       double total_weight) const {
    double referenced = 0.0;
    for (const std::uint32_t c : accepters) {
      referenced += profiles_.weight(constrained_ids[c]);
    }
    return total_weight > 0.0 ? referenced / total_weight : 0.0;
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
  /// Row per attribute, column per profile id: the profile's accepted set,
  /// or null when it does not constrain the attribute.
  std::vector<const IntervalSet*> constraints_;
  std::size_t capacity_ = 0;
  /// One memo per level; the last one holds the leaves.
  std::vector<Memo> memo_;
  /// Per-level scratch for a cell's merged alive set.
  std::vector<std::vector<ProfileId>> merged_;
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
