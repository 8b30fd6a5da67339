#include "tree/flat_tree.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace genas {

FlatProfileTree FlatProfileTree::compile(const ProfileTree& tree) {
  FlatProfileTree flat;
  flat.schema_ = tree.schema();
  flat.root_ = tree.root();
  flat.profile_count_ = tree.profile_count();
  flat.source_version_ = tree.source_version();

  auto structure = std::make_shared<Structure>();
  auto costs = std::make_shared<std::vector<std::uint32_t>>();

  const std::vector<ProfileTree::Node>& nodes = tree.nodes();
  std::size_t total_cells = 0;
  for (const ProfileTree::Node& node : nodes) total_cells += node.cells.size();

  structure->nodes.reserve(nodes.size());
  structure->upper.reserve(total_cells);
  structure->child.reserve(total_cells);
  costs->reserve(total_cells);

  for (const ProfileTree::Node& node : nodes) {
    GENAS_CHECK(structure->upper.size() <= UINT32_MAX - node.cells.size(),
                "flat tree cell slab exceeds 2^32 cells");
    NodeRef ref;
    ref.attribute = node.attribute;
    ref.first_cell = static_cast<std::uint32_t>(structure->upper.size());
    ref.cell_count = static_cast<std::uint32_t>(node.cells.size());
    structure->nodes.push_back(ref);
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      structure->upper.push_back(node.cells[i].hi);
      structure->child.push_back(node.child[i]);
      costs->push_back(node.cost[i]);
    }
  }

  const std::vector<ProfileTree::Leaf>& leaves = tree.leaves();
  std::size_t total_postings = 0;
  for (const ProfileTree::Leaf& leaf : leaves) {
    total_postings += leaf.matched.size();
  }
  GENAS_CHECK(total_postings <= UINT32_MAX,
              "flat tree posting slab exceeds 2^32 entries");
  std::vector<std::uint32_t>& offsets = structure->leaf_offsets;
  std::vector<ProfileId>& postings = structure->postings;
  offsets.reserve(leaves.size() + 1);
  postings.reserve(total_postings);
  offsets.push_back(0);
  for (const ProfileTree::Leaf& leaf : leaves) {
    postings.insert(postings.end(), leaf.matched.begin(), leaf.matched.end());
    offsets.push_back(static_cast<std::uint32_t>(postings.size()));
  }

  flat.nodes_ = structure->nodes.data();
  flat.upper_ = structure->upper.data();
  flat.child_ = structure->child.data();
  flat.leaf_offsets_ = offsets.data();
  flat.postings_ = postings.data();
  flat.cost_ = costs->data();
  flat.structure_ = std::move(structure);
  flat.costs_ = std::move(costs);
  return flat;
}

FlatProfileTree FlatProfileTree::recost(const JointDistribution& distribution,
                                        std::uint64_t source_version) const {
  GENAS_REQUIRE(distribution.schema() == schema_, ErrorCode::kInvalidArgument,
                "event distribution schema differs from tree schema");
  std::vector<DiscreteDistribution> marginals;
  marginals.reserve(schema_->attribute_count());
  for (AttributeId id = 0; id < schema_->attribute_count(); ++id) {
    marginals.push_back(distribution.marginal(id));
  }

  auto costs = std::make_shared<std::vector<std::uint32_t>>(cell_count());
  std::vector<std::uint8_t> is_edge;
  std::vector<double> keys;
  LinearScanScratch scratch;
  for (const NodeRef& node : nodes()) {
    const DiscreteDistribution& marginal = marginals[node.attribute];
    const std::size_t k = node.cell_count;
    is_edge.resize(k);
    keys.resize(k);
    DomainIndex lo = schema_->attribute(node.attribute).domain.full().lo;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t cell = node.first_cell + i;
      keys[i] = marginal.mass(Interval{lo, upper_[cell]});
      is_edge[i] = child_[cell] != ProfileTree::kMiss ? 1 : 0;
      lo = upper_[cell] + 1;
    }
    plan_linear_costs(is_edge, keys,
                      std::span(costs->data() + node.first_cell, k), {},
                      scratch);
  }

  FlatProfileTree out = *this;
  out.source_version_ = source_version;
  out.cost_ = costs->data();
  out.costs_ = std::move(costs);
  return out;
}

FlatMatch FlatProfileTree::match(const Event& event) const noexcept {
  FlatMatch result;
  const DomainIndex* indices = event.indices().data();
  std::int32_t slot = root_;
  while (slot >= 0) {
    const NodeRef node = nodes_[static_cast<std::size_t>(slot)];
    const DomainIndex v = indices[node.attribute];
    // Locate the containing cell: binary search by upper bound over the
    // node's contiguous slab span. This is the prototype's O(1) lookup-table
    // access and is not counted as a filter operation.
    const DomainIndex* upper = upper_ + node.first_cell;
    const DomainIndex* it = std::lower_bound(upper, upper + node.cell_count, v);
    if (it == upper + node.cell_count) --it;  // defensive: v beyond domain edge
    const auto idx =
        node.first_cell + static_cast<std::uint32_t>(it - upper);
    result.operations += cost_[idx];
    slot = child_[idx];
  }
  if (ProfileTree::is_leaf_ref(slot)) {
    const std::size_t leaf = ProfileTree::leaf_index(slot);
    const std::uint32_t begin = leaf_offsets_[leaf];
    result.matched = postings_ + begin;
    result.matched_count = leaf_offsets_[leaf + 1] - begin;
  }
  return result;
}

std::size_t FlatProfileTree::arena_bytes() const noexcept {
  const Structure& s = *structure_;
  return s.nodes.size() * sizeof(NodeRef) +
         s.upper.size() * sizeof(DomainIndex) +
         s.child.size() * sizeof(std::int32_t) +
         costs_->size() * sizeof(std::uint32_t) +
         s.leaf_offsets.size() * sizeof(std::uint32_t) +
         s.postings.size() * sizeof(ProfileId);
}

bool FlatProfileTree::operator==(const FlatProfileTree& other) const {
  const Structure& a = *structure_;
  const Structure& b = *other.structure_;
  return schema_ == other.schema_ && root_ == other.root_ &&
         profile_count_ == other.profile_count_ &&
         source_version_ == other.source_version_ && a.nodes == b.nodes &&
         a.upper == b.upper && a.child == b.child &&
         a.leaf_offsets == b.leaf_offsets && a.postings == b.postings &&
         *costs_ == *other.costs_;
}

}  // namespace genas
