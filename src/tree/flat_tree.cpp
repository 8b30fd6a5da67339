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

  const std::vector<ProfileTree::Node>& nodes = tree.nodes();
  std::size_t total_cells = 0;
  for (const ProfileTree::Node& node : nodes) total_cells += node.cells.size();

  flat.nodes_.reserve(nodes.size());
  flat.upper_.reserve(total_cells);
  flat.child_.reserve(total_cells);
  flat.cost_.reserve(total_cells);

  for (const ProfileTree::Node& node : nodes) {
    GENAS_CHECK(flat.upper_.size() <= UINT32_MAX - node.cells.size(),
                "flat tree cell slab exceeds 2^32 cells");
    NodeRef ref;
    ref.attribute = node.attribute;
    ref.first_cell = static_cast<std::uint32_t>(flat.upper_.size());
    ref.cell_count = static_cast<std::uint32_t>(node.cells.size());
    flat.nodes_.push_back(ref);
    for (std::size_t i = 0; i < node.cells.size(); ++i) {
      flat.upper_.push_back(node.cells[i].hi);
      flat.child_.push_back(node.child[i]);
      flat.cost_.push_back(node.cost[i]);
    }
  }

  const std::vector<ProfileTree::Leaf>& leaves = tree.leaves();
  std::size_t total_postings = 0;
  for (const ProfileTree::Leaf& leaf : leaves) {
    total_postings += leaf.matched.size();
  }
  GENAS_CHECK(total_postings <= UINT32_MAX,
              "flat tree posting slab exceeds 2^32 entries");
  flat.leaf_offsets_.reserve(leaves.size() + 1);
  flat.postings_.reserve(total_postings);
  flat.leaf_offsets_.push_back(0);
  for (const ProfileTree::Leaf& leaf : leaves) {
    flat.postings_.insert(flat.postings_.end(), leaf.matched.begin(),
                          leaf.matched.end());
    flat.leaf_offsets_.push_back(static_cast<std::uint32_t>(flat.postings_.size()));
  }
  return flat;
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
    const DomainIndex* upper = upper_.data() + node.first_cell;
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
    result.matched = postings_.data() + begin;
    result.matched_count = leaf_offsets_[leaf + 1] - begin;
  }
  return result;
}

std::size_t FlatProfileTree::arena_bytes() const noexcept {
  return nodes_.size() * sizeof(NodeRef) +
         upper_.size() * sizeof(DomainIndex) +
         child_.size() * sizeof(std::int32_t) +
         cost_.size() * sizeof(std::uint32_t) +
         leaf_offsets_.size() * sizeof(std::uint32_t) +
         postings_.size() * sizeof(ProfileId);
}

}  // namespace genas
