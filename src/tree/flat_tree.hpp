// GENAS — FlatProfileTree: the cache-friendly compiled form of a tree.
//
// ProfileTree::Node keeps five std::vectors per node, so walking it would
// chase one heap pointer per vector per level. FlatProfileTree compiles the
// built tree into one contiguous arena with SoA cell slabs — `upper_[]`,
// `child_[]`, `cost_[]` indexed by a per-node cell offset — plus a CSR
// posting slab for the leaves. Cells partition each node's domain, so the
// upper bounds alone locate a cell; lower bounds are never materialized.
// A match then touches a handful of cache lines: the node directory entry,
// the upper-bound slab span it binary searches, and (on a hit) the leaf
// posting span.
//
// Node indices, child-slot encoding, and per-cell costs are copied verbatim
// from the source ProfileTree, so the operation counts are exactly the ones
// the node form's cost model (expected_cost) predicts. The flat form is the
// only form that matches events. FilterEngine is the one owner that builds
// and caches it — for the broker's snapshots, the routing tables' links and
// the overlay's brokers — and drops the node form once compiled.
//
// Immutable after compile(); matching is allocation-free, noexcept, and
// safe to run from any number of threads concurrently.
#pragma once

#include <cstdint>
#include <span>

#include "tree/profile_tree.hpp"

namespace genas {

/// Result of matching one event against the flat tree. `matched` points into
/// the tree's posting slab and stays valid while the tree lives.
struct FlatMatch {
  const ProfileId* matched = nullptr;
  std::uint32_t matched_count = 0;
  /// Counted comparison operations (the paper's performance measure).
  std::uint64_t operations = 0;

  std::span<const ProfileId> span() const noexcept {
    return {matched, matched_count};
  }
};

/// Immutable SoA compilation of a ProfileTree.
class FlatProfileTree {
 public:
  /// Directory entry of one node: where its cells live in the slabs.
  struct NodeRef {
    AttributeId attribute = 0;
    std::uint32_t first_cell = 0;
    std::uint32_t cell_count = 0;
  };

  /// Compiles the built node-form tree. The flat tree is self-contained; the
  /// source may be destroyed afterwards.
  static FlatProfileTree compile(const ProfileTree& tree);

  /// Matches one event along the single DFSA path.
  FlatMatch match(const Event& event) const noexcept;

  const SchemaPtr& schema() const noexcept { return schema_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Node directory, indexed like ProfileTree::nodes().
  std::span<const NodeRef> nodes() const noexcept { return nodes_; }
  std::size_t leaf_count() const noexcept {
    return leaf_offsets_.empty() ? 0 : leaf_offsets_.size() - 1;
  }
  std::size_t cell_count() const noexcept { return upper_.size(); }
  std::size_t profile_count() const noexcept { return profile_count_; }

  /// Profile-set version of the source tree (staleness detection).
  std::uint64_t source_version() const noexcept { return source_version_; }

  /// Root slot (node index, leaf ref, or ProfileTree::kMiss), same encoding
  /// as the node form.
  std::int32_t root() const noexcept { return root_; }

  /// Total bytes of the slab arenas (diagnostics / perf reports).
  std::size_t arena_bytes() const noexcept;

 private:
  FlatProfileTree() = default;

  SchemaPtr schema_;
  std::vector<NodeRef> nodes_;           // indexed like ProfileTree::nodes()
  std::vector<DomainIndex> upper_;       // cell slabs, per-node contiguous
  std::vector<std::int32_t> child_;
  std::vector<std::uint32_t> cost_;
  std::vector<std::uint32_t> leaf_offsets_;  // CSR: leaves + 1 entries
  std::vector<ProfileId> postings_;          // concatenated leaf match sets
  std::int32_t root_ = ProfileTree::kMiss;
  std::size_t profile_count_ = 0;
  std::uint64_t source_version_ = 0;
};

}  // namespace genas
