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
// The tree's structure depends only on the profiles; the event
// distribution P_e only orders a node's scan (V1), which moves the per-cell
// costs. So the structure slabs (node directory, upper bounds, children,
// postings) sit in one shared block and the cost slab in another: recost()
// derives a tree for a new P_e that shares the structure and owns fresh
// costs, bit-identical to compiling a fresh build. match() reads the slabs
// through raw pointers cached at compile time, so the sharing adds no
// indirection to the hot path.
//
// Immutable after compile(); matching is allocation-free, noexcept, and
// safe to run from any number of threads concurrently.
#pragma once

#include <cstdint>
#include <memory>
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

    friend bool operator==(const NodeRef&, const NodeRef&) = default;
  };

  /// Compiles the built node-form tree. The flat tree is self-contained; the
  /// source may be destroyed afterwards.
  static FlatProfileTree compile(const ProfileTree& tree);

  /// This structure with the V1 (event-probability) linear-scan costs for
  /// `distribution`, stamped with `source_version`: equal to compiling a
  /// V1/linear build over the same profile set for `distribution`. A cell's
  /// lower bound is its predecessor's upper bound + 1 (the domain's lo for
  /// a node's first cell), it is an edge iff its child is not kMiss, and its
  /// scan key is the attribute marginal's mass on it, as in the build. The
  /// result shares this tree's structure slabs.
  FlatProfileTree recost(const JointDistribution& distribution,
                         std::uint64_t source_version) const;

  /// Matches one event along the single DFSA path.
  FlatMatch match(const Event& event) const noexcept;

  const SchemaPtr& schema() const noexcept { return schema_; }
  std::size_t node_count() const noexcept { return structure_->nodes.size(); }
  /// Node directory, indexed like ProfileTree::nodes().
  std::span<const NodeRef> nodes() const noexcept { return structure_->nodes; }
  std::size_t leaf_count() const noexcept {
    const std::size_t offsets = structure_->leaf_offsets.size();
    return offsets == 0 ? 0 : offsets - 1;
  }
  std::size_t cell_count() const noexcept { return structure_->upper.size(); }
  std::size_t profile_count() const noexcept { return profile_count_; }
  /// Per-cell operation costs, indexed like the cell slabs.
  std::span<const std::uint32_t> costs() const noexcept { return *costs_; }

  /// Profile-set version of the source tree (staleness detection).
  std::uint64_t source_version() const noexcept { return source_version_; }

  /// Root slot (node index, leaf ref, or ProfileTree::kMiss), same encoding
  /// as the node form.
  std::int32_t root() const noexcept { return root_; }

  /// Total bytes of the slab arenas (diagnostics / perf reports).
  std::size_t arena_bytes() const noexcept;

  /// Deep equality: same schema handle, root, counts and source version,
  /// and equal contents of every slab (shared or not).
  bool operator==(const FlatProfileTree& other) const;

 private:
  /// The profile-dependent slabs, shared by every recost of one compiled
  /// tree.
  struct Structure {
    std::vector<NodeRef> nodes;         // indexed like ProfileTree::nodes()
    std::vector<DomainIndex> upper;     // cell slabs, per-node contiguous
    std::vector<std::int32_t> child;
    std::vector<std::uint32_t> leaf_offsets;  // CSR: leaves + 1 entries
    std::vector<ProfileId> postings;          // concatenated leaf match sets
  };

  FlatProfileTree() = default;

  SchemaPtr schema_;
  std::shared_ptr<const Structure> structure_;
  std::shared_ptr<const std::vector<std::uint32_t>> costs_;
  // match()'s views of the slabs above. They point into the shared blocks,
  // so copies of the tree keep them valid without rebinding.
  const NodeRef* nodes_ = nullptr;
  const DomainIndex* upper_ = nullptr;
  const std::int32_t* child_ = nullptr;
  const std::uint32_t* cost_ = nullptr;
  const std::uint32_t* leaf_offsets_ = nullptr;
  const ProfileId* postings_ = nullptr;
  std::int32_t root_ = ProfileTree::kMiss;
  std::size_t profile_count_ = 0;
  std::uint64_t source_version_ = 0;
};

}  // namespace genas
