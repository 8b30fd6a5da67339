// GENAS — elementary subrange decomposition.
//
// Given p profiles constraining an attribute, the domain D splits into at
// most 2p−1 elementary subranges referenced by profiles plus the
// zero-subdomain D_0 of values no profile refers to (paper §3). Cells are
// maximal intervals whose accepting-profile sets are identical; the tree
// builds one local decomposition per node, and the counting matcher keeps
// one global decomposition per attribute.
//
// decompose() is a sweep. Each of the k constraint intervals clipped to the
// universe contributes a start and an end edge; a stable byte-wise radix
// sort orders the 2k edges in one pass per byte of the universe size (one
// pass below 256 values); one walk over the sorted edges yields the
// B ≤ 2k+2 boundaries and every interval's run of elementary segments; and
// the A accepter entries are written in O(A): O(k·passes + B + A) in all.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/interval.hpp"
#include "profile/interval_set.hpp"

namespace genas {

/// Partition of `universe` into maximal same-accepter-set cells.
struct Decomposition {
  std::vector<Interval> cells;  // sorted by interval, covering universe exactly
  /// CSR: cell i's accepters are accepter_ids[offsets[i], offsets[i + 1]).
  std::vector<std::uint32_t> offsets;
  /// Positions (into the caller's constraint list) of the constraints whose
  /// accepted set covers each cell, ascending within a cell.
  std::vector<std::uint32_t> accepter_ids;

  std::span<const std::uint32_t> accepters(std::size_t cell) const noexcept {
    return {accepter_ids.data() + offsets[cell],
            accepter_ids.data() + offsets[cell + 1]};
  }

  /// True for zero-subdomain cells (no constraint accepts them).
  bool is_zero(std::size_t cell) const noexcept {
    return offsets[cell] == offsets[cell + 1];
  }

  /// Total size of zero cells — d_0 in the paper.
  std::int64_t zero_size() const noexcept;

  /// Number of non-zero cells (≤ 2p−1 for p interval constraints).
  std::size_t covered_cell_count() const noexcept;

  /// The zero-subdomain D_0 as an interval set.
  IntervalSet zero_subdomain() const;

  /// Index of the cell containing `v` (cells partition the universe, so a
  /// containing cell always exists for in-universe v). Binary search; this
  /// is the O(1)-amortized "lookup table" access of the paper's prototype
  /// and is not a counted filter operation.
  std::size_t locate(DomainIndex v) const noexcept;
};

/// Computes the decomposition of `universe` induced by the accepted sets of
/// the given constraints. Parts of a set outside the universe are ignored.
Decomposition decompose(const Interval& universe,
                        const std::vector<const IntervalSet*>& constraints);

}  // namespace genas
