// GENAS — node search strategies and their operation-cost models.
//
// At each tree node the event value falls into exactly one cell of the
// node's partition. Which cell is found — and how many comparison operations
// finding it costs — depends on the search strategy (paper §4.2):
//
//   * linear scan of the edges in a configured order, with the
//     lookup-table early-stop rule of Example 5: every cell (edge or gap)
//     has a scan position; scanning stops at the first edge whose position
//     exceeds the target's, and that stop-triggering comparison is counted;
//   * binary search over the interval-sorted edge list (cost simulated
//     probe by probe, giving the paper's E = 1.65 / r_0 = log2(2p−1));
//   * interpolation search (listed as a sensible strategy in §5);
//   * hash lookup (idealized: one operation per probe; §5).
//
// Because the cost of landing in a cell depends only on the cell, costs are
// precomputed per cell at tree-build time; matching and the analytical model
// then share one cost table. The linear planner is also the one that
// FlatProfileTree::recost runs when only the event distribution moved, so
// a recost charges exactly what a fresh build would.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/interval.hpp"

namespace genas {

/// How edges are searched within a node.
enum class SearchStrategy : std::uint8_t {
  kLinear,         ///< ordered scan with early stop (lookup table)
  kBinary,         ///< binary search on natural interval order
  kInterpolation,  ///< interpolation search on natural interval order
  kHash,           ///< idealized hash probe: 1 operation per lookup
};

std::string_view to_string(SearchStrategy strategy) noexcept;

/// Input to cost planning: the node's cells in interval order.
struct CellLayout {
  std::vector<Interval> cells;  ///< partition of the domain, sorted
  std::vector<std::uint8_t> is_edge;  ///< 1: cell leads to a child, 0: gap
  /// Scan-priority key per cell; higher keys are scanned earlier. Produced
  /// by the value-ordering measure (V1–V3 / natural). Ties break toward the
  /// natural (interval) order.
  std::vector<double> order_key;
};

/// Per-cell operation counts for one node under one strategy.
struct CellCosts {
  /// cost[i]: comparisons counted when the event value lands in cell i.
  std::vector<std::uint32_t> cost;
  /// scan_rank[i]: 1-based rank of edge cells in scan order (0 for gaps);
  /// exposed for tests and tree dumps.
  std::vector<std::uint32_t> scan_rank;
};

/// Computes the cost table for a node. `layout` vectors must be equal-sized
/// and the cells must partition the node's domain.
CellCosts plan_costs(const CellLayout& layout, SearchStrategy strategy);

/// Caller-owned scratch of plan_linear_costs. Reused across nodes, it
/// makes a planning pass over a whole tree allocation-free once warm.
struct LinearScanScratch {
  std::vector<std::uint32_t> order;  ///< cell indices in scan order
};

/// The linear strategy's planner over one node's k cells, shared by
/// plan_costs and FlatProfileTree::recost. `is_edge`, `order_key` and
/// `cost` hold k entries; `scan_rank` holds k, or none when the caller
/// does not want ranks. The cells' partition of the domain is the caller's
/// invariant (plan_costs checks it; a compiled tree holds it by
/// construction), so only the sizes are checked here.
void plan_linear_costs(std::span<const std::uint8_t> is_edge,
                       std::span<const double> order_key,
                       std::span<std::uint32_t> cost,
                       std::span<std::uint32_t> scan_rank,
                       LinearScanScratch& scratch);

}  // namespace genas
