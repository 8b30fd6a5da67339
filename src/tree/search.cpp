#include "tree/search.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace genas {

std::string_view to_string(SearchStrategy strategy) noexcept {
  switch (strategy) {
    case SearchStrategy::kLinear:        return "linear";
    case SearchStrategy::kBinary:        return "binary";
    case SearchStrategy::kInterpolation: return "interpolation";
    case SearchStrategy::kHash:          return "hash";
  }
  return "?";
}

namespace {

/// Scan positions over ALL cells into scratch.order: cell indices by key,
/// descending, with ties in natural interval order (paper: "the order of
/// values with equal selectivity is arbitrary (such as the natural
/// order)"). The index tie-break makes std::sort's order stable without
/// std::stable_sort's buffer allocation.
void sort_scan_order(std::span<const double> key, LinearScanScratch& scratch) {
  scratch.order.resize(key.size());
  std::iota(scratch.order.begin(), scratch.order.end(), 0U);
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return key[a] > key[b] || (key[a] == key[b] && a < b);
            });
}

/// Indices of edge cells in interval order.
std::vector<std::size_t> edge_indices(const CellLayout& layout) {
  std::vector<std::size_t> edges;
  for (std::size_t i = 0; i < layout.cells.size(); ++i) {
    if (layout.is_edge[i]) edges.push_back(i);
  }
  return edges;
}

CellCosts plan_linear(const CellLayout& layout) {
  const std::size_t k = layout.cells.size();
  CellCosts out;
  out.cost.assign(k, 0);
  out.scan_rank.assign(k, 0);
  LinearScanScratch scratch;
  plan_linear_costs(layout.is_edge, layout.order_key, out.cost, out.scan_rank,
                    scratch);
  return out;
}

CellCosts plan_binary(const CellLayout& layout) {
  const std::size_t k = layout.cells.size();
  const std::vector<std::size_t> edges = edge_indices(layout);
  CellCosts out;
  out.cost.assign(k, 0);
  out.scan_rank.assign(k, 0);
  for (std::size_t r = 0; r < edges.size(); ++r) {
    out.scan_rank[edges[r]] = static_cast<std::uint32_t>(r + 1);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const DomainIndex v = layout.cells[i].lo;  // any representative works:
    // cells are elementary, so all their values relate identically to edges
    std::uint32_t ops = 0;
    std::int64_t lo = 0;
    auto hi = static_cast<std::int64_t>(edges.size()) - 1;
    while (lo <= hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      const Interval& probe = layout.cells[edges[static_cast<std::size_t>(mid)]];
      ++ops;
      if (probe.contains(v)) break;
      if (v < probe.lo) {
        hi = mid - 1;
      } else {
        lo = mid + 1;
      }
    }
    out.cost[i] = ops;
  }
  return out;
}

CellCosts plan_interpolation(const CellLayout& layout) {
  const std::size_t k = layout.cells.size();
  const std::vector<std::size_t> edges = edge_indices(layout);
  CellCosts out;
  out.cost.assign(k, 0);
  out.scan_rank.assign(k, 0);
  for (std::size_t r = 0; r < edges.size(); ++r) {
    out.scan_rank[edges[r]] = static_cast<std::uint32_t>(r + 1);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const DomainIndex v = layout.cells[i].lo;
    std::uint32_t ops = 0;
    std::int64_t lo = 0;
    auto hi = static_cast<std::int64_t>(edges.size()) - 1;
    while (lo <= hi) {
      const DomainIndex lo_val = layout.cells[edges[static_cast<std::size_t>(lo)]].lo;
      const DomainIndex hi_val = layout.cells[edges[static_cast<std::size_t>(hi)]].hi;
      std::int64_t probe_at = lo;
      if (hi_val > lo_val && v >= lo_val && v <= hi_val) {
        const double frac = static_cast<double>(v - lo_val) /
                            static_cast<double>(hi_val - lo_val);
        probe_at = lo + static_cast<std::int64_t>(
                            frac * static_cast<double>(hi - lo));
        probe_at = std::clamp(probe_at, lo, hi);
      } else if (v > hi_val) {
        probe_at = hi;
      }
      const Interval& probe =
          layout.cells[edges[static_cast<std::size_t>(probe_at)]];
      ++ops;
      if (probe.contains(v)) break;
      if (v < probe.lo) {
        hi = probe_at - 1;
      } else {
        lo = probe_at + 1;
      }
    }
    out.cost[i] = ops;
  }
  return out;
}

CellCosts plan_hash(const CellLayout& layout) {
  // Idealized hash table over cells: one probe resolves edge or miss.
  const std::size_t k = layout.cells.size();
  CellCosts out;
  out.cost.assign(k, 1);
  out.scan_rank.assign(k, 0);
  std::uint32_t rank = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (layout.is_edge[i]) out.scan_rank[i] = ++rank;
  }
  return out;
}

}  // namespace

void plan_linear_costs(std::span<const std::uint8_t> is_edge,
                       std::span<const double> order_key,
                       std::span<std::uint32_t> cost,
                       std::span<std::uint32_t> scan_rank,
                       LinearScanScratch& scratch) {
  const std::size_t k = is_edge.size();
  GENAS_REQUIRE(order_key.size() == k && cost.size() == k &&
                    (scan_rank.empty() || scan_rank.size() == k),
                ErrorCode::kInvalidArgument,
                "linear plan spans must be equal-sized");

  std::uint32_t edge_count = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (is_edge[i] != 0) ++edge_count;
  }
  sort_scan_order(order_key, scratch);

  // One pass in scan-position order. Edges get their 1-based rank in the
  // scan list (which contains only edges); a gap cell at this position obeys
  // the early-stop rule of Example 5: the edges with smaller positions are
  // scanned, then one more comparison against the first edge with a larger
  // position reveals the miss — capped at the full list when every edge
  // precedes the target.
  std::uint32_t edges_seen = 0;
  for (const std::uint32_t cell : scratch.order) {
    if (is_edge[cell] != 0) {
      cost[cell] = ++edges_seen;
      if (!scan_rank.empty()) scan_rank[cell] = edges_seen;
    } else {
      cost[cell] = std::min<std::uint32_t>(edge_count, edges_seen + 1);
      if (!scan_rank.empty()) scan_rank[cell] = 0;
    }
  }
}

CellCosts plan_costs(const CellLayout& layout, SearchStrategy strategy) {
  const std::size_t k = layout.cells.size();
  GENAS_REQUIRE(layout.is_edge.size() == k && layout.order_key.size() == k,
                ErrorCode::kInvalidArgument,
                "cell layout vectors must be equal-sized");
  for (std::size_t i = 1; i < k; ++i) {
    GENAS_REQUIRE(layout.cells[i - 1].hi + 1 == layout.cells[i].lo,
                  ErrorCode::kInvalidArgument,
                  "cells must partition the domain contiguously");
  }
  switch (strategy) {
    case SearchStrategy::kLinear:        return plan_linear(layout);
    case SearchStrategy::kBinary:        return plan_binary(layout);
    case SearchStrategy::kInterpolation: return plan_interpolation(layout);
    case SearchStrategy::kHash:          return plan_hash(layout);
  }
  throw_error(ErrorCode::kInternal, "unknown search strategy");
}

}  // namespace genas
