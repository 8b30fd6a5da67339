// Tests for the node search-cost models, pinned to the paper's worked
// examples (Example 5 for the lookup-table early stop, Example 2 for the
// event-order and binary costs).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tree/search.hpp"

namespace genas {
namespace {

/// Example 2's cell structure in index space (temperature domain [-30,50]
/// mapped to [0,80]): x1=[0,10], x0=[11,59] (zero), x2=[60,64], x3=[65,80].
CellLayout example2_layout(const std::vector<double>& keys) {
  CellLayout layout;
  layout.cells = {{0, 10}, {11, 59}, {60, 64}, {65, 80}};
  layout.is_edge = {true, false, true, true};
  layout.order_key = keys;
  return layout;
}

TEST(SearchLinear, Example5LookupTableEarlyStop) {
  // Domain {a..f} as point cells; defined order f,c,a,b,e,d; the tree node
  // contains f,c,b,e,d ('a' is missing). Searching 'a' stops at 'b' after
  // 3 comparisons (paper §4.2, Example 5).
  CellLayout layout;
  layout.cells = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}};
  layout.is_edge = {false, true, true, true, true, true};  // 'a' missing
  // Keys realizing the defined order f > c > a > b > e > d.
  layout.order_key = {4, 3, 5, 1, 2, 6};

  const CellCosts costs = plan_costs(layout, SearchStrategy::kLinear);
  EXPECT_EQ(costs.cost[5], 1u);  // f found first
  EXPECT_EQ(costs.cost[2], 2u);  // c second
  EXPECT_EQ(costs.cost[1], 3u);  // b third
  EXPECT_EQ(costs.cost[4], 4u);  // e fourth
  EXPECT_EQ(costs.cost[3], 5u);  // d last
  EXPECT_EQ(costs.cost[0], 3u);  // 'a': scan f, c, stop at b
  EXPECT_EQ(costs.scan_rank[5], 1u);
  EXPECT_EQ(costs.scan_rank[0], 0u);  // gaps have no rank
}

TEST(SearchLinear, Example2EventOrderCosts) {
  // V1 keys = P_e: x1=0.02, x0=0.17, x2=0.01, x3=0.80.
  const CellCosts costs =
      plan_costs(example2_layout({0.02, 0.17, 0.01, 0.80}),
                 SearchStrategy::kLinear);
  EXPECT_EQ(costs.cost[3], 1u);  // x3, scanned first
  EXPECT_EQ(costs.cost[0], 2u);  // x1
  EXPECT_EQ(costs.cost[2], 3u);  // x2
  EXPECT_EQ(costs.cost[1], 2u);  // x0 miss: scan x3, stop at x1 -> r0 = 2
}

TEST(SearchLinear, Example2NaturalOrderCosts) {
  const CellCosts costs =
      plan_costs(example2_layout({0, 0, 0, 0}), SearchStrategy::kLinear);
  EXPECT_EQ(costs.cost[0], 1u);  // x1 first in natural order
  EXPECT_EQ(costs.cost[2], 2u);
  EXPECT_EQ(costs.cost[3], 3u);
  EXPECT_EQ(costs.cost[1], 2u);  // miss after x1, stop at x2
}

TEST(SearchLinear, MissAfterAllEdgesScansWholeList) {
  CellLayout layout;
  layout.cells = {{0, 4}, {5, 9}};
  layout.is_edge = {true, false};
  layout.order_key = {1.0, 0.5};
  const CellCosts costs = plan_costs(layout, SearchStrategy::kLinear);
  // The gap's position is after the single edge: cost capped at edge count.
  EXPECT_EQ(costs.cost[1], 1u);
}

TEST(SearchBinary, Example2BinaryCosts) {
  const CellCosts costs =
      plan_costs(example2_layout({0, 0, 0, 0}), SearchStrategy::kBinary);
  EXPECT_EQ(costs.cost[2], 1u);  // x2 is the middle edge
  EXPECT_EQ(costs.cost[0], 2u);  // x1
  EXPECT_EQ(costs.cost[3], 2u);  // x3
  EXPECT_EQ(costs.cost[1], 2u);  // x0 miss: r0 = 2 = ~log2(2p-1)
}

TEST(SearchBinary, SingleEdgeCostsOneEverywhere) {
  CellLayout layout;
  layout.cells = {{0, 4}, {5, 9}};
  layout.is_edge = {false, true};
  layout.order_key = {0, 0};
  const CellCosts costs = plan_costs(layout, SearchStrategy::kBinary);
  EXPECT_EQ(costs.cost[0], 1u);
  EXPECT_EQ(costs.cost[1], 1u);
}

TEST(SearchBinary, CostIsLogarithmic) {
  // 127 point edges: every lookup must finish within 7 probes.
  CellLayout layout;
  for (DomainIndex v = 0; v < 127; ++v) {
    layout.cells.push_back(Interval::point(v));
    layout.is_edge.push_back(true);
    layout.order_key.push_back(0.0);
  }
  const CellCosts costs = plan_costs(layout, SearchStrategy::kBinary);
  for (const auto c : costs.cost) {
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, 7u);
  }
}

TEST(SearchInterpolation, FindsEveryEdgeOnUniformSpacing) {
  CellLayout layout;
  for (DomainIndex v = 0; v < 32; ++v) {
    layout.cells.push_back(Interval::point(v));
    layout.is_edge.push_back(v % 2 == 0);
    layout.order_key.push_back(0.0);
  }
  const CellCosts costs = plan_costs(layout, SearchStrategy::kInterpolation);
  for (std::size_t i = 0; i < layout.cells.size(); ++i) {
    EXPECT_GE(costs.cost[i], 1u);
    EXPECT_LE(costs.cost[i], 16u);
  }
  // Uniformly spaced keys: interpolation lands on target nearly directly.
  EXPECT_LE(costs.cost[16], 2u);
}

TEST(SearchLinear, WideNodesWithTiesMatchAStableSortReference) {
  // Few distinct keys force ties, which must keep natural (interval) order
  // at every width, with one scratch reused across nodes.
  Rng rng(99);
  LinearScanScratch scratch;  // shared across nodes, as a recost does
  for (const std::size_t k : {1u, 2u, 15u, 16u, 17u, 33u, 64u, 100u, 257u}) {
    for (const std::uint64_t distinct : {1u, 3u, 1000u}) {
      std::vector<std::uint8_t> is_edge(k);
      std::vector<double> keys(k);
      for (std::size_t i = 0; i < k; ++i) {
        is_edge[i] = rng.chance(0.7) ? 1 : 0;
        keys[i] = static_cast<double>(rng.below(distinct)) / 7.0;
      }
      std::vector<std::size_t> order(k);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] > keys[b];
                       });
      const auto edges = static_cast<std::uint32_t>(
          std::count(is_edge.begin(), is_edge.end(), 1));
      std::vector<std::uint32_t> want(k);
      std::uint32_t seen = 0;
      for (const std::size_t cell : order) {
        want[cell] = is_edge[cell] != 0 ? ++seen : std::min(edges, seen + 1);
      }

      std::vector<std::uint32_t> cost(k);
      std::vector<std::uint32_t> rank(k);
      plan_linear_costs(is_edge, keys, cost, rank, scratch);
      EXPECT_EQ(cost, want) << "k=" << k << " distinct=" << distinct;
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(rank[i], is_edge[i] != 0 ? want[i] : 0u);
      }
    }
  }
}

TEST(SearchHash, EveryCellCostsOne) {
  const CellCosts costs =
      plan_costs(example2_layout({0, 0, 0, 0}), SearchStrategy::kHash);
  for (const auto c : costs.cost) EXPECT_EQ(c, 1u);
}

TEST(Search, ValidatesLayout) {
  CellLayout bad;
  bad.cells = {{0, 4}, {6, 9}};  // hole between 4 and 6
  bad.is_edge = {true, true};
  bad.order_key = {0, 0};
  EXPECT_THROW(plan_costs(bad, SearchStrategy::kLinear), Error);

  CellLayout mismatched;
  mismatched.cells = {{0, 9}};
  mismatched.is_edge = {true, false};
  mismatched.order_key = {0};
  EXPECT_THROW(plan_costs(mismatched, SearchStrategy::kLinear), Error);
}

TEST(Search, StrategyNames) {
  EXPECT_EQ(to_string(SearchStrategy::kLinear), "linear");
  EXPECT_EQ(to_string(SearchStrategy::kBinary), "binary");
  EXPECT_EQ(to_string(SearchStrategy::kInterpolation), "interpolation");
  EXPECT_EQ(to_string(SearchStrategy::kHash), "hash");
}

}  // namespace
}  // namespace genas
