// Tests for the elementary subrange decomposition (≤ 2p−1 subranges + D_0).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tree/decomposition.hpp"

namespace genas {
namespace {

using Ids = std::vector<std::uint32_t>;

Ids accepters(const Decomposition& d, std::size_t cell) {
  const auto span = d.accepters(cell);
  return Ids(span.begin(), span.end());
}

TEST(Decomposition, NoConstraintsYieldsOneZeroCell) {
  const auto d = decompose({0, 9}, {});
  ASSERT_EQ(d.cells.size(), 1u);
  EXPECT_EQ(d.cells[0], Interval(0, 9));
  EXPECT_TRUE(d.is_zero(0));
  EXPECT_EQ(d.zero_size(), 10);
  EXPECT_EQ(d.covered_cell_count(), 0u);
}

TEST(Decomposition, OverlappingRangesSplitAtBoundaries) {
  // Paper Fig. 1: overlapping profile ranges create subranges.
  const IntervalSet a({{2, 7}});
  const IntervalSet b({{5, 9}});
  const auto d = decompose({0, 9}, {&a, &b});
  // Cells: [0,1] zero, [2,4] {a}, [5,7] {a,b}, [8,9] {b}.
  ASSERT_EQ(d.cells.size(), 4u);
  EXPECT_EQ(d.cells[0], Interval(0, 1));
  EXPECT_TRUE(d.is_zero(0));
  EXPECT_EQ(d.cells[1], Interval(2, 4));
  EXPECT_EQ(accepters(d, 1), (Ids{0}));
  EXPECT_EQ(d.cells[2], Interval(5, 7));
  EXPECT_EQ(accepters(d, 2), (Ids{0, 1}));
  EXPECT_EQ(d.cells[3], Interval(8, 9));
  EXPECT_EQ(accepters(d, 3), (Ids{1}));
  EXPECT_EQ(d.zero_size(), 2);
  EXPECT_EQ(d.zero_subdomain(), IntervalSet({{0, 1}}));
}

TEST(Decomposition, IdenticalConstraintsMergeIntoOneCell) {
  const IntervalSet a({{3, 6}});
  const IntervalSet b({{3, 6}});
  const auto d = decompose({0, 9}, {&a, &b});
  ASSERT_EQ(d.cells.size(), 3u);
  EXPECT_EQ(accepters(d, 1), (Ids{0, 1}));
  EXPECT_EQ(d.covered_cell_count(), 1u);
}

TEST(Decomposition, MultiIntervalConstraint) {
  const IntervalSet a({{0, 2}, {8, 9}});  // e.g. an "outside" predicate
  const auto d = decompose({0, 9}, {&a});
  ASSERT_EQ(d.cells.size(), 3u);
  EXPECT_FALSE(d.is_zero(0));
  EXPECT_TRUE(d.is_zero(1));
  EXPECT_FALSE(d.is_zero(2));
}

TEST(Decomposition, LocateFindsContainingCell) {
  const IntervalSet a({{2, 7}});
  const IntervalSet b({{5, 9}});
  const auto d = decompose({0, 9}, {&a, &b});
  EXPECT_EQ(d.locate(0), 0u);
  EXPECT_EQ(d.locate(2), 1u);
  EXPECT_EQ(d.locate(6), 2u);
  EXPECT_EQ(d.locate(9), 3u);
}

TEST(Decomposition, EmptyUniverseRejected) {
  EXPECT_THROW(decompose(Interval{}, {}), Error);
}

// Test-only reference: the point-wise algorithm. It tests every elementary
// segment against every constraint, which is slow but obviously right.
struct RefCell {
  Interval interval;
  Ids accepters;

  friend bool operator==(const RefCell&, const RefCell&) = default;
  friend std::ostream& operator<<(std::ostream& os, const RefCell& cell) {
    os << cell.interval << '{';
    for (const std::uint32_t c : cell.accepters) os << ' ' << c;
    return os << " }";
  }
};

std::vector<RefCell> reference_decompose(
    const Interval& universe,
    const std::vector<const IntervalSet*>& constraints) {
  std::vector<DomainIndex> bounds{universe.lo, universe.hi + 1};
  for (const IntervalSet* set : constraints) {
    for (const Interval& iv : set->intervals()) {
      const Interval clipped = iv.intersect(universe);
      if (clipped.empty()) continue;
      bounds.push_back(clipped.lo);
      bounds.push_back(clipped.hi + 1);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<RefCell> out;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    RefCell cell{{bounds[b], bounds[b + 1] - 1}, {}};
    for (std::uint32_t c = 0; c < constraints.size(); ++c) {
      if (constraints[c]->contains(cell.interval.lo)) {
        cell.accepters.push_back(c);
      }
    }
    if (!out.empty() && out.back().accepters == cell.accepters) {
      out.back().interval.hi = cell.interval.hi;
    } else {
      out.push_back(std::move(cell));
    }
  }
  return out;
}

std::vector<RefCell> cells_of(const Decomposition& d) {
  std::vector<RefCell> out;
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    out.push_back({d.cells[i], accepters(d, i)});
  }
  return out;
}

/// A random constraint list over a random universe. Shapes: single ranges
/// and points (= and between), the two-interval `!=` shape, `in` sets of
/// scattered points and ranges, sets reaching past either end of the
/// universe, empty sets, and duplicates of earlier constraints. Seeds
/// alternate between at most 12 and at most 200 constraints.
struct Case {
  Interval universe;
  std::vector<IntervalSet> storage;
  std::vector<const IntervalSet*> constraints;
  std::size_t intervals_in_universe = 0;
};

Case random_case(std::uint64_t seed) {
  Rng rng(seed);
  Case out;
  const DomainIndex lo = rng.range(-50, 50);
  out.universe = {lo, lo + rng.range(0, 149)};
  const std::size_t p = 1 + rng.below(seed % 2 == 0 ? 200 : 12);
  // Values reach up to 10 past either end of the universe.
  const auto value = [&] {
    return rng.range(out.universe.lo - 10, out.universe.hi + 10);
  };
  out.storage.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    switch (rng.below(6)) {
      case 0:  // a = v
        out.storage.push_back(IntervalSet::point(value()));
        break;
      case 1: {  // a in [lo, hi]
        const DomainIndex a = value();
        out.storage.push_back(IntervalSet::single({a, rng.range(a, a + 40)}));
        break;
      }
      case 2: {  // a != v
        const DomainIndex v = value();
        out.storage.push_back(IntervalSet(
            {{out.universe.lo, v - 1}, {v + 1, out.universe.hi}}));
        break;
      }
      case 3: {  // a in {...}
        std::vector<Interval> parts;
        const std::size_t k = 1 + rng.below(6);
        for (std::size_t j = 0; j < k; ++j) {
          const DomainIndex a = value();
          parts.push_back({a, a + rng.range(0, 3)});
        }
        out.storage.push_back(IntervalSet(std::move(parts)));
        break;
      }
      case 4:
        out.storage.push_back(IntervalSet::empty());
        break;
      case 5:  // duplicate of an earlier constraint (or a fresh point)
        out.storage.push_back(out.storage.empty()
                                  ? IntervalSet::point(value())
                                  : out.storage[rng.below(out.storage.size())]);
        break;
    }
  }
  for (const IntervalSet& set : out.storage) {
    out.constraints.push_back(&set);
    for (const Interval& iv : set.intervals()) {
      if (!iv.intersect(out.universe).empty()) ++out.intervals_in_universe;
    }
  }
  return out;
}

class DecompositionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

// Cells tile the universe, the covered cells obey the paper's 2k−1 bound
// for k intervals, and accepter sets are point-wise correct.
TEST_P(DecompositionProperty, TilesAndBoundsHold) {
  const Case c = random_case(GetParam());
  const auto d = decompose(c.universe, c.constraints);

  ASSERT_EQ(d.offsets.size(), d.cells.size() + 1);
  EXPECT_EQ(d.cells.front().lo, c.universe.lo);
  EXPECT_EQ(d.cells.back().hi, c.universe.hi);
  for (std::size_t i = 1; i < d.cells.size(); ++i) {
    EXPECT_EQ(d.cells[i].lo, d.cells[i - 1].hi + 1);
  }

  if (c.intervals_in_universe > 0) {
    EXPECT_LE(d.covered_cell_count(), 2 * c.intervals_in_universe - 1);
  } else {
    EXPECT_EQ(d.covered_cell_count(), 0u);
  }

  for (DomainIndex v = c.universe.lo; v <= c.universe.hi; ++v) {
    const Ids cell = accepters(d, d.locate(v));
    for (std::uint32_t k = 0; k < c.constraints.size(); ++k) {
      const bool in_cell = std::find(cell.begin(), cell.end(), k) != cell.end();
      EXPECT_EQ(in_cell, c.constraints[k]->contains(v))
          << "v=" << v << " c=" << k;
    }
  }
}

// The sweep reproduces the point-wise reference exactly, with strictly
// ascending accepter lists and maximal cells.
TEST_P(DecompositionProperty, MatchesPointwiseReference) {
  const Case c = random_case(GetParam());
  const auto d = decompose(c.universe, c.constraints);

  EXPECT_EQ(cells_of(d), reference_decompose(c.universe, c.constraints));
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    const Ids ids = accepters(d, i);
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end(),
                                   std::greater_equal<>()) == ids.end())
        << "cell " << i << " accepters not strictly ascending";
    if (i > 0) {
      EXPECT_NE(ids, accepters(d, i - 1)) << "cells " << i - 1 << " and " << i
                                          << " should have merged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DecompositionProperty,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace genas
