#include "tree/decomposition.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace genas {

std::int64_t Decomposition::zero_size() const noexcept {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (is_zero(i)) total += cells[i].size();
  }
  return total;
}

std::size_t Decomposition::covered_cell_count() const noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!is_zero(i)) ++count;
  }
  return count;
}

IntervalSet Decomposition::zero_subdomain() const {
  std::vector<Interval> zeros;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (is_zero(i)) zeros.push_back(cells[i]);
  }
  return IntervalSet(std::move(zeros));
}

std::size_t Decomposition::locate(DomainIndex v) const noexcept {
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), v,
      [](const Interval& cell, DomainIndex x) { return cell.hi < x; });
  return static_cast<std::size_t>(it - cells.begin());
}

namespace {

/// A constraint's clipped interval covers segments [first, last).
struct Run {
  std::uint32_t constraint;
  std::uint32_t first;
  std::uint32_t last;
};

/// A run's start (tag 2r) or one-past end (tag 2r + 1) at universe.lo + key.
struct Edge {
  std::uint64_t key;
  std::uint32_t tag;
};

std::uint64_t offset(DomainIndex at, const Interval& universe) {
  return static_cast<std::uint64_t>(at - universe.lo);
}

/// Stable LSD radix sort by key, one byte per pass, as many passes as
/// `max_key` needs: a single pass for domains of up to 255 values.
void sort_by_key(std::vector<Edge>& edges, std::uint64_t max_key) {
  std::vector<Edge> sorted(edges.size());
  for (unsigned shift = 0; shift < 64 && (max_key >> shift) != 0;
       shift += 8) {
    std::array<std::uint32_t, 257> start{};
    for (const Edge& edge : edges) ++start[((edge.key >> shift) & 0xFF) + 1];
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (const Edge& edge : edges) {
      sorted[start[(edge.key >> shift) & 0xFF]++] = edge;
    }
    edges.swap(sorted);
  }
}

}  // namespace

Decomposition decompose(const Interval& universe,
                        const std::vector<const IntervalSet*>& constraints) {
  GENAS_REQUIRE(!universe.empty(), ErrorCode::kInvalidArgument,
                "decomposition requires a non-empty universe");

  // One pass over the constraints collects their intervals clipped to the
  // universe, in constraint index order, as runs. Each run contributes two
  // edges, its start and its one-past end, keyed by offset from universe.lo.
  std::vector<Run> runs;
  std::vector<Edge> edges;
  for (std::uint32_t c = 0; c < constraints.size(); ++c) {
    GENAS_CHECK(constraints[c] != nullptr, "null constraint in decomposition");
    for (const Interval& iv : constraints[c]->intervals()) {
      const Interval clipped = iv.intersect(universe);
      if (clipped.empty()) continue;
      const auto run = static_cast<std::uint32_t>(runs.size());
      runs.push_back({c, 0, 0});
      edges.push_back({offset(clipped.lo, universe), 2 * run});
      edges.push_back({offset(clipped.hi + 1, universe), 2 * run + 1});
    }
  }
  sort_by_key(edges, offset(universe.hi + 1, universe));

  // The sorted edges give the elementary boundaries — segment s is
  // [bounds[s], bounds[s + 1]) — and each run's range of segments.
  std::vector<DomainIndex> bounds;
  bounds.reserve(edges.size() + 2);
  bounds.push_back(universe.lo);
  for (const Edge& edge : edges) {
    const DomainIndex at = universe.lo + static_cast<DomainIndex>(edge.key);
    if (at != bounds.back()) bounds.push_back(at);
    const auto segment = static_cast<std::uint32_t>(bounds.size() - 1);
    Run& run = runs[edge.tag / 2];
    (edge.tag % 2 == 0 ? run.first : run.last) = segment;
  }
  if (bounds.back() != universe.hi + 1) bounds.push_back(universe.hi + 1);
  const std::size_t segments = bounds.size() - 1;

  // Count the accepters per segment with a difference array (unsigned
  // wrap-around cancels in the prefix sum below).
  std::vector<std::uint32_t> fill(segments + 1, 0);
  for (const Run& run : runs) {
    ++fill[run.first];
    --fill[run.last];
  }

  // CSR offsets per segment, then append each constraint, in index order,
  // to every segment of its runs — so each segment's list comes out sorted.
  std::vector<std::uint32_t> offsets(segments + 1, 0);
  std::uint32_t active = 0;
  for (std::size_t s = 0; s < segments; ++s) {
    active += fill[s];
    offsets[s + 1] = offsets[s] + active;
  }
  std::vector<std::uint32_t> ids(offsets[segments]);
  std::copy(offsets.begin(), offsets.end() - 1, fill.begin());  // cursors
  for (const Run& run : runs) {
    for (std::uint32_t s = run.first; s < run.last; ++s) {
      ids[fill[s]++] = run.constraint;
    }
  }

  // Merge neighbouring segments with equal accepter lists so cells are
  // maximal (the paper's subrange notion), compacting the CSR in place:
  // the write position never passes the read position.
  Decomposition out;
  out.cells.reserve(segments);
  out.offsets.reserve(segments + 1);
  out.offsets.push_back(0);
  std::uint32_t written = 0;
  for (std::size_t s = 0; s < segments; ++s) {
    const Interval segment{bounds[s], bounds[s + 1] - 1};
    const auto begin = ids.begin() + offsets[s];
    const auto end = ids.begin() + offsets[s + 1];
    if (!out.cells.empty()) {
      const auto previous = ids.begin() + out.offsets[out.offsets.size() - 2];
      if (std::equal(begin, end, previous, ids.begin() + written)) {
        out.cells.back().hi = segment.hi;
        continue;
      }
    }
    if (written != offsets[s]) std::copy(begin, end, ids.begin() + written);
    written += static_cast<std::uint32_t>(end - begin);
    out.cells.push_back(segment);
    out.offsets.push_back(written);
  }
  ids.resize(written);
  out.accepter_ids = std::move(ids);
  return out;
}

}  // namespace genas
