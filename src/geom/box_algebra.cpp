#include "geom/box_algebra.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ssamr {

std::vector<Box> box_difference(const Box& a, const Box& b) {
  if (a.empty()) return {};
  const Box overlap = a.intersection(b);
  if (overlap.empty()) return {a};
  if (overlap == a) return {};

  // Carve a into slabs around the overlap, axis by axis.
  std::vector<Box> out;
  Box core = a;  // region still to be carved; shrinks toward the overlap
  for (int d = 0; d < kDim; ++d) {
    if (overlap.lo()[d] > core.lo()[d]) {
      IntVec hi = core.hi();
      hi.at(d) = overlap.lo()[d] - 1;
      out.emplace_back(core.lo(), hi, a.level());
      IntVec lo = core.lo();
      lo.at(d) = overlap.lo()[d];
      core = Box(lo, core.hi(), a.level());
    }
    if (overlap.hi()[d] < core.hi()[d]) {
      IntVec lo = core.lo();
      lo.at(d) = overlap.hi()[d] + 1;
      out.emplace_back(lo, core.hi(), a.level());
      IntVec hi = core.hi();
      hi.at(d) = overlap.hi()[d];
      core = Box(core.lo(), hi, a.level());
    }
  }
  SSAMR_ASSERT(core == overlap, "difference carving must end at the overlap");
  return out;
}

std::vector<Box> box_difference(const Box& a,
                                const std::vector<Box>& subtrahends) {
  std::vector<Box> remaining{a};
  if (a.empty()) return {};
  for (const Box& s : subtrahends) {
    std::vector<Box> next;
    next.reserve(remaining.size());
    for (const Box& r : remaining) {
      auto diff = box_difference(r, s);
      next.insert(next.end(), diff.begin(), diff.end());
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
  return remaining;
}

std::int64_t union_cells(const std::vector<Box>& boxes) {
  // Incremental sweep: add each box's cells not covered by earlier boxes.
  std::int64_t total = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    std::vector<Box> earlier(boxes.begin(),
                             boxes.begin() + static_cast<std::ptrdiff_t>(i));
    for (const Box& piece : box_difference(boxes[i], earlier))
      total += piece.cells();
  }
  return total;
}

namespace {
/// True when a and b can merge into one box (equal bounds in all directions
/// except one, where they are exactly adjacent).
bool mergeable(const Box& a, const Box& b, Box& merged) {
  if (a.level() != b.level()) return false;
  int diff_axis = -1;
  for (int d = 0; d < kDim; ++d) {
    if (a.lo()[d] == b.lo()[d] && a.hi()[d] == b.hi()[d]) continue;
    if (diff_axis >= 0) return false;
    diff_axis = d;
  }
  if (diff_axis < 0) return false;  // identical boxes — caller's bug
  const int d = diff_axis;
  if (a.hi()[d] + 1 == b.lo()[d] || b.hi()[d] + 1 == a.lo()[d]) {
    merged = bounding_union(a, b);
    return true;
  }
  return false;
}
}  // namespace

// The result is the fixed point of "merge the lexicographically first
// mergeable pair (i, j), i < j, into slot i, erase j, rescan from (0, 1)",
// reached without the rescans.  Invariant at pivot i: no pair (a, b) with
// a < i and b != i is mergeable, and neither is any pair in a row r with
// i < r < resume.  It holds at i = resume = 0.  A merge into slot i leaves
// every other box unchanged (erasing j only shifts later indices), so the
// only pairs that can have become mergeable are (a, i) for a < i, then row
// i.  The restart scan would therefore next find the first mergeable
// (a, i) -- merge into a, which becomes the pivot -- or else the first
// mergeable (i, b) in row i.  When the pivot drops from i to a, the rows
// between them stay clean: their pairs join unchanged boxes, except pairs
// with a, which belong to row a.  So once row a is exhausted the scan
// resumes at the old pivot instead of rescanning them.  Every row is
// scanned in full once, plus one column and one row scan per merge:
// O(n^2 + merges * n) instead of O(merges * n^2).
std::vector<Box> coalesce(std::vector<Box> boxes) {
  std::size_t i = 0;
  std::size_t resume = 0;  // rows in (i, resume) hold no mergeable pair
  bool changed = false;    // slot i merged since its column was last checked
  while (i < boxes.size()) {
    Box merged;
    if (changed) {
      changed = false;
      std::size_t a = 0;
      while (a < i && !mergeable(boxes[a], boxes[i], merged)) ++a;
      if (a < i) {
        boxes[a] = merged;
        boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(i));
        resume = resume > i ? resume - 1 : i;
        i = a;
        changed = true;
        continue;
      }
    }
    std::size_t b = i + 1;
    while (b < boxes.size() && !mergeable(boxes[i], boxes[b], merged)) ++b;
    if (b < boxes.size()) {
      boxes[i] = merged;
      boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(b));
      if (b < resume) --resume;
      changed = true;
      continue;
    }
    i = std::max(i + 1, resume);
  }
  return boxes;
}

std::vector<Box> clip_all(const std::vector<Box>& list, const Box& clip) {
  std::vector<Box> out;
  out.reserve(list.size());
  for (const Box& b : list) {
    const Box c = b.intersection(clip);
    if (!c.empty()) out.push_back(c);
  }
  return out;
}

}  // namespace ssamr
