#include "amr/cluster_br.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <future>
#include <iterator>
#include <limits>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {

namespace {

/// Bounding box and flag count of a set of runs, accumulated run by run.
struct Bounds {
  IntVec lo = IntVec::splat(std::numeric_limits<coord_t>::max());
  IntVec hi = IntVec::splat(std::numeric_limits<coord_t>::min());
  std::int64_t flags = 0;

  void cover(const FlagRun& r) {
    lo = min(lo, IntVec(r.x0, r.y, r.z));
    hi = max(hi, IntVec(r.x1, r.y, r.z));
    flags += r.x1 - r.x0 + 1;
  }
};

/// The runs of one recursion node with their bounds.
struct RunSet {
  std::vector<FlagRun> runs;
  Bounds bounds;

  void add(const FlagRun& r) {
    runs.push_back(r);
    bounds.cover(r);
  }
};

/// Flag count per plane of `b` along each axis, in one pass over the runs.
/// Along x a run covers a range of planes, so x is built as a difference
/// array over run ends and prefix-summed; along y and z a run lies in one
/// plane and adds its length.
using Signatures = std::array<std::vector<std::int64_t>, kDim>;
Signatures signatures(const RunSet& s, const Box& b) {
  const IntVec n = b.extent();
  const IntVec lo = b.lo();
  Signatures sig;
  sig[0].assign(static_cast<std::size_t>(n.x + 1), 0);
  sig[1].assign(static_cast<std::size_t>(n.y), 0);
  sig[2].assign(static_cast<std::size_t>(n.z), 0);
  for (const FlagRun& r : s.runs) {
    ++sig[0][static_cast<std::size_t>(r.x0 - lo.x)];
    --sig[0][static_cast<std::size_t>(r.x1 + 1 - lo.x)];
    const std::int64_t len = r.x1 - r.x0 + 1;
    sig[1][static_cast<std::size_t>(r.y - lo.y)] += len;
    sig[2][static_cast<std::size_t>(r.z - lo.z)] += len;
  }
  for (std::size_t i = 1; i < sig[0].size(); ++i) sig[0][i] += sig[0][i - 1];
  sig[0].pop_back();
  return sig;
}

struct Cut {
  int axis = -1;
  coord_t offset = 0;  // split offset within the box (first piece size)
  bool found() const { return axis >= 0; }
};

/// Find the most central zero-signature plane usable as a cut.
Cut find_hole(const Signatures& sigs, const Box& b, coord_t min_size) {
  Cut best;
  real_t best_centrality = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size) continue;
    const auto& sig = sigs[static_cast<std::size_t>(axis)];
    for (coord_t c = min_size; c <= n - min_size; ++c) {
      // Cutting at offset c puts planes [0,c) left, [c,n) right.  A hole at
      // plane c-1 or c makes the cut clean; we just need a zero plane whose
      // cut position respects the margins.
      if (sig[static_cast<std::size_t>(c)] != 0 &&
          sig[static_cast<std::size_t>(c - 1)] != 0)
        continue;
      const real_t centrality =
          1.0 - std::abs(static_cast<real_t>(2 * c - n)) /
                    static_cast<real_t>(n);
      if (centrality > best_centrality) {
        best_centrality = centrality;
        best.axis = axis;
        best.offset = c;
      }
    }
  }
  return best;
}

/// Find the strongest inflection (sign change of the signature Laplacian).
Cut find_inflection(const Signatures& sigs, const Box& b, coord_t min_size) {
  Cut best;
  std::int64_t best_jump = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size || n < 4) continue;
    const auto& sig = sigs[static_cast<std::size_t>(axis)];
    // Laplacian on interior planes: lap[i] = sig[i-1] - 2 sig[i] + sig[i+1]
    std::vector<std::int64_t> lap(sig.size(), 0);
    for (std::size_t i = 1; i + 1 < sig.size(); ++i)
      lap[i] = sig[i - 1] - 2 * sig[i] + sig[i + 1];
    for (coord_t c = std::max<coord_t>(min_size, 2);
         c <= std::min<coord_t>(n - min_size, n - 2); ++c) {
      const std::int64_t a = lap[static_cast<std::size_t>(c - 1)];
      const std::int64_t d = lap[static_cast<std::size_t>(c)];
      if ((a < 0 && d > 0) || (a > 0 && d < 0)) {
        const std::int64_t jump = std::abs(a - d);
        if (jump > best_jump) {
          best_jump = jump;
          best.axis = axis;
          best.offset = c;
        }
      }
    }
  }
  return best;
}

/// Midpoint cut along the longest axis that can be cut.
Cut find_midpoint(const Box& b, coord_t min_size) {
  Cut cut;
  coord_t best_extent = 0;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n >= 2 * min_size && n > best_extent) {
      best_extent = n;
      cut.axis = axis;
      cut.offset = n / 2;
    }
  }
  return cut;
}

/// Distribute `s` over the half-spaces below and from plane `at` of `axis`;
/// an x cut splits every run that crosses it.  Consumes `s`.
void split(RunSet s, int axis, coord_t at, RunSet& left, RunSet& right) {
  left.runs.reserve(s.runs.size());
  right.runs.reserve(s.runs.size());
  for (const FlagRun& r : s.runs) {
    if (axis != 0) {
      ((axis == 1 ? r.y : r.z) < at ? left : right).add(r);
    } else if (r.x1 < at) {
      left.add(r);
    } else if (r.x0 >= at) {
      right.add(r);
    } else {
      left.add({r.x0, at - 1, r.y, r.z});
      right.add({at, r.x1, r.y, r.z});
    }
  }
}

void cluster_recursive(RunSet s, level_t level, const ClusterConfig& cfg,
                       int depth, std::vector<Box>& out) {
  SSAMR_ASSERT(!s.runs.empty(), "empty run set in cluster_recursive");
  const Box b(s.bounds.lo, s.bounds.hi, level);
  const real_t eff = static_cast<real_t>(s.bounds.flags) /
                     static_cast<real_t>(b.cells());
  if (eff >= cfg.efficiency || b.cells() <= cfg.small_box_cells ||
      depth >= cfg.max_depth) {
    out.push_back(b);
    return;
  }

  const Signatures sigs = signatures(s, b);
  Cut cut = find_hole(sigs, b, cfg.min_box_size);
  if (!cut.found()) cut = find_inflection(sigs, b, cfg.min_box_size);
  if (!cut.found()) cut = find_midpoint(b, cfg.min_box_size);
  if (!cut.found()) {
    out.push_back(b);  // nothing can be cut without violating min size
    return;
  }

  RunSet left, right;
  split(std::move(s), cut.axis, b.lo()[cut.axis] + cut.offset, left, right);
  if (left.runs.empty() || right.runs.empty()) {
    out.push_back(b);  // degenerate cut (all flags on one side)
    return;
  }

  // Fork-join over the two disjoint run vectors when the left half is big
  // enough to pay for a task.  A band row is one run of 5-6 cells, so 256
  // runs are about 1,500 flagged cells.  Each side writes its own vector;
  // appending left-then-right reproduces the serial depth-first output
  // order exactly, so box lists are bit-identical at any thread count.
  constexpr std::size_t kForkThreshold = 256;
  ThreadPool& pool = ThreadPool::global();
  if (pool.worker_count() > 0 && left.runs.size() >= kForkThreshold) {
    std::vector<Box> left_boxes;
    std::future<void> fut = pool.async([&left, level, &cfg, depth,
                                        &left_boxes] {
      cluster_recursive(std::move(left), level, cfg, depth + 1, left_boxes);
    });
    std::vector<Box> right_boxes;
    cluster_recursive(std::move(right), level, cfg, depth + 1, right_boxes);
    pool.wait(fut);
    out.insert(out.end(), std::make_move_iterator(left_boxes.begin()),
               std::make_move_iterator(left_boxes.end()));
    out.insert(out.end(), std::make_move_iterator(right_boxes.begin()),
               std::make_move_iterator(right_boxes.end()));
    return;
  }
  cluster_recursive(std::move(left), level, cfg, depth + 1, out);
  cluster_recursive(std::move(right), level, cfg, depth + 1, out);
}

}  // namespace

std::vector<Box> cluster_runs(std::vector<FlagRun> runs, level_t level,
                              const ClusterConfig& cfg) {
  SSAMR_REQUIRE(cfg.efficiency > 0 && cfg.efficiency <= 1,
                "efficiency must be in (0,1]");
  SSAMR_REQUIRE(cfg.min_box_size >= 1, "min box size must be >= 1");
  if (runs.empty()) return {};
  RunSet root{std::move(runs), {}};
  for (const FlagRun& r : root.runs) {
    SSAMR_REQUIRE(r.x0 <= r.x1, "flag run must have x0 <= x1");
    root.bounds.cover(r);
  }

  std::vector<Box> out;
  cluster_recursive(std::move(root), level, cfg, 0, out);
  return out;
}

std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                               level_t level, const ClusterConfig& cfg) {
  // Deduplicate; duplicates would inflate the efficiency estimate.  Sorting
  // by (z, y, x) puts each row's cells next to each other, in x order, so
  // one scan compresses them into disjoint runs.
  std::vector<IntVec> pts = flags;
  std::sort(pts.begin(), pts.end(), [](IntVec a, IntVec b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

  std::vector<FlagRun> runs;
  for (const IntVec& p : pts) {
    if (!runs.empty() && runs.back().y == p.y && runs.back().z == p.z &&
        runs.back().x1 + 1 == p.x)
      runs.back().x1 = p.x;
    else
      runs.push_back({p.x, p.x, p.y, p.z});
  }
  return cluster_runs(std::move(runs), level, cfg);
}

}  // namespace ssamr
