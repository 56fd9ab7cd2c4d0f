// Differential oracles for the box-generation fast paths.  Each replaced
// implementation lives on here, verbatim in behaviour, and the library's
// path must reproduce it exactly:
//
//   * point-span Berger–Rigoutsos (sorted cell lists, one signature pass
//     per axis per search) vs the run-based cluster_flags / cluster_runs;
//   * the per-cell band flagging with inline trig vs SyntheticAmrTrace's
//     run emission with tabulated trig, on every epoch of the paper trace
//     and of zoo-like traces;
//   * the restart-from-(0,1) coalesce vs the linear-restart coalesce;
//   * the full linear particle scan vs the x-sorted binary-search count_in.
//
// All comparisons are exact (box lists element by element, integer counts).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "amr/cluster_br.hpp"
#include "amr/particles.hpp"
#include "amr/trace_generator.hpp"
#include "core/experiment.hpp"
#include "geom/box_algebra.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {
namespace {

// ---------------------------------------------------------------------------
// Oracle: point-span Berger–Rigoutsos.
namespace oracle {

Box bbox_of(const std::vector<IntVec>& pts, std::size_t lo, std::size_t hi,
            level_t level) {
  IntVec mn = pts[lo], mx = pts[lo];
  for (std::size_t i = lo + 1; i < hi; ++i) {
    mn = min(mn, pts[i]);
    mx = max(mx, pts[i]);
  }
  return Box(mn, mx, level);
}

std::vector<std::int64_t> signature(const std::vector<IntVec>& pts,
                                    std::size_t lo, std::size_t hi,
                                    const Box& b, int axis) {
  std::vector<std::int64_t> sig(
      static_cast<std::size_t>(b.extent()[axis]), 0);
  for (std::size_t i = lo; i < hi; ++i)
    ++sig[static_cast<std::size_t>(pts[i][axis] - b.lo()[axis])];
  return sig;
}

struct Cut {
  int axis = -1;
  coord_t offset = 0;
  bool found() const { return axis >= 0; }
};

Cut find_hole(const std::vector<IntVec>& pts, std::size_t lo, std::size_t hi,
              const Box& b, coord_t min_size) {
  Cut best;
  real_t best_centrality = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size) continue;
    const auto sig = signature(pts, lo, hi, b, axis);
    for (coord_t c = min_size; c <= n - min_size; ++c) {
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

Cut find_inflection(const std::vector<IntVec>& pts, std::size_t lo,
                    std::size_t hi, const Box& b, coord_t min_size) {
  Cut best;
  std::int64_t best_jump = -1;
  for (int axis = 0; axis < kDim; ++axis) {
    const coord_t n = b.extent()[axis];
    if (n < 2 * min_size || n < 4) continue;
    const auto sig = signature(pts, lo, hi, b, axis);
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

void cluster_recursive(std::vector<IntVec>& pts, std::size_t lo,
                       std::size_t hi, level_t level,
                       const ClusterConfig& cfg, int depth,
                       std::vector<Box>& out) {
  const Box b = bbox_of(pts, lo, hi, level);
  const real_t eff = static_cast<real_t>(hi - lo) /
                     static_cast<real_t>(b.cells());
  if (eff >= cfg.efficiency || b.cells() <= cfg.small_box_cells ||
      depth >= cfg.max_depth) {
    out.push_back(b);
    return;
  }
  Cut cut = find_hole(pts, lo, hi, b, cfg.min_box_size);
  if (!cut.found()) cut = find_inflection(pts, lo, hi, b, cfg.min_box_size);
  if (!cut.found()) cut = find_midpoint(b, cfg.min_box_size);
  if (!cut.found()) {
    out.push_back(b);
    return;
  }
  const coord_t split_coord = b.lo()[cut.axis] + cut.offset;
  const auto mid_it = std::partition(
      pts.begin() + static_cast<std::ptrdiff_t>(lo),
      pts.begin() + static_cast<std::ptrdiff_t>(hi),
      [&](IntVec p) { return p[cut.axis] < split_coord; });
  const auto mid = static_cast<std::size_t>(mid_it - pts.begin());
  if (mid == lo || mid == hi) {
    out.push_back(b);
    return;
  }
  cluster_recursive(pts, lo, mid, level, cfg, depth + 1, out);
  cluster_recursive(pts, mid, hi, level, cfg, depth + 1, out);
}

std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                               level_t level, const ClusterConfig& cfg) {
  if (flags.empty()) return {};
  std::vector<IntVec> pts = flags;
  std::sort(pts.begin(), pts.end(), [](IntVec a, IntVec b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  std::vector<Box> out;
  cluster_recursive(pts, 0, pts.size(), level, cfg, 0, out);
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: restart-from-(0,1) coalesce.

bool mergeable(const Box& a, const Box& b, Box& merged) {
  if (a.level() != b.level()) return false;
  int diff_axis = -1;
  for (int d = 0; d < kDim; ++d) {
    if (a.lo()[d] == b.lo()[d] && a.hi()[d] == b.hi()[d]) continue;
    if (diff_axis >= 0) return false;
    diff_axis = d;
  }
  if (diff_axis < 0) return false;
  const int d = diff_axis;
  if (a.hi()[d] + 1 == b.lo()[d] || b.hi()[d] + 1 == a.lo()[d]) {
    merged = bounding_union(a, b);
    return true;
  }
  return false;
}

std::vector<Box> coalesce(std::vector<Box> boxes) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < boxes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < boxes.size() && !changed; ++j) {
        Box merged;
        if (mergeable(boxes[i], boxes[j], merged)) {
          boxes[i] = merged;
          boxes.erase(boxes.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
  }
  return boxes;
}

// ---------------------------------------------------------------------------
// Oracle: per-cell band flagging with inline trig.  Every level's clustering
// is cross-checked against the library's cell and run entry points before
// the oracle's own boxes are carried to the next level.

constexpr real_t kPi = 3.14159265358979323846;

BoxList boxes_at_epoch(const SyntheticAmrTrace& trace, int epoch) {
  const TraceConfig& cfg = trace.config();
  BoxList out;
  out.push_back(cfg.domain);
  const real_t pos = trace.interface_position(epoch);
  const real_t amp0 =
      std::min(cfg.amplitude0 + cfg.growth * static_cast<real_t>(epoch),
               cfg.max_amplitude);
  const IntVec ext0 = cfg.domain.extent();
  std::vector<Box> parent_union{cfg.domain};
  for (int l = 0; l + 1 < cfg.max_levels; ++l) {
    coord_t scale = 1;
    for (int i = 0; i < l; ++i) scale *= cfg.ratio;
    const real_t nx = static_cast<real_t>(ext0.x * scale);
    const real_t ny = static_cast<real_t>(ext0.y * scale);
    const real_t nz = static_cast<real_t>(ext0.z * scale);
    const real_t amp = amp0 * static_cast<real_t>(scale);
    const real_t halfw = cfg.band_halfwidth;
    std::vector<IntVec> flags;
    std::vector<FlagRun> runs;
    for (const Box& pb : parent_union) {
      for (coord_t k = pb.lo().z; k <= pb.hi().z; ++k) {
        for (coord_t j = pb.lo().y; j <= pb.hi().y; ++j) {
          const real_t yfrac = (static_cast<real_t>(j) + 0.5) / ny;
          const real_t zfrac = (static_cast<real_t>(k) + 0.5) / nz;
          const real_t xs =
              pos * nx +
              amp * (std::sin(2.0 * kPi * cfg.waves_y * yfrac) +
                     0.5 * std::cos(2.0 * kPi * cfg.waves_z * zfrac));
          const real_t band_lo = std::floor(xs - halfw);
          const real_t band_hi = std::ceil(xs + halfw);
          const real_t box_lo = static_cast<real_t>(pb.lo().x);
          const real_t box_hi = static_cast<real_t>(pb.hi().x);
          if (band_lo > box_hi || band_hi < box_lo) continue;
          const coord_t ilo =
              static_cast<coord_t>(std::clamp(band_lo, box_lo, box_hi));
          const coord_t ihi =
              static_cast<coord_t>(std::clamp(band_hi, box_lo, box_hi));
          for (coord_t i = ilo; i <= ihi; ++i) flags.emplace_back(i, j, k);
          runs.push_back({ilo, ihi, j, k});
        }
      }
    }
    if (flags.empty()) break;
    const auto lvl = static_cast<level_t>(l);
    const auto coarse_boxes = oracle::cluster_flags(flags, lvl, cfg.cluster);
    EXPECT_EQ(ssamr::cluster_flags(flags, lvl, cfg.cluster), coarse_boxes)
        << "epoch " << epoch << " level " << l;
    EXPECT_EQ(ssamr::cluster_runs(runs, lvl, cfg.cluster), coarse_boxes)
        << "epoch " << epoch << " level " << l;
    std::vector<Box> clipped;
    for (const Box& b : coarse_boxes)
      for (const Box& pb : parent_union) {
        const Box piece = b.intersection(pb);
        if (!piece.empty()) clipped.push_back(piece);
      }
    clipped = oracle::coalesce(std::move(clipped));
    std::vector<Box> next_union;
    for (const Box& b : clipped) {
      const Box fine = b.refined(cfg.ratio);
      out.push_back(fine);
      next_union.push_back(fine);
    }
    parent_union = std::move(next_union);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: the particle cloud's draw stream and a full scan over it.

real_t reflect_into(real_t v, real_t span) {
  const real_t period = 2 * span;
  real_t r = std::fmod(v, period);
  if (r < 0) r += period;
  if (r >= span) r = period - r;
  if (r >= span) r = std::nextafter(span, real_t{0});
  return r;
}

struct Cloud {
  std::vector<real_t> xs, ys, zs;
};

Cloud gaussian_cloud(const Box& domain, const ParticleCloudConfig& cfg,
                     real_t center_x) {
  const IntVec ext = domain.extent();
  const real_t ex = static_cast<real_t>(ext.x);
  const real_t ey = static_cast<real_t>(ext.y);
  const real_t ez = static_cast<real_t>(ext.z);
  Cloud c;
  Rng rng(cfg.seed);
  for (std::int64_t i = 0; i < cfg.count; ++i) {
    const real_t px = rng.normal(center_x * ex, cfg.sigma_x);
    const real_t py = rng.normal(ey / 2, cfg.sigma_yz_frac * ey);
    const real_t pz = rng.normal(ez / 2, cfg.sigma_yz_frac * ez);
    c.xs.push_back(static_cast<real_t>(domain.lo().x) + reflect_into(px, ex));
    c.ys.push_back(static_cast<real_t>(domain.lo().y) + reflect_into(py, ey));
    c.zs.push_back(static_cast<real_t>(domain.lo().z) + reflect_into(pz, ez));
  }
  return c;
}

std::int64_t count_in(const Cloud& c, const Box& b, coord_t ratio) {
  real_t scale = 1;
  for (level_t l = 0; l < b.level(); ++l)
    scale *= static_cast<real_t>(ratio);
  std::int64_t count = 0;
  for (std::size_t i = 0; i < c.xs.size(); ++i) {
    const real_t sx = c.xs[i] * scale;
    const real_t sy = c.ys[i] * scale;
    const real_t sz = c.zs[i] * scale;
    if (sx >= static_cast<real_t>(b.lo().x) &&
        sx < static_cast<real_t>(b.hi().x + 1) &&
        sy >= static_cast<real_t>(b.lo().y) &&
        sy < static_cast<real_t>(b.hi().y + 1) &&
        sz >= static_cast<real_t>(b.lo().z) &&
        sz < static_cast<real_t>(b.hi().z + 1))
      ++count;
  }
  return count;
}

}  // namespace oracle

// ---------------------------------------------------------------------------
// Helpers.

/// The cells as runs, cut into random pieces and shuffled: cluster_runs
/// must not depend on how the flag set is segmented or ordered.
std::vector<FlagRun> fragmented_runs(std::vector<IntVec> cells, Rng& rng) {
  std::sort(cells.begin(), cells.end(), [](IntVec a, IntVec b) {
    if (a.z != b.z) return a.z < b.z;
    if (a.y != b.y) return a.y < b.y;
    return a.x < b.x;
  });
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  std::vector<FlagRun> runs;
  for (const IntVec& p : cells) {
    if (!runs.empty() && runs.back().y == p.y && runs.back().z == p.z &&
        runs.back().x1 + 1 == p.x && rng.uniform_int(0, 3) != 0)
      runs.back().x1 = p.x;
    else
      runs.push_back({p.x, p.x, p.y, p.z});
  }
  for (std::size_t i = runs.size(); i > 1; --i)
    std::swap(runs[i - 1], runs[static_cast<std::size_t>(
                               rng.uniform_int(0, static_cast<std::int64_t>(
                                                      i - 1)))]);
  return runs;
}

/// Every config of the sweep: min_box_size × efficiency × small_box_cells.
std::vector<ClusterConfig> config_sweep() {
  std::vector<ClusterConfig> out;
  for (coord_t m : {1, 2, 4, 8})
    for (real_t e : {0.3, 0.55, 0.7, 0.9, 1.0})
      for (std::int64_t s : {1, 16, 64, 4096}) {
        ClusterConfig c;
        c.min_box_size = m;
        c.efficiency = e;
        c.small_box_cells = s;
        out.push_back(c);
      }
  return out;
}

void expect_all_paths_agree(const std::vector<IntVec>& cells, level_t level,
                            const ClusterConfig& cfg, Rng& rng) {
  const auto want = oracle::cluster_flags(cells, level, cfg);
  EXPECT_EQ(cluster_flags(cells, level, cfg), want);
  EXPECT_EQ(cluster_runs(fragmented_runs(cells, rng), level, cfg), want);
}

std::vector<IntVec> random_cloud(Rng& rng, coord_t span, int n) {
  std::vector<IntVec> cells;
  for (int i = 0; i < n; ++i)
    cells.emplace_back(rng.uniform_int(0, span), rng.uniform_int(0, span / 2),
                       rng.uniform_int(0, span / 3));
  // Duplicates: re-append a random tenth of the cloud.
  for (int i = 0; i < n / 10; ++i)
    cells.push_back(cells[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  return cells;
}

std::vector<IntVec> l_shape(coord_t a, coord_t b, coord_t t) {
  std::vector<IntVec> cells;
  for (coord_t z = 0; z < t; ++z)
    for (coord_t y = 0; y < a; ++y)
      for (coord_t x = 0; x < a; ++x)
        if (x < b || y < b) cells.emplace_back(x, y, z);
  return cells;
}

std::vector<IntVec> wavy_band(coord_t n, real_t amplitude, coord_t width) {
  std::vector<IntVec> cells;
  for (coord_t k = 0; k < n; ++k)
    for (coord_t j = 0; j < n; ++j) {
      const real_t fy = static_cast<real_t>(j) / static_cast<real_t>(n);
      const real_t fz = static_cast<real_t>(k) / static_cast<real_t>(n);
      const auto xs = static_cast<coord_t>(
          32.0 + amplitude * std::sin(2.0 * oracle::kPi * fy) +
          0.5 * amplitude * std::cos(2.0 * oracle::kPi * fz));
      for (coord_t i = xs - width; i <= xs + width; ++i)
        cells.emplace_back(i, j, k);
    }
  return cells;
}

// ---------------------------------------------------------------------------
// Berger–Rigoutsos.

TEST(ClusterDifferential, EmptyInputGivesNoBoxes) {
  EXPECT_TRUE(cluster_runs({}, 0, ClusterConfig{}).empty());
  EXPECT_TRUE(cluster_flags({}, 0, ClusterConfig{}).empty());
}

TEST(ClusterDifferential, RejectsInvertedRun) {
  EXPECT_THROW(cluster_runs({{5, 4, 0, 0}}, 0, ClusterConfig{}), Error);
}

TEST(ClusterDifferential, RandomCloudsWithDuplicates) {
  Rng rng(13);
  const auto sweep = config_sweep();
  for (int trial = 0; trial < 60; ++trial) {
    const auto cells =
        random_cloud(rng, rng.uniform_int(4, 40),
                     static_cast<int>(rng.uniform_int(1, 600)));
    const auto level = static_cast<level_t>(trial % 4);
    for (const ClusterConfig& cfg : sweep)
      expect_all_paths_agree(cells, level, cfg, rng);
  }
}

TEST(ClusterDifferential, LShapesAndBands) {
  Rng rng(29);
  std::vector<std::vector<IntVec>> shapes;
  for (coord_t a : {8, 16, 31})
    for (coord_t b : {2, 5, 7}) shapes.push_back(l_shape(a, b, 3));
  for (coord_t n : {8, 16, 32})
    for (real_t amp : {0.0, 3.0, 6.0})
      for (coord_t w : {1, 2}) shapes.push_back(wavy_band(n, amp, w));
  for (const auto& cells : shapes)
    for (const ClusterConfig& cfg : config_sweep())
      expect_all_paths_agree(cells, 1, cfg, rng);
}

TEST(ClusterDifferential, LargeBandForksAcrossThreads) {
  // Thousands of runs, so both halves of the first cuts are big enough
  // to be clustered as pool tasks at any SSAMR_THREADS > 1.
  Rng rng(41);
  ClusterConfig cfg;
  cfg.efficiency = 0.55;
  cfg.min_box_size = 2;
  cfg.small_box_cells = 16;
  expect_all_paths_agree(wavy_band(96, 9.0, 2), 2, cfg, rng);
}

/// Every epoch 0-119 of one trace, checked level by level against the
/// oracle and then as a whole box list.
void expect_trace_matches(const TraceConfig& tcfg) {
  const SyntheticAmrTrace trace(tcfg);
  for (int epoch = 0; epoch < 120; ++epoch) {
    const BoxList want = oracle::boxes_at_epoch(trace, epoch);
    EXPECT_EQ(trace.boxes_at_epoch(epoch).boxes(), want.boxes())
        << "epoch " << epoch;
  }
}

TEST(ClusterDifferential, PaperTraceEveryEpoch) {
  expect_trace_matches(exp::paper_trace_config());
}

class ZooTrace : public ::testing::TestWithParam<int> {};

TEST_P(ZooTrace, EveryEpoch) {
  TraceConfig tcfg = exp::paper_trace_config();
  tcfg.interface_x0 = 0.25 + 0.05 * GetParam();
  expect_trace_matches(tcfg);
}

// interface_x0 = 0.30 .. 0.60; 0.25 is the paper trace above.
INSTANTIATE_TEST_SUITE_P(InterfaceX0, ZooTrace, ::testing::Range(1, 8));

// ---------------------------------------------------------------------------
// coalesce.

/// A random grid of disjoint, largely mergeable boxes: `region` is cut at
/// random planes on every axis; some cells of the grid are dropped.
std::vector<Box> random_grid(Rng& rng, const Box& region) {
  std::array<std::vector<coord_t>, kDim> cuts;
  for (int d = 0; d < kDim; ++d) {
    auto& c = cuts[static_cast<std::size_t>(d)];
    c.push_back(region.lo()[d]);
    for (coord_t p = region.lo()[d] + 1; p <= region.hi()[d]; ++p)
      if (rng.uniform_int(0, 2) == 0) c.push_back(p);
    c.push_back(region.hi()[d] + 1);
  }
  std::vector<Box> out;
  for (std::size_t i = 0; i + 1 < cuts[0].size(); ++i)
    for (std::size_t j = 0; j + 1 < cuts[1].size(); ++j)
      for (std::size_t k = 0; k + 1 < cuts[2].size(); ++k) {
        if (rng.uniform_int(0, 5) == 0) continue;
        out.emplace_back(IntVec(cuts[0][i], cuts[1][j], cuts[2][k]),
                         IntVec(cuts[0][i + 1] - 1, cuts[1][j + 1] - 1,
                                cuts[2][k + 1] - 1),
                         region.level());
      }
  return out;
}

TEST(CoalesceDifferential, RandomMergeableGridsAtMixedLevels) {
  Rng rng(7);
  for (int trial = 0; trial < 1500; ++trial) {
    std::vector<Box> boxes;
    const int levels = static_cast<int>(rng.uniform_int(1, 3));
    for (int l = 0; l < levels; ++l) {
      const IntVec ext(rng.uniform_int(1, 6), rng.uniform_int(1, 5),
                       rng.uniform_int(1, 4));
      const auto grid = random_grid(
          rng, Box::from_extent(IntVec(0, 0, 0), ext, static_cast<level_t>(l)));
      boxes.insert(boxes.end(), grid.begin(), grid.end());
    }
    for (std::size_t i = boxes.size(); i > 1; --i)
      std::swap(boxes[i - 1],
                boxes[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i - 1)))]);
    EXPECT_EQ(coalesce(boxes), oracle::coalesce(boxes)) << "trial " << trial;
  }
}

// Box 0 grows strip by strip; each strip arrives as two halves that merge
// with each other and then, as a column merge, into box 0.  Boxes that
// merge with nothing are interleaved at random (all of them ahead of the
// strips in trial 0), so the scan must resume past the rows it skipped.
TEST(CoalesceDifferential, StripsGrowingAnEarlyBoxPastUnmergeableBoxes) {
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<coord_t>(rng.uniform_int(1, 24));
    std::vector<Box> fillers, strips;
    for (coord_t k = 0; k < n; ++k)
      fillers.emplace_back(IntVec(0, 0, 2 * k + 2), IntVec(0, 0, 2 * k + 2),
                           1);
    for (coord_t s = 1; s <= n; ++s) {
      strips.emplace_back(IntVec(s, 0, 0), IntVec(s, 0, 0), 1);
      strips.emplace_back(IntVec(s, 1, 0), IntVec(s, 1, 0), 1);
    }
    std::vector<Box> boxes{Box(IntVec(0, 0, 0), IntVec(0, 1, 0), 1)};
    std::size_t f = 0, s = 0;
    while (f < fillers.size() || s < strips.size()) {
      const bool take_filler =
          s == strips.size() ||
          (f < fillers.size() && (trial == 0 || rng.uniform_int(0, 1) == 0));
      boxes.push_back(take_filler ? fillers[f++] : strips[s++]);
    }
    const auto merged = coalesce(boxes);
    EXPECT_EQ(merged, oracle::coalesce(boxes)) << "trial " << trial;
    EXPECT_EQ(merged.front(), Box(IntVec(0, 0, 0), IntVec(n, 1, 0), 1))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// ParticleField::count_in.

TEST(CountInDifferential, MatchesFullScanAtEveryLevelAndRatio) {
  const Box domain =
      Box::from_extent(IntVec(0, 0, 0), IntVec(128, 32, 32), 0);
  Rng rng(17);
  for (const real_t center : {0.1, 0.4, 0.93}) {
    ParticleCloudConfig pcfg;
    pcfg.count = 3000;
    pcfg.seed = 0x51u + static_cast<std::uint64_t>(center * 100);
    const ParticleField field =
        ParticleField::gaussian_cloud(domain, pcfg, center);
    const oracle::Cloud cloud = oracle::gaussian_cloud(domain, pcfg, center);
    for (const coord_t ratio : {2, 3}) {
      for (level_t l = 0; l <= 3; ++l) {
        coord_t scale = 1;
        for (level_t i = 0; i < l; ++i) scale *= ratio;
        const Box dom = Box::from_extent(IntVec(0, 0, 0),
                                         domain.extent() * scale, l);
        EXPECT_EQ(field.count_in(dom, ratio), pcfg.count);
        for (int trial = 0; trial < 150; ++trial) {
          IntVec lo, hi;
          for (int d = 0; d < kDim; ++d) {
            const coord_t n = dom.extent()[d];
            coord_t a = rng.uniform_int(0, n - 1);
            coord_t b = rng.uniform_int(0, n - 1);
            if (a > b) std::swap(a, b);
            // A third of the boxes touch a domain face.
            switch (rng.uniform_int(0, 5)) {
              case 0: a = 0; break;
              case 1: b = n - 1; break;
              default: break;
            }
            lo.at(d) = a;
            hi.at(d) = b;
          }
          const Box b(lo, hi, l);
          EXPECT_EQ(field.count_in(b, ratio),
                    oracle::count_in(cloud, b, ratio))
              << b << " ratio " << ratio;
        }
      }
    }
  }
}

TEST(CountInDifferential, ParticlesOnBoxFacesCountOnce) {
  // Zero spread puts every particle exactly on cell faces: x = 128 * center,
  // y = z = 16.  The boxes just below and from each such plane must split
  // the cloud between them exactly as the full scan does.
  const Box domain =
      Box::from_extent(IntVec(0, 0, 0), IntVec(128, 32, 32), 0);
  for (const real_t center : {0.25, 0.375, 0.5}) {
    ParticleCloudConfig pcfg;
    pcfg.count = 64;
    pcfg.sigma_x = 0.0;
    pcfg.sigma_yz_frac = 0.0;
    const ParticleField field =
        ParticleField::gaussian_cloud(domain, pcfg, center);
    const oracle::Cloud cloud = oracle::gaussian_cloud(domain, pcfg, center);
    const IntVec at(static_cast<coord_t>(128 * center), 16, 16);
    for (const coord_t ratio : {2, 3}) {
      for (level_t l = 0; l <= 3; ++l) {
        coord_t scale = 1;
        for (level_t i = 0; i < l; ++i) scale *= ratio;
        const Box dom = Box::from_extent(IntVec(0, 0, 0),
                                         domain.extent() * scale, l);
        for (int d = 0; d < kDim; ++d) {
          IntVec below_hi = dom.hi(), above_lo = dom.lo();
          below_hi.at(d) = at[d] * scale - 1;
          above_lo.at(d) = at[d] * scale;
          for (const Box& b :
               {Box(dom.lo(), below_hi, l), Box(above_lo, dom.hi(), l)})
            EXPECT_EQ(field.count_in(b, ratio),
                      oracle::count_in(cloud, b, ratio))
                << b << " ratio " << ratio;
          EXPECT_EQ(field.count_in(Box(dom.lo(), below_hi, l), ratio), 0);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ssamr
