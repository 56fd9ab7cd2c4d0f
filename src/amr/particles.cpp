#include "amr/particles.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {

namespace {

/// Reflect `v` into [0, span) by folding at the walls.  span must be > 0.
real_t reflect_into(real_t v, real_t span) {
  // Fold the real line onto [0, 2*span) then mirror the upper half.  A
  // couple of iterations suffice for the few-sigma excursions a Gaussian
  // draw can produce; the loop guards pathological inputs.
  const real_t period = 2 * span;
  real_t r = std::fmod(v, period);
  if (r < 0) r += period;
  if (r >= span) r = period - r;
  // fmod can land exactly on span after the mirror step when v is an exact
  // multiple; fold once more and clamp away from the open upper bound.
  if (r >= span)
    r = std::nextafter(span, real_t{0});
  return r;
}

}  // namespace

ParticleField ParticleField::gaussian_cloud(const Box& base_domain,
                                            const ParticleCloudConfig& cfg,
                                            real_t center_x) {
  SSAMR_REQUIRE(cfg.count >= 0, "particle count must be non-negative");
  SSAMR_REQUIRE(base_domain.level() == 0,
                "particle domain must be a level-0 box");
  ParticleField field;
  if (cfg.count == 0) return field;
  SSAMR_REQUIRE(!base_domain.empty(), "particle domain must be non-empty");

  const IntVec ext = base_domain.extent();
  const real_t ex = static_cast<real_t>(ext.x);
  const real_t ey = static_cast<real_t>(ext.y);
  const real_t ez = static_cast<real_t>(ext.z);
  const real_t cx = center_x * ex;
  const real_t sy = cfg.sigma_yz_frac * ey;
  const real_t sz = cfg.sigma_yz_frac * ez;

  std::vector<std::array<real_t, 3>> pts;
  pts.reserve(static_cast<std::size_t>(cfg.count));
  Rng rng(cfg.seed);
  const real_t lox = static_cast<real_t>(base_domain.lo().x);
  const real_t loy = static_cast<real_t>(base_domain.lo().y);
  const real_t loz = static_cast<real_t>(base_domain.lo().z);
  for (std::int64_t i = 0; i < cfg.count; ++i) {
    // Fixed draw order (x, y, z) so the stream is position-independent of
    // any future config fields.
    const real_t px = rng.normal(cx, cfg.sigma_x);
    const real_t py = rng.normal(ey / 2, sy);
    const real_t pz = rng.normal(ez / 2, sz);
    pts.push_back({lox + reflect_into(px, ex), loy + reflect_into(py, ey),
                   loz + reflect_into(pz, ez)});
  }
  // Order by x (then y, z: a total order, so the layout does not depend on
  // the sort algorithm), so count_in can bound each box's x slab by
  // binary search.
  std::sort(pts.begin(), pts.end(), [](const auto& a, const auto& b) {
    if (a[0] != b[0]) return a[0] < b[0];
    if (a[1] != b[1]) return a[1] < b[1];
    return a[2] < b[2];
  });
  field.xs_.reserve(pts.size());
  field.ys_.reserve(pts.size());
  field.zs_.reserve(pts.size());
  for (const auto& p : pts) {
    field.xs_.push_back(p[0]);
    field.ys_.push_back(p[1]);
    field.zs_.push_back(p[2]);
  }
  return field;
}

std::int64_t ParticleField::count_in(const Box& b, coord_t ratio) const {
  if (xs_.empty() || b.empty()) return 0;
  SSAMR_REQUIRE(ratio >= 2, "refinement ratio must be >= 2");
  real_t scale = 1;
  for (level_t l = 0; l < b.level(); ++l)
    scale *= static_cast<real_t>(ratio);
  // Half-open interval [lo, hi+1) per dimension in the box's own index
  // space; the same scaled coordinate is compared against every box, so
  // counts are exactly additive across a partition of the index space.
  const real_t lox = static_cast<real_t>(b.lo().x);
  const real_t loy = static_cast<real_t>(b.lo().y);
  const real_t loz = static_cast<real_t>(b.lo().z);
  const real_t hix = static_cast<real_t>(b.hi().x + 1);
  const real_t hiy = static_cast<real_t>(b.hi().y + 1);
  const real_t hiz = static_cast<real_t>(b.hi().z + 1);
  // xs_ is sorted and scaling by a positive factor is monotone, so the
  // particles with lox <= x * scale < hix form one contiguous slab.
  const auto first = std::partition_point(
      xs_.begin(), xs_.end(), [&](real_t x) { return x * scale < lox; });
  const auto last = std::partition_point(
      first, xs_.end(), [&](real_t x) { return x * scale < hix; });
  std::int64_t count = 0;
  const auto end = static_cast<std::size_t>(last - xs_.begin());
  for (auto i = static_cast<std::size_t>(first - xs_.begin()); i < end; ++i) {
    const real_t sy = ys_[i] * scale;
    if (sy < loy || sy >= hiy) continue;
    const real_t sz = zs_[i] * scale;
    if (sz < loz || sz >= hiz) continue;
    ++count;
  }
  return count;
}

}  // namespace ssamr
