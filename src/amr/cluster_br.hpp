#pragma once
/// \file cluster_br.hpp
/// Berger–Rigoutsos point clustering.
///
/// Regridding step (2) of the paper: "clustering flagged points" into a
/// small set of rectilinear boxes with bounded fill efficiency.  This is the
/// classic signature/hole/inflection algorithm of Berger & Rigoutsos (IEEE
/// Trans. Systems, Man & Cybernetics, 1991).
///
/// Flags are clustered as x-runs (one contiguous span of flagged cells in
/// one (y, z) row), not as cells: a band flagged around an interface is one
/// run per row, so every signature, bounding box and split costs O(runs)
/// instead of O(cells).  The boxes depend only on the set of flagged cells,
/// never on how that set is cut into runs or ordered.

#include <vector>

#include "geom/box.hpp"
#include "geom/point.hpp"
#include "util/types.hpp"

namespace ssamr {

/// Tuning knobs of the clustering pass.
struct ClusterConfig {
  /// Accept a box when (flagged cells / box cells) >= efficiency.
  real_t efficiency = 0.7;
  /// Splits never create a piece with extent < min_box_size along the cut
  /// axis (the paper's "minimum box size" constraint); an accepted box can
  /// still be smaller when its flag cloud is smaller.
  coord_t min_box_size = 4;
  /// Stop splitting when a box already holds <= this many cells.
  std::int64_t small_box_cells = 64;
  /// Hard cap on recursion depth (safety).
  int max_depth = 32;
};

/// The flagged cells (x0..x1, y, z), x0 <= x1, of one row.
struct FlagRun {
  coord_t x0 = 0, x1 = 0, y = 0, z = 0;
};

/// Cluster flagged runs (at some level l) into boxes at the same level.
/// The runs must be pairwise disjoint (no cell in two runs); their order
/// does not matter.  Same output contract as cluster_flags.
std::vector<Box> cluster_runs(std::vector<FlagRun> runs, level_t level,
                              const ClusterConfig& cfg);

/// Cluster flagged cells (at some level l) into boxes at the same level.
/// The returned boxes are disjoint, each contains every flag inside its
/// bounds, and their union covers all flags.  `flags` may contain
/// duplicates.  Returns an empty list when `flags` is empty.
std::vector<Box> cluster_flags(const std::vector<IntVec>& flags,
                               level_t level, const ClusterConfig& cfg);

}  // namespace ssamr
