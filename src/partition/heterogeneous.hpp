#pragma once
/// \file heterogeneous.hpp
/// The ACEHeterogeneous system-sensitive partitioner (paper §5.3) — the
/// paper's primary contribution.
///
/// Given relative capacities C_k (capacity/capacity.hpp), processor k is
/// targeted with work L_k = C_k · L.  Both the bounding-box list and the
/// capacities are sorted ascending, the smallest box going to the
/// smallest-capacity processor, "eliminating unnecessary breaking of
/// boxes"; a box exceeding its processor's remaining target is broken in
/// two along its longest dimension such that at least one piece fits,
/// subject to the minimum-box-size and aspect-ratio constraints.
///
/// Constructed with `longest_axis_only = false` it is the zoo's
/// `multiaxis` scheme, the paper's §8 proposal: "If the box is instead cut
/// along more axes, it could lead to finer partitioning granularity and
/// hence better work assignments".  Splits then pick whichever axis gives
/// the work fit closest to the target; bench/ablation_multiaxis measures
/// the imbalance reduction.

#include "partition/partitioner.hpp"

namespace ssamr {

/// The system-sensitive partitioner.
class HeterogeneousPartitioner final : public Partitioner {
 public:
  explicit HeterogeneousPartitioner(PartitionConstraints constraints = {});

  PartitionResult partition(const BoxList& boxes,
                            const std::vector<real_t>& capacities,
                            const WorkModel& work) const override;

  std::string name() const override { return "ACEHeterogeneous"; }

  PartitionConstraints constraints() const override { return constraints_; }

 private:
  PartitionConstraints constraints_;
};

}  // namespace ssamr
