#pragma once
/// \file greedy.hpp
/// Capacity-aware greedy bin packing ("largest box first").
///
/// A classic alternative to the paper's sorted-walk scheme: boxes are
/// taken largest-first and each goes to the processor with the smallest
/// *relative* load W_k / C_k (LPT scheduling generalized to heterogeneous
/// machines).  It never splits boxes — balance quality is limited by the
/// box granularity, which makes it a useful contrast to ACEHeterogeneous
/// in the locality/balance ablation.  Defined in knapsack.cpp: its walk is
/// the seed KnapsackPartitioner refines.

#include "partition/partitioner.hpp"

namespace ssamr {

/// Largest-first greedy assignment to the relatively least-loaded rank.
class GreedyPartitioner final : public Partitioner {
 public:
  GreedyPartitioner() = default;

  PartitionResult partition(const BoxList& boxes,
                            const std::vector<real_t>& capacities,
                            const WorkModel& work) const override;

  std::string name() const override { return "GreedyLPT"; }
};

}  // namespace ssamr
