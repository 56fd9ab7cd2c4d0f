#pragma once
/// \file bsp_model.hpp
/// The closed-form BSP execution model.
///
/// This is the original runtime accounting (DESIGN.md §2) extracted behind
/// the ExecutionModel seam, arithmetic-for-arithmetic: every stage is
/// charged serially to one global clock and an iteration costs
/// max_k(compute_k + (1 − overlap) · comm_k).  Runs under this model are
/// bit-identical to the pre-seam runtime — the determinism suite and the
/// golden-file regressions pin that down.
///
/// Sensing, regrid and the migration clock splice are the base class's
/// lockstep stages; this model adds the closed-form migration cost and the
/// iteration max.  Its lanes show the BSP view: all ranks advance in
/// lockstep, the slack of non-critical ranks shows up as idle.

#include "sim/exec_model.hpp"

namespace ssamr::sim {

class BspModel final : public ExecutionModel {
 public:
  BspModel(const Cluster& cluster, const ExecutorConfig& cfg)
      : ExecutionModel(cluster, cfg) {}

  std::string name() const override { return "bsp"; }
  Seconds migrate(const PartitionResult& previous, const PartitionResult& next,
                  Seconds t) override;
  StepCost advance(const PartitionResult& r, Seconds t,
                   int iteration) override;
};

}  // namespace ssamr::sim
