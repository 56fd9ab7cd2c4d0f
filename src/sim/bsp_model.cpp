#include "sim/bsp_model.hpp"

namespace ssamr::sim {

Seconds BspModel::migrate(const PartitionResult& previous,
                          const PartitionResult& next, Seconds t) {
  // The pre-seam clock charges migration at the pre-regrid time t; the
  // spans start after the regrid work the driver adds alongside.
  return lockstep_migrate(t, exec_.migration_time(previous, next, t));
}

StepCost BspModel::advance(const PartitionResult& r, Seconds t,
                           int iteration) {
  const auto comp = exec_.compute_times(r, t);
  // The ghost flows come from the executor's per-partition cache: between
  // regrids every iteration prices the same flow list.
  const auto comm = exec_.effective_comm_times(exec_.ghost_flows(r), t);
  Seconds worst_total{0};
  std::size_t worst_k = 0;
  for (std::size_t k = 0; k < comp.size(); ++k) {
    if (comp[k] + comm[k] > worst_total) {
      worst_total = comp[k] + comm[k];
      worst_k = k;
    }
  }
  const Seconds worst_comp = comp[worst_k];
  for (std::size_t k = 0; k < comp.size(); ++k) {
    RankTimeline& lane = lanes_[k];
    // Sum comp + comm before adding t: rounding is then monotone in the
    // per-rank total, so no lane can overshoot t + worst_total by an ulp.
    lane.advance(t + comp[k], SpanKind::kCompute, iteration);
    lane.advance(t + (comp[k] + comm[k]), SpanKind::kComm, iteration);
    lane.advance(t + worst_total, SpanKind::kIdle, iteration);
  }
  return StepCost{worst_total, worst_comp, worst_total - worst_comp};
}

}  // namespace ssamr::sim
