#include "sim/bsp_model.hpp"

#include <algorithm>

namespace ssamr::sim {

BspModel::BspModel(const Cluster& cluster, const ExecutorConfig& cfg)
    : cluster_(cluster), exec_(cluster, cfg) {
  const int n = cluster.size();
  lanes_.reserve(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) lanes_.emplace_back(k);
}

Seconds BspModel::sense(Seconds t, Seconds sweep_s, int iteration) {
  // Charged serially: every rank waits for the sweep (the pre-seam
  // behaviour the paper measures as sensing overhead).
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k)
    lanes_[k].advance(t + sweep_s, SpanKind::kIdle, iteration);
  lanes_[n].skip_to(t);
  lanes_[n].advance(t + sweep_s, SpanKind::kSense, iteration);
  return sweep_s;
}

Seconds BspModel::regrid(Seconds t, std::size_t boxes, int iteration) {
  const Seconds cost = exec_.regrid_time(boxes) + exec_.partition_time(boxes);
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k)
    lanes_[k].advance(t + cost, SpanKind::kRegrid, iteration);
  pending_regrid_s_ = cost;
  return cost;
}

Seconds BspModel::migrate(const PartitionResult& previous,
                          const PartitionResult& next, Seconds t) {
  // The pre-seam clock charges migration at the pre-regrid time t; the
  // spans start after the regrid work the driver adds alongside.
  const Seconds cost = exec_.migration_time(previous, next, t);
  // The driver charges regrid + migration to its clock as one pre-summed
  // pair; replicate that exact rounding so the lanes land on the driver's
  // clock bit-for-bit ((t + a) + b need not equal t + (a + b)).
  const Seconds end = t + (pending_regrid_s_ + cost);
  pending_regrid_s_ = Seconds{0};
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k)
    lanes_[k].advance(end, SpanKind::kMigrate);
  return cost;
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

void BspModel::finish(RunTrace& trace, Seconds t_end) {
  const auto n = static_cast<std::size_t>(cluster_.size());
  trace.rank_usage.clear();
  trace.spans.clear();
  for (std::size_t k = 0; k < n; ++k) {
    lanes_[k].advance(t_end, SpanKind::kIdle);
    trace.rank_usage.push_back(lanes_[k].usage());
  }
  for (const RankTimeline& lane : lanes_)
    trace.spans.insert(trace.spans.end(), lane.spans().begin(),
                       lane.spans().end());
}

}  // namespace ssamr::sim
