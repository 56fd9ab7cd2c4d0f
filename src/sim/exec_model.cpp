#include "sim/exec_model.hpp"

#include <algorithm>

#include "sim/bsp_model.hpp"
#include "sim/event_executor.hpp"
#include "sim/proc_model.hpp"
#include "util/error.hpp"

namespace ssamr {

const char* exec_model_name(ExecModelKind kind) {
  switch (kind) {
    case ExecModelKind::kBsp: return "bsp";
    case ExecModelKind::kEvent: return "event";
    case ExecModelKind::kProc: return "proc";
  }
  return "unknown";
}

ExecModelKind parse_exec_model_name(const std::string& name) {
  if (name == "bsp") return ExecModelKind::kBsp;
  if (name == "event") return ExecModelKind::kEvent;
  if (name == "proc") return ExecModelKind::kProc;
  SSAMR_REQUIRE(
      false, "unknown execution model '" + name + "' (want bsp|event|proc)");
  return ExecModelKind::kBsp;  // unreachable
}

ExecutionModel::ExecutionModel(const Cluster& cluster,
                               const ExecutorConfig& cfg)
    : cluster_(cluster), exec_(cluster, cfg) {
  const int n = cluster.size();
  lanes_.reserve(static_cast<std::size_t>(n) + 1);
  for (int k = 0; k <= n; ++k) lanes_.emplace_back(k);
}

Seconds ExecutionModel::sense(Seconds t, Seconds sweep_s, int iteration) {
  // Charged serially: every rank waits for the sweep (the pre-seam
  // behaviour the paper measures as sensing overhead).
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k)
    lanes_[k].advance(t + sweep_s, SpanKind::kIdle, iteration);
  lanes_[n].skip_to(t);
  lanes_[n].advance(t + sweep_s, SpanKind::kSense, iteration);
  return sweep_s;
}

Seconds ExecutionModel::regrid(Seconds t, std::size_t boxes, int iteration) {
  const Seconds cost = exec_.regrid_time(boxes) + exec_.partition_time(boxes);
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k)
    lanes_[k].advance(t + cost, SpanKind::kRegrid, iteration);
  pending_regrid_s_ = cost;
  return cost;
}

Seconds ExecutionModel::lockstep_migrate(Seconds t, Seconds cost) {
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

Seconds ExecutionModel::horizon() const {
  Seconds h{0};
  const auto n = static_cast<std::size_t>(cluster_.size());
  for (std::size_t k = 0; k < n; ++k) h = std::max(h, lanes_[k].now());
  return h;
}

void ExecutionModel::finish(RunTrace& trace, Seconds t_end) {
  const auto n = static_cast<std::size_t>(cluster_.size());
  // The driver's clock re-rounds the stage deltas it accumulated, so under
  // the event model it can sit an ulp below the true lane horizon; never
  // rewind a lane.  Under the lockstep models every lane ends on t_end.
  const Seconds end = std::max(t_end, horizon());
  trace.rank_usage.clear();
  trace.spans.clear();
  for (std::size_t k = 0; k < n; ++k) {
    lanes_[k].advance(end, SpanKind::kIdle);  // run tail
    trace.rank_usage.push_back(lanes_[k].usage());
  }
  for (const sim::RankTimeline& lane : lanes_)
    trace.spans.insert(trace.spans.end(), lane.spans().begin(),
                       lane.spans().end());
}

std::unique_ptr<ExecutionModel> make_execution_model(
    ExecModelKind kind, const Cluster& cluster, const ExecutorConfig& cfg) {
  switch (kind) {
    case ExecModelKind::kBsp:
      return std::make_unique<sim::BspModel>(cluster, cfg);
    case ExecModelKind::kEvent:
      return std::make_unique<sim::EventExecutor>(cluster, cfg);
    case ExecModelKind::kProc:
      return std::make_unique<sim::ProcModel>(cluster, cfg);
  }
  SSAMR_REQUIRE(false, "unknown execution model kind");
  return nullptr;  // unreachable
}

}  // namespace ssamr
