#include "workloads.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/experiment.hpp"
#include "hdda/local_view.hpp"
#include "partition/distributed_sfc.hpp"
#include "partition/partition_audit.hpp"
#include "sfc/key_index.hpp"
#include "sim/event_executor.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ssamr;
using Scope = Recorder::Scope;

// ---- workload parameters --------------------------------------------------
// paper-sweep: Fig. 7 / Table I conditions.
constexpr int kSweepIters = 200;  // 40 regrids per run, 320 per process
// zoo-particle: every zoo member at P = 16 on the event model.
constexpr int kZooProcs = 16;
constexpr int kZooIters = 100;  // 20 regrids per member, 160 per process
constexpr std::int64_t kZooParticles = 4096;
constexpr real_t kZooParticleCost = 50.0;
constexpr int kZooSensing = 5;
// Fixed dynamic-load timescale: what exp::calibrate_timescale(16,
// kZooIters, 5) returns under the event model, fixed here so set-up does
// not recalibrate.
constexpr real_t kZooTau = 291.35;
// event-scale: the exp_scale lattice at P = 512, repartition + migrate
// every 2 iterations.  400 iterations take the event clock to ~1160 s,
// past the 1024 s mark paper-length runs cross.
constexpr int kScaleProcs = 512;
constexpr int kScaleIters = 400;
constexpr int kScaleRepartitionEvery = 2;
constexpr int kScaleShards = 64;

/// Load-balance efficiency of one partition in percent: the mean over
/// ranks of W_k / L_k over its maximum (100 = every rank exactly on its
/// capacity-proportional target).  Ranks with no target are left out.
double balance_efficiency_pct(const std::vector<real_t>& assigned,
                              const std::vector<real_t>& target) {
  double sum = 0;
  double worst = 0;
  int n = 0;
  for (std::size_t k = 0; k < assigned.size(); ++k) {
    if (target[k] <= 0) continue;
    const double ratio = assigned[k] / target[k];
    sum += ratio;
    worst = std::max(worst, ratio);
    ++n;
  }
  return worst > 0 ? 100.0 * sum / n / worst : 0.0;
}

/// Times each box request (amr.gen) and particle request (amr.particles),
/// opens the regrid operation, and counts distinct (config, epoch) pairs.
class TimedSource final : public WorkloadSource {
 public:
  TimedSource(WorkloadSource& inner, Recorder& rec, int config_id,
              std::set<std::pair<int, int>>& seen)
      : inner_(inner), rec_(rec), config_id_(config_id), seen_(seen) {}

  BoxList boxes_for_regrid(int regrid_index) override {
    rec_.op_end(true);  // the advance stretch since the previous regrid
    rec_.op_begin();
    request_t0_ = now_s();
    rec_.set_regrid(++regrid_id_);
    BoxList boxes;
    {
      Scope s(rec_, "amr.gen");
      boxes = inner_.boxes_for_regrid(regrid_index);
    }
    const bool fresh = seen_.insert({config_id_, regrid_index}).second;
    rec_.outputs([&](Outputs& o) {
      ++o.box_requests;
      o.boxes += static_cast<std::int64_t>(boxes.size());
      o.distinct_epochs += fresh ? 1 : 0;
    });
    return boxes;
  }

  const ParticleField* particles_for_regrid(int regrid_index) override {
    Scope s(rec_, "amr.particles");
    return inner_.particles_for_regrid(regrid_index);
  }

  double request_t0() const { return request_t0_; }

 private:
  WorkloadSource& inner_;
  Recorder& rec_;
  int config_id_;
  std::set<std::pair<int, int>>& seen_;
  double request_t0_ = 0;
  int regrid_id_ = 0;
};

/// Times Partitioner::partition, closes the regrid stall opened by the
/// source, then — off the clock — audits and checksums the result and
/// keeps a copy for the layer replay.
class TimedPartitioner final : public Partitioner {
 public:
  TimedPartitioner(const Partitioner& inner, Recorder& rec,
                   const TimedSource& source)
      : inner_(inner), rec_(rec), source_(source) {}

  PartitionResult partition(const BoxList& boxes,
                            const std::vector<real_t>& capacities,
                            const WorkModel& work) const override {
    PartitionResult r;
    {
      Scope s(rec_, "partition");
      r = inner_.partition(boxes, capacities, work);
    }
    const double t_done = now_s();
    rec_.add_regrid_ms((t_done - source_.request_t0()) * 1e3);
    bool ok = false;
    {
      Scope s(rec_, "audit.validate");
      ok = audit::validate_partition(boxes, r, capacities, work,
                                     inner_.constraints())
               .ok();
    }
    rec_.outputs([&](Outputs& o) {
      o.checksum = checksum_assignments(o.checksum, r);
      ++o.regrids;
      o.splits += r.splits;
    });
    results_.push_back(r);
    rec_.set_regrid(-1);
    rec_.op_end(ok, "audit");
    rec_.maybe_calibrate();
    rec_.op_begin();  // the advance stretch until the next regrid
    off_clock_s_ += now_s() - t_done;
    return r;
  }

  std::string name() const override { return inner_.name(); }
  PartitionConstraints constraints() const override {
    return inner_.constraints();
  }

  /// Wall spent auditing/bookkeeping inside run(), excluded from timing.
  double off_clock_s() const { return off_clock_s_; }
  /// Every partition result of the run, in regrid order.
  const std::vector<PartitionResult>& results() const { return results_; }

 private:
  const Partitioner& inner_;
  Recorder& rec_;
  const TimedSource& source_;
  mutable double off_clock_s_ = 0;
  mutable std::vector<PartitionResult> results_;
};

/// Re-run the sensing and pricing calls AdaptiveRuntime::run() made
/// internally, in the same order and at the same virtual times, on fresh
/// instances built from the run's own configuration: the monitor sweeps
/// (ResourceMonitor::probe_all), the capacity calculation, and the
/// execution model (regrid/migrate/advance over the recorded partitions).
/// Spans time each call; a second monitor in lockstep counts probe
/// attempts.  Returns true when the replay lands on the run's exact final
/// virtual time and event count — the check that it replayed the same
/// calls.
bool replay_layers(const Cluster& cluster, const RuntimeConfig& cfg,
                   const RunTrace& trace,
                   const std::vector<PartitionResult>& results,
                   std::int64_t run_events, Recorder& rec) {
  ResourceMonitor monitor(cluster, cfg.monitor);
  ResourceMonitor counter(cluster, cfg.monitor);
  const CapacityCalculator capacity(cfg.weights);
  const auto model =
      make_execution_model(cfg.exec_model, cluster, cfg.executor);
  Seconds t{0};
  std::int64_t probes = 0;
  std::int64_t attempts = 0;

  const auto sense = [&](int iteration, bool charge) {
    SweepResult sweep;
    {
      Scope s(rec, "monitor.probe_all");
      sweep = monitor.probe_all(t);
    }
    for (rank_t r = 0; r < cluster.size(); ++r)
      attempts += counter.probe_outcome(r, t).attempts;
    probes += cluster.size();
    {
      Scope s(rec, "capacity.calc");
      (void)capacity.relative_capacities(sweep.estimates);
    }
    if (charge) {
      Scope s(rec, "sim.sense");
      t += model->sense(t, sweep.overhead_s, iteration);
    }
  };

  sense(0, cfg.sensing.charge_initial_sweep);
  PartitionResult current;
  std::size_t next = 0;
  for (int iter = 0; iter < trace.iterations; ++iter) {
    if (cfg.sensing.interval > 0 && iter > 0 &&
        iter % cfg.sensing.interval == 0)
      sense(iter, true);
    if (next < trace.regrids.size() &&
        trace.regrids[next].iteration == iter) {
      rec.set_regrid(static_cast<int>(next) + 1);
      Seconds t_regrid{0};
      Seconds t_migrate{0};
      {
        Scope s(rec, "sim.regrid");
        t_regrid = model->regrid(t, trace.regrids[next].num_boxes, iter);
      }
      {
        Scope s(rec, "sim.migrate");
        t_migrate = model->migrate(current, results[next], t);
      }
      t += t_regrid + t_migrate;
      current = results[next];
      ++next;
      rec.set_regrid(-1);
    }
    Scope s(rec, "sim.advance");
    t += model->advance(current, t, iter).elapsed;
  }

  const auto* event = dynamic_cast<const sim::EventExecutor*>(model.get());
  const std::int64_t events =
      event ? static_cast<std::int64_t>(event->events_processed()) : 0;
  rec.outputs([&](Outputs& o) {
    o.probes += probes;
    o.probe_attempts += attempts;
  });
  return t == trace.total_time && events == run_events &&
         next == results.size();
}

/// One AdaptiveRuntime::run() under the timing decorators, then the
/// off-clock layer replay.  The run's timed window opened at `t0`, before
/// the caller built the cluster, so construction of every library object
/// the run uses is timed too.
void run_adaptive(double t0, Cluster& cluster, const TraceConfig& tcfg,
                  int config_id, const Partitioner& scheme,
                  const RuntimeConfig& cfg,
                  std::set<std::pair<int, int>>& seen, Recorder& rec) {
  rec.op_begin();
  TraceWorkloadSource inner(tcfg);
  TimedSource source(inner, rec, config_id, seen);
  TimedPartitioner partitioner(scheme, rec, source);
  AdaptiveRuntime runtime(cluster, source, partitioner, cfg);
  RunTrace trace;
  {
    Scope s(rec, "runtime.run");
    trace = runtime.run();
  }
  const double wall = now_s() - t0 - partitioner.off_clock_s();
  rec.op_end(true);
  rec.add_window(wall, trace.iterations);
  rec.maybe_calibrate();

  const auto* event =
      dynamic_cast<const sim::EventExecutor*>(&runtime.model());
  const std::int64_t events =
      event ? static_cast<std::int64_t>(event->events_processed()) : 0;
  rec.outputs([&](Outputs& o) {
    o.virtual_s += trace.total_time.value();
    o.virtual_iters += trace.iterations;
    o.imbalance_sum += trace.mean_max_imbalance_pct().value();
    ++o.imbalance_runs;
    for (const RegridRecord& r : trace.regrids) {
      o.balance_sum += balance_efficiency_pct(r.assigned_work, r.target_work);
      ++o.balance_regrids;
    }
    o.events += events;
  });

  rec.op_begin();
  const bool same = replay_layers(cluster, cfg, trace, partitioner.results(),
                                  events, rec);
  rec.op_end(same, "replay");
  rec.maybe_calibrate();
}

/// Seed of one input stream (`salt`) derived from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt << 32);
  return splitmix64(state);
}

void paper_sweep(std::uint64_t seed, Recorder& rec) {
  const TraceConfig tcfg = exp::paper_trace_config();
  {
    // Warm-up: one untimed regrid (box generation + partition at P = 4).
    const BoxList boxes = SyntheticAmrTrace(tcfg).boxes_at_epoch(0);
    (void)HeterogeneousPartitioner().partition(
        boxes, exp::reference_capacities4(),
        exp::paper_runtime_config(1, 0).work);
  }
  rec.set_setup(now_s());
  rec.maybe_calibrate();

  std::set<std::pair<int, int>> seen;
  const HeterogeneousPartitioner het;
  const GraceDefaultPartitioner def;
  for (const int procs : {4, 8, 16, 32}) {
    for (const Partitioner* scheme :
         {static_cast<const Partitioner*>(&het),
          static_cast<const Partitioner*>(&def)}) {
      const double t0 = now_s();
      Cluster cluster = exp::paper_cluster(procs);
      exp::apply_static_loads(cluster);
      RuntimeConfig cfg = exp::paper_runtime_config(kSweepIters, 0);
      cfg.exec_model = ExecModelKind::kBsp;
      cfg.monitor.seed = mix_seed(seed, 1);
      run_adaptive(t0, cluster, tcfg, /*config_id=*/0, *scheme, cfg, seen,
                   rec);
    }
  }
}

TraceConfig zoo_trace_config(std::uint64_t seed, int member) {
  TraceConfig tcfg = exp::paper_trace_config();
  tcfg.interface_x0 = 0.25 + 0.05 * member;
  tcfg.particles.count = kZooParticles;
  tcfg.particles.seed = mix_seed(seed, 100 + static_cast<std::uint64_t>(member));
  return tcfg;
}

void zoo_particle(std::uint64_t seed, Recorder& rec) {
  const auto& zoo = partitioner_zoo();
  {
    // Warm-up: one untimed particle-coupled regrid with the first member.
    const SyntheticAmrTrace trace(zoo_trace_config(seed, 0));
    const ParticleField field = trace.particles_at_epoch(0);
    WorkModel work = exp::paper_runtime_config(1, 0).work;
    work.cost_per_particle = Work{kZooParticleCost};
    work.particles = &field;
    const std::vector<real_t> caps(kZooProcs, 1.0 / kZooProcs);
    (void)zoo.front().make()->partition(trace.boxes_at_epoch(0), caps, work);
  }
  rec.set_setup(now_s());
  rec.maybe_calibrate();

  FaultProfile profile;
  profile.probe_timeout_rate = 0.1;
  profile.probe_drop_rate = 0.1;
  profile.stale_windows = 2;
  profile.crash_episodes = 1;
  const FaultPlan plan = FaultPlan::scripted(
      kZooProcs, Seconds{kZooTau}, profile, mix_seed(seed, 2));

  std::set<std::pair<int, int>> seen;
  for (std::size_t m = 0; m < zoo.size(); ++m) {
    const double t0 = now_s();
    const auto scheme = zoo[m].make();
    Cluster cluster = exp::paper_cluster(kZooProcs);
    exp::apply_dynamic_loads(cluster, kZooTau);
    cluster.set_fault_plan(plan);
    RuntimeConfig cfg = exp::paper_runtime_config(kZooIters, kZooSensing);
    cfg.exec_model = ExecModelKind::kEvent;
    cfg.work.cost_per_particle = Work{kZooParticleCost};
    cfg.monitor.seed = mix_seed(seed, 1);
    run_adaptive(t0, cluster, zoo_trace_config(seed, static_cast<int>(m)),
                 static_cast<int>(m), *scheme, cfg, seen, rec);
  }
}

/// exp_scale's lattice: four 8³ level-0 boxes per rank on a cube-ish
/// lattice, every eighth carrying a refined child.
BoxList scale_lattice(int nprocs) {
  const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
  coord_t side = 1;
  while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
  BoxList boxes;
  std::int64_t placed = 0;
  for (coord_t k = 0; k < side && placed < nboxes; ++k)
    for (coord_t j = 0; j < side && placed < nboxes; ++j)
      for (coord_t i = 0; i < side && placed < nboxes; ++i) {
        boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, k * 8),
                                         IntVec(8, 8, 8), 0));
        if (placed % 8 == 0)
          boxes.push_back(Box::from_extent(IntVec(i * 16, j * 16, k * 16),
                                           IntVec(8, 8, 4), 1));
        ++placed;
      }
  return boxes;
}

/// Relative capacities of the cluster's t = 0 state (as exp_scale).
std::vector<real_t> start_capacities(const Cluster& cluster) {
  std::vector<ResourceEstimate> est;
  for (rank_t k = 0; k < cluster.size(); ++k) {
    const NodeState s = cluster.state_at(k, Seconds{0});
    est.push_back(
        ResourceEstimate{s.cpu_available, s.memory_free_mb, s.bandwidth_mbps});
  }
  return CapacityCalculator().relative_capacities(est);
}

void event_scale(std::uint64_t seed, Recorder& rec) {
  const Cluster cluster =
      Cluster::heterogeneous(kScaleProcs, {1.0, 0.75, 1.5, 1.25});
  const ExecutorConfig ecfg;
  sim::EventExecutor exec(cluster, ecfg);
  const BoxList boxes = scale_lattice(kScaleProcs);
  std::vector<real_t> caps = start_capacities(cluster);
  std::rotate(caps.begin(), caps.begin() + seed % kScaleProcs, caps.end());
  const DistributedSfcPartitioner partitioner(SfcConfig{}, kScaleShards);
  const WorkModel work;

  // Set-up: the initial distribution plus one untimed warm-up advance that
  // fills the executor's per-topology caches (as exp_scale does).
  PartitionResult current = partitioner.partition(boxes, caps, work);
  Seconds t = exec.advance(current, Seconds{0}, 0).elapsed;
  const Seconds t_start = t;
  const auto warm_events = static_cast<std::int64_t>(exec.events_processed());
  rec.set_setup(now_s());
  rec.maybe_calibrate();

  {
    // Key index + local views, built once on the horizon's final layout
    // (the rotation count fixes it) and off the clock, as exp_scale builds
    // them once after its loop.
    std::vector<real_t> last = caps;
    const int rotations = (kScaleIters - 1) / kScaleRepartitionEvery;
    std::rotate(last.begin(), last.begin() + rotations % kScaleProcs,
                last.end());
    const PartitionResult final_layout =
        partitioner.partition(boxes, last, work);
    std::vector<Box> owned;
    std::vector<rank_t> owners;
    for (const BoxAssignment& a : final_layout.assignments) {
      owned.push_back(a.box);
      owners.push_back(a.owner);
    }
    rec.op_begin();
    std::optional<SfcKeyIndex> index;
    {
      Scope s(rec, "sfc.key_index");
      index.emplace(owned);
    }
    {
      Scope s(rec, "hdda.local_views");
      (void)build_local_views(owned, owners, kScaleProcs, ecfg.ghost, *index);
    }
    rec.op_end(true);
    rec.outputs([&](Outputs& o) {
      o.key_candidates = index->stats().candidates;
      o.key_hits = index->stats().hits;
    });
  }

  int regrid_id = 0;
  for (int iter = 0; iter < kScaleIters; ++iter) {
    if (iter > 0 && iter % kScaleRepartitionEvery == 0) {
      rec.op_begin();
      rec.set_regrid(++regrid_id);
      const double t0 = now_s();
      {
        Scope s(rec, "sim.regrid");
        t += exec.regrid(t, boxes.size(), iter);
      }
      std::rotate(caps.begin(), caps.begin() + 1, caps.end());
      PartitionResult next;
      {
        Scope s(rec, "partition");
        next = partitioner.partition(boxes, caps, work);
      }
      {
        Scope s(rec, "sim.migrate");
        t += exec.migrate(current, next, t);
      }
      const double wall = now_s() - t0;
      rec.add_regrid_ms(wall * 1e3);
      rec.add_window(wall, 0);
      bool ok = false;
      {
        Scope s(rec, "audit.validate");
        ok = audit::validate_partition(boxes, next, caps, work,
                                       partitioner.constraints())
                 .ok();
      }
      rec.outputs([&](Outputs& o) {
        o.checksum = checksum_assignments(o.checksum, next);
        ++o.regrids;
        o.boxes += static_cast<std::int64_t>(boxes.size());
        o.splits += next.splits;
        o.imbalance_sum += max_load_imbalance_pct(next);
        ++o.imbalance_runs;
        o.balance_sum +=
            balance_efficiency_pct(next.assigned_work, next.target_work);
        ++o.balance_regrids;
      });
      current = std::move(next);
      rec.set_regrid(-1);
      rec.op_end(ok, "audit");
      rec.maybe_calibrate();
    }
    rec.op_begin();
    const double t0 = now_s();
    {
      Scope s(rec, "sim.advance");
      t += exec.advance(current, t, iter).elapsed;
    }
    rec.add_window(now_s() - t0, 1);
    rec.outputs([&](Outputs& o) {
      o.virtual_s = (t - t_start).value();
      o.virtual_iters = iter + 1;
      o.events =
          static_cast<std::int64_t>(exec.events_processed()) - warm_events;
    });
    rec.op_end(true);
    rec.maybe_calibrate();
  }
}

}  // namespace

void run_workload(const std::string& name, std::uint64_t seed,
                  Recorder& rec) {
  if (name == "paper-sweep") return paper_sweep(seed, rec);
  if (name == "zoo-particle") return zoo_particle(seed, rec);
  if (name == "event-scale") return event_scale(seed, rec);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
