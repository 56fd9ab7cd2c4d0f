// Tests of the ExecutionModel seam (sim/exec_model.hpp).
//
// The BSP half pins the refactor to the pre-seam runtime: a fixed scenario
// must reproduce the RunTrace captured *before* the ExecutionModel seam
// existed, bit for bit (hexfloat literals below).  The event half checks
// the discrete-event model's structural envelope — finite non-negative
// times, per-rank timeline contiguity, the critical-path lower bound —
// plus the paper's headline result (the heterogeneous partitioner beats
// the homogeneous baseline) and the Chrome-trace export.  Both models
// price ghost exchange from the executor's per-partition flow cache, which
// must follow every partition change.

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "core/ssamr.hpp"
#include "sim/bsp_model.hpp"
#include "sim/event_executor.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ssamr {
namespace {

TraceConfig small_trace() {
  TraceConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0);
  cfg.max_levels = 3;
  cfg.cluster.min_box_size = 2;
  cfg.cluster.small_box_cells = 64;
  return cfg;
}

RuntimeConfig small_runtime(int iters, int sensing, ExecModelKind model) {
  RuntimeConfig cfg;
  cfg.total_iterations = iters;
  cfg.regrid_interval = 5;
  cfg.sensing.interval = sensing;
  cfg.executor.ncomp = 1;
  cfg.executor.ghost = 1;
  cfg.exec_model = model;
  return cfg;
}

/// 4 ranks, one ramping background load.
Cluster ramped_cluster() {
  Cluster cluster = Cluster::homogeneous(4);
  LoadRamp ramp;
  ramp.rate = 0.01;
  ramp.target_level = 2.0;
  cluster.add_load(1, ramp);
  return cluster;
}

/// The determinism-suite scenario: the ramped cluster, sensing every 5
/// iterations.
RunTrace run_scenario(ExecModelKind model) {
  Cluster cluster = ramped_cluster();
  TraceWorkloadSource source(small_trace());
  HeterogeneousPartitioner part;
  AdaptiveRuntime rt(cluster, source, part, small_runtime(20, 5, model));
  return rt.run();
}

TEST(ExecModel, NamesRoundTrip) {
  EXPECT_STREQ(exec_model_name(ExecModelKind::kBsp), "bsp");
  EXPECT_STREQ(exec_model_name(ExecModelKind::kEvent), "event");
  EXPECT_STREQ(exec_model_name(ExecModelKind::kProc), "proc");
  EXPECT_EQ(parse_exec_model_name("bsp"), ExecModelKind::kBsp);
  EXPECT_EQ(parse_exec_model_name("event"), ExecModelKind::kEvent);
  EXPECT_EQ(parse_exec_model_name("proc"), ExecModelKind::kProc);
  EXPECT_THROW(parse_exec_model_name("fluid"), Error);
}

// Golden values captured from the pre-seam runtime (commit 63b07ad) on the
// scenario above.  The BSP model must reproduce them bit for bit: any
// deviation means the refactor changed the arithmetic, not just its home.
TEST(ExecModel, BspReproducesPreSeamTraceBitExactly) {
  const RunTrace t = run_scenario(ExecModelKind::kBsp);
  EXPECT_EQ(t.model, "bsp");
  EXPECT_EQ(t.total_time, Seconds{0x1.1a2d6c074fcbfp+3});
  EXPECT_EQ(t.compute_time, Seconds{0x1.c70511006938bp-2});
  EXPECT_EQ(t.comm_time, Seconds{0x1.8956164de0f56p-7});
  EXPECT_EQ(t.sense_time, Seconds{0x1p+3});
  EXPECT_EQ(t.regrid_time, Seconds{0x1.4cccccccccccep-2});
  EXPECT_EQ(t.migrate_time, Seconds{0x1.2c879352a386dp-5});
  ASSERT_EQ(t.regrids.size(), 4u);
  ASSERT_EQ(t.senses.size(), 4u);
  EXPECT_EQ(t.iterations, 20);
  EXPECT_EQ(t.regrids.back().vtime, Seconds{0x1.16cd476e0311ap+3});
  EXPECT_EQ(t.regrids.back().splits, 3);
  EXPECT_EQ(t.regrids.back().num_boxes, 17u);
}

/// FNV-1a (64-bit) over every span (rank, kind, iteration, t0/t1 bit
/// patterns) and every rank's busy/comm/idle bit patterns, in trace order:
/// one number that moves when any lane records anything differently.
std::uint64_t lane_hash(const RunTrace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_s = [&mix](Seconds s) {
    mix(std::bit_cast<std::uint64_t>(s.value()));
  };
  for (const TraceSpan& s : t.spans) {
    mix(static_cast<std::uint64_t>(s.rank));
    mix(static_cast<std::uint64_t>(s.kind));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.iteration)));
    mix_s(s.t0);
    mix_s(s.t1);
  }
  for (const RankUsage& u : t.rank_usage) {
    mix_s(u.busy_s);
    mix_s(u.comm_s);
    mix_s(u.idle_s);
  }
  return h;
}

// Span pins: the lane hash of the scenario above, captured before the
// per-rank lanes moved from the models into the ExecutionModel base.  The
// totals pinned above cannot see a span that moved, split or changed kind.
TEST(ExecModel, BspSpansMatchPin) {
  const RunTrace t = run_scenario(ExecModelKind::kBsp);
  EXPECT_EQ(t.spans.size(), 272u);
  EXPECT_EQ(lane_hash(t), 0x384df44697bd29f0ULL);
}

TEST(ExecModel, EventSpansMatchPin) {
  const RunTrace t = run_scenario(ExecModelKind::kEvent);
  EXPECT_EQ(t.spans.size(), 143u);
  EXPECT_EQ(lane_hash(t), 0xb77b32b4c93b9e07ULL);
}

/// Structural envelope every model must satisfy.
void check_envelope(const RunTrace& t) {
  EXPECT_EQ(t.num_ranks, 4);
  ASSERT_EQ(t.rank_usage.size(), 4u);
  EXPECT_FALSE(t.spans.empty());

  EXPECT_TRUE(std::isfinite(t.total_time.value()));
  EXPECT_GT(t.total_time, Seconds{0.0});
  for (const RankUsage& u : t.rank_usage) {
    EXPECT_TRUE(std::isfinite(u.busy_s.value()) && u.busy_s >= Seconds{0});
    EXPECT_TRUE(std::isfinite(u.comm_s.value()) && u.comm_s >= Seconds{0});
    EXPECT_TRUE(std::isfinite(u.idle_s.value()) && u.idle_s >= Seconds{0});
    // The run is at least as long as any rank's busy time, and each
    // rank's timeline is contiguous: busy + comm + idle covers the run.
    EXPECT_GE(t.total_time, u.busy_s - Seconds{1e-9});
    EXPECT_NEAR((u.busy_s + u.comm_s + u.idle_s).value(),
                t.total_time.value(), 1e-6);
  }
  for (const TraceSpan& s : t.spans) {
    EXPECT_TRUE(std::isfinite(s.t0.value()) && std::isfinite(s.t1.value()));
    EXPECT_LE(s.t0, s.t1);
    EXPECT_GE(s.t0, Seconds{0.0});
    EXPECT_GE(s.rank, 0);
    EXPECT_LE(s.rank, t.num_ranks);  // == num_ranks: monitor lane
    // Rank spans end by the run end; the monitor lane may outlast it
    // (overlapped sweeps keep probing while ranks already finished).
    if (s.rank < t.num_ranks) {
      EXPECT_LE(s.t1, t.total_time + Seconds{1e-9});
    }
  }
}

TEST(ExecModel, BspFillsTimelineEnvelope) {
  check_envelope(run_scenario(ExecModelKind::kBsp));
}

TEST(ExecModel, EventSatisfiesTimelineEnvelope) {
  const RunTrace t = run_scenario(ExecModelKind::kEvent);
  EXPECT_EQ(t.model, "event");
  check_envelope(t);
  EXPECT_EQ(t.iterations, 20);
  EXPECT_EQ(t.regrids.size(), 4u);
}

TEST(ExecModel, EventOverlapsSensingWithExecution) {
  // Same scenario under both models: the event model hides the probe
  // sweeps behind execution (sense_time is recorded but not serialized
  // into the critical path), so it must finish strictly sooner.
  const RunTrace bsp = run_scenario(ExecModelKind::kBsp);
  const RunTrace event = run_scenario(ExecModelKind::kEvent);
  EXPECT_GT(bsp.sense_time, Seconds{0.0});
  EXPECT_DOUBLE_EQ(event.sense_time.value(),
                   bsp.sense_time.value());  // cost still known
  EXPECT_LT(event.total_time, bsp.total_time);
}

TEST(ExecModel, EventDeterministicAcrossThreadCounts) {
  ThreadPoolOverride serial(1);
  const RunTrace baseline = run_scenario(ExecModelKind::kEvent);
  for (const int threads : {2, 8}) {
    ThreadPoolOverride ov(threads);
    const RunTrace t = run_scenario(ExecModelKind::kEvent);
    EXPECT_TRUE(t == baseline) << "event model diverged at " << threads
                               << " threads";
  }
}

TEST(ExecModel, EventHeterogeneousBeatsDefaultUnderLoad) {
  // Paper Fig. 7 shape under the message-level model: with two loaded
  // nodes, capacity-aware partitioning beats equal shares.
  auto run_with = [](const Partitioner& p) {
    Cluster cluster = Cluster::homogeneous(4);
    LoadRamp heavy;
    heavy.rate = 0;  // rate 0: at the target level from the start
    heavy.target_level = 2.0;
    heavy.memory_mb = MegaBytes{100};
    cluster.add_load(1, heavy);
    cluster.add_load(2, heavy);
    TraceWorkloadSource source(small_trace());
    AdaptiveRuntime rt(cluster, source, p,
                       small_runtime(20, 0, ExecModelKind::kEvent));
    return rt.run();
  };
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  const RunTrace t_het = run_with(het);
  const RunTrace t_def = run_with(def);
  EXPECT_LT(t_het.total_time, t_def.total_time);
}

/// The partition sequence A, A, B, B, A, C on 4 ranks that a model's ghost-
/// flow cache must follow: B has A's boxes with one owner changed, picked
/// so that both the flows and the per-rank comm times differ from A's, and
/// C has another epoch's boxes.
std::vector<PartitionResult> flow_cache_sequence(const VirtualExecutor& exec) {
  const ExecutorConfig& cfg = exec.config();
  SyntheticAmrTrace trace(small_trace());
  HeterogeneousPartitioner part;
  const std::vector<real_t> caps(4, 0.25);
  const PartitionResult a =
      part.partition(trace.boxes_at_epoch(10), caps, WorkModel{});
  const PartitionResult c =
      part.partition(trace.boxes_at_epoch(30), caps, WorkModel{});
  const auto boxes = [](const PartitionResult& r) {
    std::vector<Box> out;
    for (const BoxAssignment& x : r.assignments) out.push_back(x.box);
    return out;
  };
  EXPECT_NE(boxes(a), boxes(c));
  const auto flows = [&](const PartitionResult& r) {
    return pairwise_comm_bytes(r, cfg.ghost, cfg.ncomp);
  };
  PartitionResult b = a;
  bool found = false;
  for (std::size_t i = 0; i < b.assignments.size() && !found; ++i) {
    b = a;
    b.assignments[i].owner = (b.assignments[i].owner + 1) % 4;
    found = flows(b) != flows(a) &&
            exec.effective_comm_times(flows(b), Seconds{0}) !=
                exec.effective_comm_times(flows(a), Seconds{0});
  }
  EXPECT_TRUE(found) << "no single owner change moves the ghost flows";
  return {a, a, b, b, a, c};
}

TEST(ExecModel, BspFlowCacheFollowsPartitionChanges) {
  const Cluster cluster = ramped_cluster();
  const ExecutorConfig cfg;
  sim::BspModel model(cluster, cfg);
  const VirtualExecutor& exec = model.costs();
  Seconds t{0};
  int iteration = 0;
  for (const PartitionResult& r : flow_cache_sequence(exec)) {
    SCOPED_TRACE(iteration);
    // The closed form of BspModel::advance on the uncached comm times.
    const std::vector<Seconds> comp = exec.compute_times(r, t);
    const std::vector<Seconds> comm = exec.effective_comm_times(
        pairwise_comm_bytes(r, cfg.ghost, cfg.ncomp), t);
    Seconds worst{0};
    std::size_t worst_k = 0;
    for (std::size_t k = 0; k < comp.size(); ++k) {
      if (comp[k] + comm[k] > worst) {
        worst = comp[k] + comm[k];
        worst_k = k;
      }
    }
    const StepCost expected{worst, comp[worst_k], worst - comp[worst_k]};
    const StepCost got = model.advance(r, t, iteration++);
    EXPECT_EQ(got, expected);
    EXPECT_EQ(exec.cached_ghost_flows(),
              pairwise_comm_bytes(r, cfg.ghost, cfg.ncomp));
    t += got.elapsed;
  }
}

TEST(ExecModel, EventFlowCacheFollowsPartitionChanges) {
  const Cluster cluster = ramped_cluster();
  const ExecutorConfig cfg;
  sim::EventExecutor model(cluster, cfg);
  Seconds t{0};
  int iteration = 0;
  for (const PartitionResult& r : flow_cache_sequence(model.costs())) {
    SCOPED_TRACE(iteration);
    t += model.advance(r, t, iteration++).elapsed;
    EXPECT_EQ(model.costs().cached_ghost_flows(),
              pairwise_comm_bytes(r, cfg.ghost, cfg.ncomp));
  }
}

TEST(ExecModel, ChromeTraceExportsWellFormedEvents) {
  const RunTrace t = run_scenario(ExecModelKind::kEvent);
  std::ostringstream os;
  sim::write_chrome_trace(os, t);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"event\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compute\""), std::string::npos);
  EXPECT_NE(json.find("rank 0"), std::string::npos);
  EXPECT_NE(json.find("monitor"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity; full JSON parsing
  // is exercised by the trace_check.py ctest entry.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace ssamr
