// Bit-identity pins for the library's one SFC cut walk and the LPT seed.
//
// DistributedSfcPrefix must produce the *same bytes* as the historical
// global-view SfcHeterogeneous body on every input, at every shard count
// and every thread count — same assignments, same splits, same
// assigned_work doubles.  The zoo entries folded onto shared kernels
// (`sfc-heterogeneous` = one shard, `default` = the walk over unit
// capacities, `greedy` = the LPT seed knapsack refines) must reproduce
// the bodies they replaced, kept below as test-local oracles, on the
// paper trace.  The CMake side re-runs this binary under
// SSAMR_THREADS=1/2/8 so the shard-parallel key/sort phase is exercised
// across pool widths.
//
// PartitionResult::operator== is defaulted member-wise equality over
// doubles and boxes, so EXPECT_EQ(a, b) is a bit-exact FP comparison, not
// a tolerance check, and it includes the order of the assignments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "amr/particles.hpp"
#include "amr/trace_generator.hpp"
#include "core/experiment.hpp"
#include "partition/distributed_sfc.hpp"
#include "partition/zoo.hpp"
#include "sfc/sfc_index.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr {

// gtest prints a mismatching PartitionResult through this (found by ADL).
void PrintTo(const PartitionResult& r, std::ostream* os) {
  *os << r.assignments.size() << " assignments, " << r.splits
      << " splits, W_k =";
  for (real_t w : r.assigned_work) *os << ' ' << w;
}

namespace {

const WorkModel kIntWork{2, Work{1.0}};

// ---- historical bodies, kept as oracles ------------------------------------

/// assign_sequence before the walk took its callers' prices: every loop
/// turn prices the in-flight box itself, so a split remainder is always
/// repriced and a whole box is priced again after each skip to the next
/// rank.
PartitionResult self_pricing_walk_oracle(const std::vector<Box>& ordered,
                                         const std::vector<real_t>& targets,
                                         const std::vector<rank_t>& proc_order,
                                         const WorkModel& work) {
  const PartitionConstraints constraints;
  const std::size_t nproc = targets.size();
  PartitionResult result;
  result.assigned_work.assign(nproc, 0);
  result.target_work.assign(nproc, 0);
  for (std::size_t p = 0; p < nproc; ++p)
    result.target_work[static_cast<std::size_t>(proc_order[p])] = targets[p];
  std::size_t p = 0;
  for (const Box& box : ordered) {
    Box cur = box;
    for (;;) {
      const rank_t rank = proc_order[p];
      real_t& assigned = result.assigned_work[static_cast<std::size_t>(rank)];
      const bool last = (p + 1 == nproc);
      if (!last && assigned >= targets[p]) {
        ++p;
        continue;
      }
      const real_t w = box_work(cur, work);
      const real_t remaining = targets[p] - assigned;
      if (last || w <= remaining) {
        result.assignments.push_back({cur, rank});
        assigned += w;
        break;
      }
      const auto pieces = split_for_work(cur, remaining, work, constraints);
      if (pieces) {
        ++result.splits;
        result.assignments.push_back({pieces->first, rank});
        assigned += box_work(pieces->first, work);
        cur = pieces->second;
        ++p;
        continue;
      }
      if (remaining >= 0.5 * w) {
        result.assignments.push_back({cur, rank});
        assigned += w;
        ++p;
        break;
      }
      ++p;
    }
  }
  return result;
}

/// SfcHeterogeneousPartitioner::partition before the SFC cut walk became
/// DistributedSfcPartitioner alone: the composite order materialized by
/// sfc_order, capacity-proportional targets in rank order, assign_sequence.
PartitionResult sfc_heterogeneous_oracle(const BoxList& boxes,
                                         const std::vector<real_t>& capacities,
                                         const WorkModel& work) {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  for (real_t c : capacities)
    SSAMR_REQUIRE(c >= 0, "capacities must be non-negative");
  const real_t cap_sum =
      std::accumulate(capacities.begin(), capacities.end(), real_t{0});
  SSAMR_REQUIRE(cap_sum > 0, "capacities must not all be zero");
  const std::size_t nproc = capacities.size();

  const auto perm = sfc_order(boxes.boxes(), SfcConfig{});
  std::vector<Box> ordered;
  ordered.reserve(boxes.size());
  for (std::size_t i : perm) ordered.push_back(boxes[i]);

  const real_t total = total_work(boxes, work);
  std::vector<real_t> targets(nproc);
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});
  for (std::size_t p = 0; p < nproc; ++p)
    targets[p] = total * capacities[p] / cap_sum;

  return self_pricing_walk_oracle(ordered, targets, proc_order, work);
}

/// GraceDefaultPartitioner::partition before it ran on the SFC cut walk:
/// equal targets total / P, capacities ignored but for their count.
PartitionResult grace_default_oracle(const BoxList& boxes,
                                     const std::vector<real_t>& capacities,
                                     const WorkModel& work) {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  const std::size_t nproc = capacities.size();

  const auto perm = sfc_order(boxes.boxes(), SfcConfig{});
  std::vector<Box> ordered;
  ordered.reserve(boxes.size());
  for (std::size_t i : perm) ordered.push_back(boxes[i]);

  const real_t total = total_work(boxes, work);
  std::vector<real_t> targets(nproc, total / static_cast<real_t>(nproc));
  std::vector<rank_t> proc_order(nproc);
  std::iota(proc_order.begin(), proc_order.end(), rank_t{0});

  return self_pricing_walk_oracle(ordered, targets, proc_order, work);
}

/// GreedyPartitioner::partition before its walk became the LPT seed it
/// shares with knapsack: largest box first onto the relatively
/// least-loaded rank, emitted and summed in placement order.
PartitionResult greedy_oracle(const BoxList& boxes,
                              const std::vector<real_t>& capacities,
                              const WorkModel& work) {
  SSAMR_REQUIRE(!capacities.empty(), "need at least one processor");
  for (real_t c : capacities)
    SSAMR_REQUIRE(c >= 0, "capacities must be non-negative");
  const real_t cap_sum =
      std::accumulate(capacities.begin(), capacities.end(), real_t{0});
  SSAMR_REQUIRE(cap_sum > 0, "capacities must not all be zero");
  const std::size_t nproc = capacities.size();

  std::vector<real_t> works = per_box_work(boxes, work);
  std::vector<std::size_t> order(boxes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return works[a] > works[b];
                   });

  PartitionResult result;
  result.assigned_work.assign(nproc, 0);
  result.target_work.assign(nproc, 0);
  const real_t total = total_work(boxes, work);
  for (std::size_t k = 0; k < nproc; ++k)
    result.target_work[k] = total * capacities[k] / cap_sum;

  for (std::size_t i : order) {
    std::size_t best = 0;
    real_t best_rel = std::numeric_limits<real_t>::infinity();
    for (std::size_t k = 0; k < nproc; ++k) {
      if (capacities[k] <= 0) continue;
      const real_t rel = (result.assigned_work[k] + works[i]) / capacities[k];
      if (rel < best_rel ||
          (rel == best_rel && capacities[k] > capacities[best])) {
        best_rel = rel;
        best = k;
      }
    }
    result.assignments.push_back({boxes[i], static_cast<rank_t>(best)});
    result.assigned_work[best] += works[i];
  }
  return result;
}

// ---- inputs ------------------------------------------------------------------

/// 4x4 lattice of 8^3 boxes plus one refined child (mirrors the
/// differential-harness fixture).
BoxList mixed_boxes() {
  BoxList out;
  for (coord_t i = 0; i < 4; ++i)
    for (coord_t j = 0; j < 4; ++j)
      out.push_back(Box::from_extent(IntVec(i * 8, j * 8, 0),
                                     IntVec(8, 8, 8), 0));
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(16, 16, 16), 1));
  return out;
}

/// Anisotropic boxes of very unequal work across three levels.
BoxList lumpy_boxes() {
  BoxList out;
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(24, 8, 4), 0));
  out.push_back(Box::from_extent(IntVec(32, 0, 0), IntVec(4, 20, 12), 0));
  out.push_back(Box::from_extent(IntVec(48, 0, 0), IntVec(8, 8, 8), 0));
  out.push_back(Box::from_extent(IntVec(0, 32, 0), IntVec(12, 4, 4), 0));
  out.push_back(Box::from_extent(IntVec(8, 8, 0), IntVec(16, 8, 8), 1));
  out.push_back(Box::from_extent(IntVec(96, 0, 0), IntVec(16, 16, 4), 1));
  out.push_back(Box::from_extent(IntVec(40, 40, 8), IntVec(8, 8, 8), 2));
  return out;
}

BoxList single_box() {
  BoxList out;
  out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(32, 8, 8), 0));
  return out;
}

struct Fixture {
  const char* label;
  BoxList boxes;
};

std::vector<Fixture> fixtures() {
  return {{"mixed", mixed_boxes()},
          {"lumpy", lumpy_boxes()},
          {"single_box", single_box()}};
}

std::vector<std::vector<real_t>> capacity_sets() {
  return {{0.16, 0.19, 0.31, 0.34},
          {0.25, 0.25, 0.25, 0.25},
          {0.5, 0.5},
          {0.05, 0.1, 0.15, 0.2, 0.2, 0.3},
          {1.0}};
}

/// Random disjoint multi-level workload on a jittered lattice, sized for
/// the P = 32 sweeps below.
BoxList random_workload(Rng& rng, int boxes_per_side) {
  BoxList out;
  for (coord_t i = 0; i < boxes_per_side; ++i)
    for (coord_t j = 0; j < boxes_per_side; ++j) {
      if (rng.uniform() < 0.15) continue;  // holes
      const IntVec ext(4 + 2 * rng.uniform_int(0, 4),
                       4 + 2 * rng.uniform_int(0, 3),
                       4 + 2 * rng.uniform_int(0, 4));
      out.push_back(Box::from_extent(IntVec(i * 24, j * 24, 0), ext, 0));
      if (rng.uniform() < 0.4)
        out.push_back(Box::from_extent(IntVec(i * 48, j * 48, 0),
                                       IntVec(ext.x, ext.y, 4), 1));
    }
  if (out.empty())
    out.push_back(Box::from_extent(IntVec(0, 0, 0), IntVec(8, 8, 8), 0));
  return out;
}

/// Normalized random capacities of arity n, with occasional heavy skew.
std::vector<real_t> random_capacities(Rng& rng, std::size_t n) {
  std::vector<real_t> caps(n);
  for (auto& c : caps) c = rng.uniform(0.05, 1.0);
  if (n > 1 && rng.uniform() < 0.3) caps[0] = 50.0;
  real_t sum = 0;
  for (real_t c : caps) sum += c;
  for (auto& c : caps) c /= sum;
  return caps;
}

/// Capacities for n ranks, some idle (C_k = 0): rank k idles when
/// k % 5 == 3 or on a one-in-six draw, the others draw from [0.05, 1).
/// Never all idle, and not normalized, so ΣC ≠ 1 is exercised too.
std::vector<real_t> capacities_with_idle_ranks(Rng& rng, std::size_t n) {
  std::vector<real_t> caps(n);
  for (std::size_t k = 0; k < n; ++k)
    caps[k] = (k % 5 == 3 || rng.uniform() < 1.0 / 6) ? 0.0
                                                      : rng.uniform(0.05, 1.0);
  if (std::all_of(caps.begin(), caps.end(), [](real_t c) { return c == 0; }))
    caps[0] = 1.0;
  return caps;
}

/// One regrid of the paper trace with its particle cloud.
struct TraceEpoch {
  BoxList boxes;
  std::unique_ptr<const ParticleField> particles;  ///< stable for WorkModel
};

/// Paper-trace epochs 0–39 with a 4096-particle cloud, generated once.
const std::vector<TraceEpoch>& paper_trace_epochs() {
  static const std::vector<TraceEpoch> epochs = [] {
    TraceConfig cfg = exp::paper_trace_config();
    cfg.particles.count = 4096;
    const SyntheticAmrTrace trace(cfg);
    std::vector<TraceEpoch> out;
    for (int e = 0; e < 40; ++e)
      out.push_back({trace.boxes_at_epoch(e),
                     std::make_unique<const ParticleField>(
                         trace.particles_at_epoch(e))});
    return out;
  }();
  return epochs;
}

using Oracle = PartitionResult (*)(const BoxList&, const std::vector<real_t>&,
                                   const WorkModel&);

/// Zoo entry `id` must equal `oracle` on every paper-trace epoch at
/// P = 1…32 with idle ranks, under a particle-coupled model whose
/// non-dyadic prices make any reordered summation show in the low bits;
/// every fourth epoch also runs the cells-only model on normalized
/// capacities.
void expect_matches_oracle_on_paper_trace(const std::string& id,
                                          Oracle oracle) {
  const auto scheme = make_partitioner(id);
  Rng rng(0x5eed'0f0d);
  const auto& epochs = paper_trace_epochs();
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const BoxList& boxes = epochs[e].boxes;
    WorkModel particle_work{2, Work{0.3}};
    particle_work.cost_per_particle = Work{1.7};
    particle_work.particles = epochs[e].particles.get();
    for (std::size_t nproc = 1; nproc <= 32; ++nproc) {
      SCOPED_TRACE(id + ": epoch " + std::to_string(e) + ", P = " +
                   std::to_string(nproc));
      const auto idle = capacities_with_idle_ranks(rng, nproc);
      ASSERT_EQ(scheme->partition(boxes, idle, particle_work),
                oracle(boxes, idle, particle_work));
      if (e % 4 != 0) continue;
      const auto normalized = random_capacities(rng, nproc);
      ASSERT_EQ(scheme->partition(boxes, normalized, kIntWork),
                oracle(boxes, normalized, kIntWork));
    }
  }
}

TEST(DistributedPartition, BitIdenticalToSfcHeterogeneousOnFixtures) {
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets()) {
      const PartitionResult expect =
          sfc_heterogeneous_oracle(fx.boxes, caps, kIntWork);
      for (const int shards : {1, 2, 3, 8, 16}) {
        SCOPED_TRACE(std::string(fx.label) + "/" +
                     std::to_string(caps.size()) + "procs/" +
                     std::to_string(shards) + "shards");
        const DistributedSfcPartitioner dist(SfcConfig{}, shards);
        EXPECT_TRUE(dist.partition(fx.boxes, caps, kIntWork) == expect);
      }
    }
}

TEST(DistributedPartition, BitIdenticalOnRandomWorkloadsAtP32) {
  Rng rng(0xd157'f00d);
  for (int trial = 0; trial < 12; ++trial) {
    const BoxList boxes = random_workload(rng, 6);
    const auto caps = random_capacities(rng, 32);
    const PartitionResult expect =
        sfc_heterogeneous_oracle(boxes, caps, kIntWork);
    for (const int shards : {1, 4, 16}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + "/" +
                   std::to_string(shards) + "shards");
      const DistributedSfcPartitioner dist(SfcConfig{}, shards);
      EXPECT_TRUE(dist.partition(boxes, caps, kIntWork) == expect);
    }
  }
}

TEST(DistributedPartition, ShardCountNeverChangesTheAnswer) {
  // Shard layout is a pure execution detail: any two shard counts must
  // agree with each other bit-for-bit, including counts far above the box
  // count (clamped internally).
  Rng rng(0xbead'cafe);
  const BoxList boxes = random_workload(rng, 5);
  const auto caps = random_capacities(rng, 7);
  const DistributedSfcPartitioner base(SfcConfig{}, 1);
  const PartitionResult expect = base.partition(boxes, caps, kIntWork);
  for (const int shards : {2, 5, 8, 64, 1024}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const DistributedSfcPartitioner dist(SfcConfig{}, shards);
    EXPECT_TRUE(dist.partition(boxes, caps, kIntWork) == expect);
  }
}

TEST(DistributedPartition, UniformCapacitiesSplitDyadically) {
  // With uniform capacities each target is total/P computed as
  // total * (1/P normalized) — the same expression the oracle uses, so the
  // agreement covers the exactly-representable quantile case too.
  const DistributedSfcPartitioner dist(SfcConfig{}, 4);
  const std::vector<real_t> caps{0.25, 0.25, 0.25, 0.25};
  for (const Fixture& fx : fixtures()) {
    SCOPED_TRACE(fx.label);
    const PartitionResult expect =
        sfc_heterogeneous_oracle(fx.boxes, caps, kIntWork);
    EXPECT_TRUE(dist.partition(fx.boxes, caps, kIntWork) == expect);
  }
}

TEST(DistributedPartition, ParticleCoupledWorkModelAgreesToo) {
  // The carry-chain total must fold particle terms in the same order as
  // total_work; a particle-coupled model exercises that path.
  const Box domain = Box::from_extent(IntVec(0, 0, 0), IntVec(64, 32, 16), 0);
  ParticleCloudConfig cloud;
  cloud.count = 700;
  const ParticleField field =
      ParticleField::gaussian_cloud(domain, cloud, /*center_x=*/0.4);
  WorkModel work{2, Work{1.0}};
  work.cost_per_particle = Work{3.0};
  work.particles = &field;

  const DistributedSfcPartitioner dist(SfcConfig{}, 8);
  for (const Fixture& fx : fixtures())
    for (const auto& caps : capacity_sets()) {
      SCOPED_TRACE(std::string(fx.label) + "/" +
                   std::to_string(caps.size()) + "procs");
      const PartitionResult expect =
          sfc_heterogeneous_oracle(fx.boxes, caps, work);
      EXPECT_TRUE(dist.partition(fx.boxes, caps, work) == expect);
    }
}

TEST(DistributedPartition, SfcHeterogeneousEntryMatchesOracleOnPaperTrace) {
  expect_matches_oracle_on_paper_trace("sfc-heterogeneous",
                                       sfc_heterogeneous_oracle);
}

TEST(DistributedPartition, GraceDefaultMatchesOracleOnPaperTrace) {
  expect_matches_oracle_on_paper_trace("default", grace_default_oracle);
}

TEST(DistributedPartition, GreedyMatchesOracleOnPaperTrace) {
  expect_matches_oracle_on_paper_trace("greedy", greedy_oracle);
}

TEST(DistributedPartition, ZooFactoryResolvesWithLocalViewFlag) {
  const auto p = make_partitioner("distributed-sfc");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name(), "DistributedSfcPrefix");
  bool found = false;
  for (const auto& entry : partitioner_zoo())
    if (std::string(entry.id) == "distributed-sfc") {
      found = true;
      EXPECT_TRUE(entry.local_view);
      EXPECT_TRUE(entry.capacity_aware);
      EXPECT_TRUE(entry.sfc_contiguous);
      EXPECT_TRUE(entry.splits_boxes);
    }
  EXPECT_TRUE(found);
}

TEST(DistributedPartition, RejectsInvalidInputs) {
  EXPECT_THROW(DistributedSfcPartitioner(SfcConfig{}, 0), Error);
  const DistributedSfcPartitioner dist;
  const BoxList boxes = single_box();
  EXPECT_THROW(dist.partition(boxes, {}, kIntWork), Error);
  EXPECT_THROW(dist.partition(boxes, {0.5, -0.5}, kIntWork), Error);
  EXPECT_THROW(dist.partition(boxes, {0.0, 0.0}, kIntWork), Error);
}

}  // namespace
}  // namespace ssamr
