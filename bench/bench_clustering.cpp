/// \file bench_clustering.cpp
/// Microbenchmarks of box generation: Berger–Rigoutsos clustering on
/// interface-band flag clouds like the ones regridding produces, the whole
/// synthetic trace step (flag, cluster, clip, coalesce) and coalescing.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "amr/cluster_br.hpp"
#include "amr/trace_generator.hpp"
#include "core/experiment.hpp"
#include "geom/box_algebra.hpp"

namespace {

using namespace ssamr;

/// A perturbed planar band of flags, n_y × n_z columns of ~2w cells.
std::vector<IntVec> band_flags(coord_t ny, coord_t nz, real_t amplitude) {
  std::vector<IntVec> flags;
  for (coord_t k = 0; k < nz; ++k)
    for (coord_t j = 0; j < ny; ++j) {
      const real_t xs =
          32.0 + amplitude * std::sin(2.0 * 3.14159 * j / ny) +
          0.5 * amplitude * std::cos(2.0 * 3.14159 * k / nz);
      for (coord_t i = static_cast<coord_t>(xs) - 2;
           i <= static_cast<coord_t>(xs) + 2; ++i)
        flags.emplace_back(i, j, k);
    }
  return flags;
}

void BM_ClusterPlanarBand(benchmark::State& state) {
  const auto flags =
      band_flags(state.range(0), state.range(0), /*amplitude=*/0.0);
  ClusterConfig cfg;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 1, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
  state.counters["flags"] = static_cast<double>(flags.size());
}
BENCHMARK(BM_ClusterPlanarBand)->Arg(16)->Arg(32)->Arg(64);

void BM_ClusterWavyBand(benchmark::State& state) {
  const auto flags =
      band_flags(state.range(0), state.range(0), /*amplitude=*/6.0);
  ClusterConfig cfg;
  cfg.efficiency = 0.55;
  cfg.small_box_cells = 4096;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 2, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
  state.counters["flags"] = static_cast<double>(flags.size());
}
BENCHMARK(BM_ClusterWavyBand)->Arg(16)->Arg(32)->Arg(64);

void BM_ClusterEfficiencySweep(benchmark::State& state) {
  const auto flags = band_flags(32, 32, 6.0);
  ClusterConfig cfg;
  cfg.efficiency = static_cast<real_t>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 1, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
}
BENCHMARK(BM_ClusterEfficiencySweep)->Arg(30)->Arg(55)->Arg(70)->Arg(90);

// One regrid of the paper's RM3D trace: band flagging, clustering at three
// levels, clipping and coalescing -- the box-generation step every
// runtime-driven experiment repeats.
void BM_TraceBoxesAtEpoch(benchmark::State& state) {
  const SyntheticAmrTrace trace(exp::paper_trace_config());
  const int epoch = static_cast<int>(state.range(0));
  std::size_t boxes = 0;
  for (auto _ : state) {
    const BoxList list = trace.boxes_at_epoch(epoch);
    boxes = list.size();
    benchmark::DoNotOptimize(list.boxes().data());
  }
  state.counters["boxes"] = static_cast<double>(boxes);
}
BENCHMARK(BM_TraceBoxesAtEpoch)->Arg(0)->Arg(20)->Arg(39);

// An n x n x 1 lattice of 4^3 boxes, listed back to front so most merges
// are found late in the scan; coalesces into a single box.
void BM_Coalesce(benchmark::State& state) {
  const auto n = static_cast<coord_t>(state.range(0));
  std::vector<Box> lattice;
  for (coord_t i = 0; i < n; ++i)
    for (coord_t j = 0; j < n; ++j)
      lattice.push_back(
          Box::from_extent(IntVec(4 * i, 4 * j, 0), IntVec(4, 4, 4), 1));
  std::reverse(lattice.begin(), lattice.end());
  for (auto _ : state) {
    auto merged = coalesce(lattice);
    benchmark::DoNotOptimize(merged.data());
  }
  state.counters["boxes"] = static_cast<double>(lattice.size());
}
BENCHMARK(BM_Coalesce)->Arg(8)->Arg(16);

/// Box 0 grows strip by strip, each strip arriving as two halves behind n
/// boxes that merge with nothing.  Every strip merges into box 0, so a scan
/// that rescans the rows it skipped over pays O(n) rows per merge.
void BM_CoalesceStrips(benchmark::State& state) {
  const auto n = static_cast<coord_t>(state.range(0));
  std::vector<Box> boxes{Box(IntVec(0, 0, 0), IntVec(0, 1, 0), 1)};
  for (coord_t k = 0; k < n; ++k)
    boxes.emplace_back(IntVec(0, 0, 2 * k + 2), IntVec(0, 0, 2 * k + 2), 1);
  for (coord_t s = 1; s <= n; ++s) {
    boxes.emplace_back(IntVec(s, 0, 0), IntVec(s, 0, 0), 1);
    boxes.emplace_back(IntVec(s, 1, 0), IntVec(s, 1, 0), 1);
  }
  for (auto _ : state) {
    auto merged = coalesce(boxes);
    benchmark::DoNotOptimize(merged.data());
  }
  state.counters["boxes"] = static_cast<double>(boxes.size());
}
BENCHMARK(BM_CoalesceStrips)->Arg(32)->Arg(64);

}  // namespace
