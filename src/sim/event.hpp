#pragma once
/// \file event.hpp
/// Typed events of the virtual-cluster simulation.
///
/// The event model decomposes a run into four event families: compute
/// spans (a rank updating its patches), point-to-point transfers (ghost
/// exchange and data migration), probe sweeps (the resource monitor
/// querying every node), and regrid/repartition barriers.  Compute spans,
/// sweeps and barriers are recorded directly on the per-rank timelines
/// (timeline.hpp) as TraceSpans.  Only transfers need a type of their own:
/// they flow through the fluid network simulation (message_sim.hpp), which
/// resolves endpoint bandwidth contention before their completion times
/// are known.

#include <cstdint>

#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr::sim {

/// One point-to-point transfer (a ghost-exchange or migration message).
struct Transfer {
  int src = 0;
  int dst = 0;
  Bytes bytes{0};
  /// When the payload is handed to the NIC (absolute virtual time).
  Seconds post_time{0};
  /// Completion time, filled in by the fluid network simulation
  /// (simulate_transfers or simulate_transfers_indexed).
  Seconds finish_time{0};
};

}  // namespace ssamr::sim
