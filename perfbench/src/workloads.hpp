#pragma once
/// \file workloads.hpp
/// The benchmark's workloads (see perfbench/README.md for why each exists).

#include <cstdint>
#include <string>

#include "recorder.hpp"

namespace perfbench {

/// Run one repetition of workload `name` ("paper-sweep", "zoo-particle"
/// or "event-scale") with inputs derived from `seed`,
/// reporting into `rec`.  Throws std::invalid_argument on an unknown name.
void run_workload(const std::string& name, std::uint64_t seed, Recorder& rec);

}  // namespace perfbench
