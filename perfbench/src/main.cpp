/// \file main.cpp
/// One benchmark process: one repetition of one workload.
///
///   perfbench --workload <name> --seed <n> [--trace 0|1]
///
/// Prints a single JSON report line on stdout (see recorder.hpp); run.py
/// starts these processes, enforces the run length and aggregates.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "recorder.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") workload = value;
      else if (key == "--seed") seed = std::stoull(value);
      else if (key == "--trace") traced = std::stoi(value) != 0;
      else throw std::invalid_argument("unknown argument " + key);
    }
    // The workloads are measured single-threaded; set before the library's
    // thread pool is first sized.
    setenv("SSAMR_THREADS", "1", 1);
    perfbench::Recorder rec(traced);
    perfbench::run_workload(workload, seed, rec);
    rec.finish();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
