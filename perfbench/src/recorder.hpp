#pragma once
/// \file recorder.hpp
/// What one harness process measures, and the deadline that bounds it.
///
/// The Recorder owns the process's whole report: the timed window
/// (wall seconds and coarse iterations), the regrid stall samples, the
/// operation tally (attempted / failed), the deterministic outputs that
/// run.py compares against its pins, the layer counters, and — in a
/// traced process — the spans recorded around every call into a layer.
/// Spans stay in memory and are written once, when the process ends.
///
/// Every operation runs under a deadline.  A watchdog thread wakes every
/// few milliseconds; when the open operation is older than kDeadlineS it
/// counts that operation as failed, writes the report of everything that
/// completed, and ends the process.  The stalled call cannot be cancelled
/// from outside, so ending the process is the only way to stop it.
///
/// All state is guarded by one mutex.  The workload thread takes it only
/// for bookkeeping between library calls, never across one, so the
/// watchdog can always take it while a call is stuck.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "partition/partitioner.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// Run the fixed calibration kernel once and return its wall seconds.
/// The kernel (a sort of integer triples and a bounded priority-queue
/// churn, about 4 ms) uses no library code, so a change to the library
/// cannot move it; it slows with the host exactly when the workloads do,
/// because both are bound by the cache and memory system that co-tenants
/// share.  run.py scales every timing by it (see README.md).
double calibration_kernel();

/// FNV-1a over every assignment (box corners, level, owner) of `r`,
/// chained onto `h`.
std::uint64_t checksum_assignments(std::uint64_t h,
                                   const ssamr::PartitionResult& r);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Per-operation deadline (seconds).  The longest healthy operation (a
/// layer replay, or a regrid with its audit) takes about 0.1 s; a host
/// slowdown of several times stays far below this.
inline constexpr double kDeadlineS = 1.0;

/// One recorded call into a layer.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "amr.gen"
  double t0 = 0;
  double t1 = 0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
  int regrid = -1;  ///< id of the regrid the call served, -1 outside one
};

/// Deterministic outputs and counters; identical on every process that
/// runs the same workload and seed, traced or not.
struct Outputs {
  double virtual_s = 0;            ///< simulated application time
  std::int64_t virtual_iters = 0;  ///< coarse iterations it covers
  double imbalance_sum = 0;        ///< sum over runs of mean max I_k
  std::int64_t imbalance_runs = 0;
  double balance_sum = 0;          ///< sum over regrids of efficiency %
  std::int64_t balance_regrids = 0;
  std::uint64_t checksum = kFnvBasis;  ///< over every regrid's assignments
  std::int64_t box_requests = 0;
  std::int64_t boxes = 0;           ///< summed box-list sizes
  std::int64_t distinct_epochs = 0; ///< distinct (config, epoch) requests
  std::int64_t regrids = 0;
  std::int64_t splits = 0;
  std::int64_t probes = 0;
  std::int64_t probe_attempts = 0;
  std::int64_t events = 0;          ///< fluid-network events processed
  std::int64_t key_candidates = 0;
  std::int64_t key_hits = 0;
};

class Recorder {
 public:
  explicit Recorder(bool traced);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Open a span (traced processes only; returns -1 otherwise).
  int span_begin(const char* name);
  void span_end(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(Recorder& rec, const char* name)
        : rec_(rec), id_(rec.span_begin(name)) {}
    ~Scope() { rec_.span_end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    int id_;
  };

  /// Regrid id stamped on spans opened from now on (-1 = none).
  void set_regrid(int id);

  /// Start an operation under the deadline; closes none.
  void op_begin();
  /// Close the open operation; `ok` false counts it failed with `why`.
  void op_end(bool ok, const std::string& why = {});

  /// Add a completed piece of the timed window, ending now, and the
  /// coarse iterations it ran.
  void add_window(double wall_s, std::int64_t iterations);
  /// Add one regrid stall, ending now.
  void add_regrid_ms(double ms);
  void set_setup(double seconds);
  /// Run the calibration kernel if the last run is older than the
  /// cadence.  Call only off the clock.
  void maybe_calibrate();

  /// Mutate the deterministic outputs under the lock.
  template <typename F>
  void outputs(F&& f) {
    std::lock_guard<std::mutex> lk(mu_);
    f(out_);
  }

  /// Write the report line to stdout (normal completion).
  void finish();

 private:
  void watch();
  /// Report as one JSON line; caller holds mu_.
  std::string report_locked() const;

  const bool traced_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool op_open_ = false;
  double op_t0_ = 0;
  double setup_s_ = 0;
  double last_calibration_ = -1;
  /// Flattened (time, seconds) calibration samples.
  std::vector<double> calibration_;
  /// Flattened (end time, wall seconds, iterations) window pieces.
  std::vector<double> window_;
  /// Flattened (end time, ms) regrid stalls.
  std::vector<double> regrid_ms_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  Outputs out_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indices
  int regrid_ = -1;
  std::thread watchdog_;  // last: it reads every member above
};

}  // namespace perfbench
