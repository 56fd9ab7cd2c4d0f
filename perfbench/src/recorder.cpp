#include "recorder.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <queue>
#include <sstream>

namespace perfbench {

double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {
volatile int g_calibration_sink = 0;
}  // namespace

double calibration_kernel() {
  static std::vector<std::array<int, 3>> triples(25000);
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double t0 = now_s();
  for (auto& e : triples) {
    const std::uint64_t r = next();
    e = {static_cast<int>(r & 1023), static_cast<int>((r >> 10) & 1023),
         static_cast<int>((r >> 20) & 1023)};
  }
  std::sort(triples.begin(), triples.end());
  std::priority_queue<std::pair<double, int>> heap;
  for (int i = 0; i < 30000; ++i) {
    heap.push({static_cast<double>(next() % 100000), i});
    if (heap.size() > 4096) heap.pop();
  }
  const double t1 = now_s();
  // Keep the results observable so the work cannot be elided.
  g_calibration_sink = triples[7][0] + heap.top().second;
  return t1 - t0;
}

namespace {

void fnv_mix(std::uint64_t& h, std::uint64_t u) {
  for (int b = 0; b < 8; ++b) {
    h ^= (u >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

std::uint64_t checksum_assignments(std::uint64_t h,
                                   const ssamr::PartitionResult& r) {
  const auto mix = [&h](std::int64_t v) {
    fnv_mix(h, static_cast<std::uint64_t>(v));
  };
  for (const ssamr::BoxAssignment& a : r.assignments) {
    const ssamr::IntVec lo = a.box.lo();
    const ssamr::IntVec hi = a.box.hi();
    mix(lo.x), mix(lo.y), mix(lo.z), mix(hi.x), mix(hi.y), mix(hi.z);
    mix(a.box.level());
    mix(a.owner);
  }
  return h;
}

Recorder::Recorder(bool traced) : traced_(traced) {
  now_s();  // pin the clock origin before any measurement
  watchdog_ = std::thread([this] { watch(); });
}

Recorder::~Recorder() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  watchdog_.join();
}

int Recorder::span_begin(const char* name) {
  if (!traced_) return -1;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      Span{name, t, t, open_.empty() ? -1 : open_.back(), regrid_});
  open_.push_back(id);
  return id;
}

void Recorder::span_end(int id) {
  if (id < 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t;
  open_.pop_back();
}

void Recorder::set_regrid(int id) {
  std::lock_guard<std::mutex> lk(mu_);
  regrid_ = id;
}

void Recorder::op_begin() {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  op_open_ = true;
  op_t0_ = t;
}

void Recorder::op_end(bool ok, const std::string& why) {
  std::lock_guard<std::mutex> lk(mu_);
  op_open_ = false;
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(why);
  }
}

void Recorder::add_window(double wall_s, std::int64_t iterations) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  window_.insert(window_.end(),
                 {t, wall_s, static_cast<double>(iterations)});
}

void Recorder::add_regrid_ms(double ms) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  regrid_ms_.insert(regrid_ms_.end(), {t, ms});
}

void Recorder::maybe_calibrate() {
  constexpr double kCadenceS = 0.1;
  const double t = now_s();
  if (last_calibration_ >= 0 && t - last_calibration_ < kCadenceS) return;
  const double s = calibration_kernel();
  last_calibration_ = now_s();
  std::lock_guard<std::mutex> lk(mu_);
  calibration_.insert(calibration_.end(), {t, s});
}

void Recorder::set_setup(double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  setup_s_ = seconds;
}

void Recorder::finish() {
  std::string line;
  {
    std::lock_guard<std::mutex> lk(mu_);
    line = report_locked();
  }
  std::fputs(line.c_str(), stdout);
  std::fflush(stdout);
}

void Recorder::watch() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(20));
    if (stop_ || !op_open_ || now_s() - op_t0_ <= kDeadlineS) continue;
    // The workload thread is stuck inside a library call and holds no
    // lock: count the stalled operation, report what completed, and end
    // the process (the call cannot be interrupted any other way).
    op_open_ = false;
    ++attempted_;
    ++failed_;
    failures_.push_back("deadline");
    const std::string line = report_locked();
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);
    std::_Exit(0);
  }
}

namespace {

void json_list(std::ostringstream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  os << ']';
}

std::string fmt10(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

std::string Recorder::report_locked() const {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::ostringstream os;
  os.precision(17);
  os << "{\"setup_s\":" << setup_s_
     << ",\"rss_mb\":" << static_cast<double>(ru.ru_maxrss) / 1024.0
     << ",\"calibration\":";
  json_list(os, calibration_);
  os << ",\"window\":";
  json_list(os, window_);
  os << ",\"regrid_ms\":";
  json_list(os, regrid_ms_);
  os << ",\"attempted\":" << attempted_
     << ",\"failed\":" << failed_
     << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? "," : "") << '"' << failures_[i] << '"';
  char sum[32];
  std::snprintf(sum, sizeof sum, "%016" PRIx64, out_.checksum);
  const double vpi =
      out_.virtual_iters > 0 ? out_.virtual_s / out_.virtual_iters : 0;
  const double imb = out_.imbalance_runs > 0
                         ? out_.imbalance_sum / out_.imbalance_runs
                         : 0;
  const double eff = out_.balance_regrids > 0
                         ? out_.balance_sum / out_.balance_regrids
                         : 0;
  os << "],\"det\":{\"virtual_s_per_iter\":\"" << fmt10(vpi)
     << "\",\"imbalance_pct\":\"" << fmt10(imb)
     << "\",\"balance_eff_pct\":\"" << fmt10(eff)
     << "\",\"events\":" << out_.events << ",\"checksum\":\"" << sum
     << "\"},\"counters\":{\"box_requests\":" << out_.box_requests
     << ",\"boxes\":" << out_.boxes
     << ",\"distinct_epochs\":" << out_.distinct_epochs
     << ",\"regrids\":" << out_.regrids << ",\"splits\":" << out_.splits
     << ",\"probes\":" << out_.probes
     << ",\"probe_attempts\":" << out_.probe_attempts
     << ",\"events\":" << out_.events
     << ",\"key_candidates\":" << out_.key_candidates
     << ",\"key_hits\":" << out_.key_hits << "},\"layers\":{";

  // Per call name, flattened (end time, duration ms, self ms, regrid id)
  // records; self time is the span's duration minus the time its children
  // cover.
  std::map<std::string, std::vector<double>> calls;
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    calls[s.name].insert(calls[s.name].end(),
                         {s.t1, (s.t1 - s.t0) * 1e3,
                          (s.t1 - s.t0 - child[i]) * 1e3,
                          static_cast<double>(s.regrid)});
  }
  bool first = true;
  for (const auto& [name, ms] : calls) {
    os << (first ? "" : ",") << '"' << name << "\":";
    json_list(os, ms);
    first = false;
  }
  os << "}}\n";
  return os.str();
}

}  // namespace perfbench
