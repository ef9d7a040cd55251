// Shared pieces of the repository benchmark: the run options, wall-clock
// helpers, exact percentiles, the placement digest, span self-time
// attribution over the obs trace buffers, and the result document.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/recorder.hpp"
#include "json/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Size overrides (0 = the workload's default); the self-test uses them
  /// to run every code path at a tiny size.
  int jobs = 0;
  int machines = 0;
  /// Only compute the placement digest of the seed's inputs (one
  /// untraced round, or the daemon's direct replay); no timing.
  bool digest_only = false;
  /// Directory for the daemon's socket and snapshot files.
  std::string scratch_dir = ".bench_build/run";
};

/// Exact percentile by linear interpolation between order statistics
/// (`p` in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);

/// FNV-1a 64 over the exact bytes of what is added.
class Digest {
 public:
  void add_int(long long value);
  void add_double(double value);
  std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Placement digest of a finished run: every job's (id, start, GPUs,
/// placement utility) in id order.
struct JobOutcome {
  int id = 0;
  double arrival = 0.0;
  double start = -1.0;
  double end = -1.0;
  std::vector<int> gpus;
  double utility = 0.0;
};
std::string placement_digest(std::vector<JobOutcome> jobs);
JobOutcome outcome_of(const gts::cluster::JobRecord& record);

/// Simulated-time quality of a finished run (Eq. 2 utility, JCT, waiting
/// time, makespan).
struct Quality {
  double jct_mean_s = 0.0;
  double wait_mean_s = 0.0;
  double utility_mean = 0.0;
  double makespan_s = 0.0;
  int finished = 0;
};
Quality quality_of(const std::vector<JobOutcome>& jobs);

/// Self time per span name over the buffered obs trace events: a span's
/// duration minus the part its direct child spans (same thread, nested
/// interval) cover. Reads the buffers through obs::trace_to_json(), then
/// clears them; call only while no other thread emits spans.
struct SpanTotals {
  std::map<std::string, double> self_us;
  /// Duration of each svc.request span by its request_id argument.
  std::map<long long, double> request_us;
  long long dropped = 0;

  void merge(const SpanTotals& other);
};
SpanTotals drain_spans();

/// Highest resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Open-loop what-if over a measured service-time sequence: requests due
/// every 1/rate seconds, served one at a time in order (Lindley's
/// recursion). Returns the highest rate (requests per second) whose p99 of
/// (completion - due) stays at or below `limit_us`, found by bisection.
double max_rate_within(const std::vector<double>& service_us,
                       double limit_us);

/// Result of one benchmark run, printed as the last stdout line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);
  void count_ops(long long attempted, long long failed);
  void set_info(const std::string& key, gts::json::Value value);
  void set_digest(const std::string& digest) { digest_ = digest; }
  bool correct() const { return errors_.empty(); }
  /// Prints the JSON result line; returns the process exit code.
  int print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> errors_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::string digest_;
  gts::json::Value info_;
};

}  // namespace perfbench
