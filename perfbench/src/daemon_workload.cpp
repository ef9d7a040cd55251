// daemon-mixed: the service path, client -> socket -> reply, on an
// in-process daemon (svc::Server + svc::ServiceCore, 4 shards over 500
// Minsky machines, otherwise the default ServiceConfig).
//
// Two connections, three threads (writer, reader, server):
//   * the writer sends every job of a sim-paper-style trace open-loop on
//     a wall-clock schedule whose offered rate steps through kRateSteps,
//     each job as `submit` followed by `advance {to: arrival}`, and a file
//     `snapshot` after every kSnapshotEvery jobs. One ordered session
//     keeps the decision sequence a pure function of the trace.
//   * the reader issues `status <most recent job>` and `metrics_prom`
//     alternately at kReadRate, also open-loop.
// Latency is timed from each request's due time, not its send time, so a
// stall is charged to every request queued behind it. Sends that were
// not held up by an outstanding reply measure the generator's own
// lateness.
//
// Output check: after `drain`, `list detail` must show every job
// finished, and the placement digest must equal that of a replay of the
// same request sequence straight into a fresh ServiceCore (no socket, no
// reader), which the reader traffic and the transport must not perturb.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobgraph/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "perf/model.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gts;

constexpr int kMachines = 500;
constexpr int kShards = 4;
/// Offered job rates (jobs per wall second), each held for an equal share
/// of the load phase, which takes half the run's time (the other half goes
/// to the drain and the output check). Calibrated once on a 4-core x86
/// container: the last step exceeds what the daemon sustains, the others
/// stay below it.
constexpr double kRateSteps[] = {100.0, 200.0, 300.0, 800.0};
/// Steps whose requests make up the admit and read latencies (the
/// sustainable ones).
constexpr int kNominalSteps = 3;
/// admit_us_p99 limit of max_rps_slo.
constexpr double kSloAdmitUsP99 = 100000.0;
constexpr double kReadRate = 200.0;
constexpr int kSnapshotEvery = 50;
/// A run whose generator ran later than this (p99 of idle sends, judged
/// once there are enough sends for the p99 to have ten beyond it) is
/// invalid: the load did not follow its schedule.
constexpr double kGenLateLimitMs = 20.0;
/// Simulated arrival rate per machine: just above what the cluster
/// drains, so late jobs queue (waiting time is part of the quality
/// figures), yet the trace is short enough that the default admission
/// bound (max_queue 256) never refuses a submit.
constexpr double kRatePerMachinePerMinute = 0.25;
constexpr long long kIterations = 1500;
constexpr int kSetups = 3;
/// Traced runs pause the load and drain the span buffers this often.
constexpr int kDrainEvery = 500;

/// Parses one reply line. svc::parse_response enforces the protocol's
/// 1 MiB line bound, which the final job listing of a full run exceeds.
svc::Response parse_reply(std::string_view line) {
  auto doc = json::parse(line);
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("unparseable reply");
  }
  svc::Response response;
  response.id = doc->at("id").as_int(-1);
  response.ok = doc->at("ok").as_bool(false);
  if (response.ok) {
    response.result = doc->at("result");
  } else {
    const json::Value& error = doc->at("error");
    response.message = error.at("message").as_string();
    if (auto code = svc::parse_error_code(error.at("code").as_string())) {
      response.code = *code;
    }
  }
  return response;
}

/// Blocking Unix-socket session with caller-chosen request ids and no
/// reply-size bound (final listings of large runs exceed svc::Client's).
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() + 1 > sizeof(addr.sun_path)) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("socket setup failed for " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one request, waits for its reply.
  svc::Response call(long long id, const std::string& verb,
                     json::Value params = {}) {
    svc::Request request;
    request.id = id;
    request.verb = verb;
    request.params = std::move(params);
    const std::string bytes = svc::encode(request);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    svc::Response response = parse_reply(read_line());
    if (response.id != id) throw std::runtime_error("reply id mismatch");
    return response;
  }

 private:
  std::string read_line() {
    char buffer[1 << 16];
    while (true) {
      const std::size_t newline = in_.find('\n');
      if (newline != std::string::npos) {
        std::string line = in_.substr(0, newline);
        in_.erase(0, newline + 1);
        return line;
      }
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) throw std::runtime_error("connection closed");
      in_.append(buffer, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string in_;
};

/// Sleeps until `due`, spinning the last stretch for precision.
void wait_until(Clock::time_point due) {
  const auto spin = std::chrono::microseconds(200);
  const auto now = Clock::now();
  if (due - now > spin) std::this_thread::sleep_for(due - now - spin);
  while (Clock::now() < due) {
  }
}

/// Percentile of a registry histogram as exported by the `metrics` verb
/// (same interpolation as obs::HistogramData::percentile).
double histogram_percentile(const json::Value& h, double p) {
  const long long count = h.at("count").as_int(0);
  if (count == 0) return 0.0;
  const json::Array& bounds = h.at("bounds").as_array();
  const json::Array& counts = h.at("counts").as_array();
  const double target = p * static_cast<double>(count);
  long long cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const long long n = counts[i].as_int();
    if (n == 0) continue;
    if (static_cast<double>(cumulative + n) >= target) {
      if (i >= bounds.size()) return h.at("max").as_number();
      const double lower = i == 0 ? std::min(h.at("min").as_number(),
                                             bounds[0].as_number())
                                  : bounds[i - 1].as_number();
      const double upper = bounds[i].as_number();
      const double within = std::clamp(
          (target - static_cast<double>(cumulative)) / static_cast<double>(n),
          0.0, 1.0);
      return lower + (upper - lower) * within;
    }
    cumulative += n;
  }
  return h.at("max").as_number();
}

svc::ServiceOptions service_options() {
  svc::ServiceOptions options;
  options.config.shard_count = kShards;
  return options;
}

/// Request ids: job j's submit is 2j+1, its advance 2j+2; snapshots,
/// control verbs and the reader use disjoint ranges.
constexpr long long kSnapshotIdBase = 1LL << 40;
constexpr long long kControlIdBase = 1LL << 41;
constexpr long long kReaderIdBase = 1LL << 42;

json::Value submit_params(const jobgraph::JobRequest& job) {
  json::Value params;
  params.set("job", jobgraph::to_manifest(job));
  return params;
}
json::Value advance_params(double to) {
  json::Value params;
  params.set("to", to);
  return params;
}

std::vector<JobOutcome> outcomes_of(const json::Value& listing) {
  std::vector<JobOutcome> jobs;
  for (const json::Value& row : listing.at("jobs").as_array()) {
    JobOutcome job;
    job.id = static_cast<int>(row.at("id").as_int());
    job.arrival = row.at("arrival").as_number();
    job.start = row.at("start").as_number(-1.0);
    job.end = row.at("state").as_string() == "finished"
                  ? row.at("end").as_number(-1.0)
                  : -1.0;
    for (const json::Value& gpu : row.at("gpus").as_array()) {
      job.gpus.push_back(static_cast<int>(gpu.as_int()));
    }
    job.utility = row.at("placement_utility").as_number();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The writer's request sequence replayed straight into a fresh core.
/// Returns the placement digest and the replay's jobs per second.
struct Reference {
  std::string digest;
  double jobs_per_s = 0.0;
  SpanTotals spans;
};
Reference reference_replay(const topo::TopologyGraph& topology,
                           const perf::DlWorkloadModel& model,
                           const std::vector<jobgraph::JobRequest>& jobs,
                           const std::string& snapshot_path, bool traced) {
  svc::ServiceCore core(topology, model, service_options());
  const auto roundtrip = [&core](long long id, const std::string& verb,
                                 json::Value params) {
    svc::Request request;
    request.id = id;
    request.verb = verb;
    request.params = std::move(params);
    // Through the wire encoding, as the socket path sees it.
    svc::Response response = parse_reply(svc::encode(core.handle(request)));
    if (!response.ok) {
      throw std::runtime_error("reference replay: " + verb + " failed");
    }
    return response;
  };
  Reference out;
  if (traced) {
    obs::ObsConfig config;
    config.tracing = true;
    config.metrics = true;
    (void)obs::configure(config);
  }
  double paused_s = 0.0;
  const auto start = Clock::now();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const long long id = static_cast<long long>(j);
    roundtrip(2 * id + 1, "submit", submit_params(jobs[j]));
    roundtrip(2 * id + 2, "advance", advance_params(jobs[j].arrival_time));
    if ((j + 1) % kSnapshotEvery == 0) {
      json::Value params;
      params.set("path", snapshot_path);
      roundtrip(kSnapshotIdBase + id, "snapshot", std::move(params));
    }
    if (traced && (j + 1) % kDrainEvery == 0) {
      const auto p0 = Clock::now();
      out.spans.merge(drain_spans());
      paused_s += seconds_between(p0, Clock::now());
    }
  }
  json::Value drain;
  drain.set("wait", true);
  roundtrip(kControlIdBase, "drain", std::move(drain));
  const double wall = seconds_between(start, Clock::now()) - paused_s;
  if (traced) {
    (void)obs::configure(obs::ObsConfig{});
    out.spans.merge(drain_spans());
  }
  json::Value detail;
  detail.set("detail", true);
  const svc::Response listing =
      roundtrip(kControlIdBase + 1, "list", std::move(detail));
  out.digest = placement_digest(outcomes_of(listing.result));
  out.jobs_per_s = static_cast<double>(jobs.size()) / std::max(wall, 1e-9);
  return out;
}

/// Everything one timed request measured.
struct Sample {
  double latency_us = 0.0;  // due -> reply
  double rtt_us = 0.0;      // send -> reply
  long long id = 0;
  double due_s = 0.0;       // due time, from the load's start
};

struct ReaderFigures {
  std::vector<Sample> reads;
  std::vector<double> idle_late_us;
  long long ops = 0;
  long long failed = 0;
  std::string error;
};

/// Pause handshake for traced runs: the writer stops the reader at a
/// quiescent point, drains the span buffers while the server is idle, and
/// shifts both schedules by the pause.
struct PauseGate {
  std::mutex mutex;
  std::condition_variable changed;
  bool pause_requested = false;
  bool reader_parked = false;
  bool done = false;
  Clock::duration shift{};
};

struct Setup {
  topo::TopologyGraph topology;
  std::vector<jobgraph::JobRequest> jobs;
  double topology_s = 0.0;
  double workload_s = 0.0;
  double core_s = 0.0;
};

double step_seconds(const RunOptions& options) {
  return 0.5 * options.seconds / static_cast<double>(std::size(kRateSteps));
}

int job_count(const RunOptions& options) {
  if (options.jobs > 0) return options.jobs;
  double jobs = 0.0;
  for (const double rate : kRateSteps) jobs += rate * step_seconds(options);
  return static_cast<int>(jobs);
}

}  // namespace

void run_daemon_workload(const RunOptions& options, Result& result) {
  const int machines = options.machines > 0 ? options.machines : kMachines;
  const int n_jobs = job_count(options);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());

  // --- set-up, repeated; the last one is used ------------------------------
  std::vector<double> setup_total;
  std::vector<double> setup_topology;
  std::vector<double> setup_workload;
  std::optional<Setup> setup;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    topo::TopologyGraph topology = topo::builders::make_cluster(
        machines, 4, topo::builders::MachineShape::kPower8Minsky);
    const auto t1 = Clock::now();
    trace::GeneratorOptions generator;
    generator.job_count = n_jobs;
    generator.iterations = kIterations;
    generator.arrival_rate_per_minute = kRatePerMachinePerMinute * machines;
    generator.seed = options.seed;
    std::vector<jobgraph::JobRequest> jobs =
        trace::generate_workload(generator, model, topology);
    const auto t2 = Clock::now();
    { svc::ServiceCore probe(topology, model, service_options()); }
    const auto t3 = Clock::now();
    setup.emplace(Setup{std::move(topology), std::move(jobs),
                        seconds_between(t0, t1), seconds_between(t1, t2),
                        seconds_between(t2, t3)});
    setup_topology.push_back(setup->topology_s);
    setup_workload.push_back(setup->workload_s);
    setup_total.push_back(setup->topology_s + setup->workload_s +
                          setup->core_s);
  }
  const topo::TopologyGraph& topology = setup->topology;
  const std::vector<jobgraph::JobRequest>& jobs = setup->jobs;

  if (options.digest_only) {
    std::filesystem::create_directories(options.scratch_dir);
    const std::string path = options.scratch_dir + "/d" +
                             std::to_string(::getpid()) + ".snap.json";
    result.set_digest(
        reference_replay(topology, model, jobs, path, /*traced=*/false).digest);
    result.set_info("jobs", static_cast<double>(jobs.size()));
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    return;
  }

  // --- the daemon -----------------------------------------------------------
  std::filesystem::create_directories(options.scratch_dir);
  const std::string base =
      options.scratch_dir + "/d" + std::to_string(::getpid());
  const std::string socket_path = base + ".sock";
  const std::string snapshot_path = base + ".snap.json";
  struct RemoveOnExit {
    std::vector<std::string> paths;
    ~RemoveOnExit() {
      std::error_code ignored;
      for (const std::string& path : paths) {
        std::filesystem::remove(path, ignored);
      }
    }
  } cleanup{{socket_path, snapshot_path}};
  if (options.trace) {
    obs::ObsConfig config;
    config.tracing = true;
    config.metrics = true;
    (void)obs::configure(config);
  }
  svc::ServiceCore core(topology, model, service_options());
  svc::ServerOptions server_options;
  server_options.unix_socket = socket_path;
  svc::Server server(core, server_options);
  if (auto status = server.start(); !status) {
    throw std::runtime_error("server start: " + status.error().message);
  }
  std::thread server_thread([&server] { (void)server.run(); });
  struct Joiner {
    svc::Server& server;
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) {
        server.stop();
        thread.join();
      }
    }
  } joiner{server, server_thread};

  // --- load -----------------------------------------------------------------
  const std::size_t n_steps = std::size(kRateSteps);
  std::vector<double> due_offset_s(jobs.size());
  std::vector<int> step_of(jobs.size());
  {
    double t = 0.0;
    std::size_t step = 0;
    double step_end = step_seconds(options);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      while (t >= step_end - 1e-12 && step + 1 < n_steps) {
        t = step_end;
        ++step;
        step_end += step_seconds(options);
      }
      due_offset_s[j] = t;
      step_of[j] = static_cast<int>(step);
      t += 1.0 / kRateSteps[step];
    }
  }
  Connection writer(socket_path);
  std::atomic<long long> recent_job{-1};  // last job the writer got acked
  PauseGate gate;
  ReaderFigures reader;
  const auto origin = Clock::now() + std::chrono::milliseconds(20);
  std::thread reader_thread([&] {
    try {
      Connection connection(socket_path);
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kReadRate));
      for (long long k = 0;; ++k) {
        Clock::time_point due;
        {
          std::unique_lock lock(gate.mutex);
          if (gate.pause_requested) {
            gate.reader_parked = true;
            gate.changed.notify_all();
            gate.changed.wait(lock, [&] { return !gate.pause_requested; });
            gate.reader_parked = false;
          }
          if (gate.done) return;
          due = origin + gate.shift + k * period;
        }
        const auto before = Clock::now();
        if (before < due) {
          wait_until(due);
          reader.idle_late_us.push_back(us_between(due, Clock::now()));
        }
        const long long id = kReaderIdBase + k;
        const auto sent = Clock::now();
        json::Value params;
        std::string verb = "metrics_prom";
        const long long recent = recent_job.load();
        if (k % 2 == 0 && recent >= 0) {
          verb = "status";
          params.set("id", recent);
        }
        const svc::Response reply = connection.call(id, verb, params);
        const auto got = Clock::now();
        ++reader.ops;
        if (!reply.ok) ++reader.failed;
        reader.reads.push_back(Sample{us_between(due, got),
                                      us_between(sent, got), id,
                                      static_cast<double>(k) / kReadRate});
      }
    } catch (const std::exception& error) {
      // Parked for good, so a pause request never waits on a dead reader.
      std::lock_guard lock(gate.mutex);
      reader.error = error.what();
      gate.reader_parked = true;
      gate.changed.notify_all();
    }
  });
  // Stops and joins the reader on every exit path, exceptions included.
  struct ReaderStopper {
    PauseGate& gate;
    std::thread& thread;
    void stop() {
      {
        std::lock_guard lock(gate.mutex);
        gate.done = true;
        gate.pause_requested = false;
        gate.changed.notify_all();
      }
      if (thread.joinable()) thread.join();
    }
    ~ReaderStopper() { stop(); }
  } stop_reader{gate, reader_thread};

  std::vector<Sample> admit(jobs.size());
  std::vector<Sample> submits;
  std::vector<Sample> advances;
  std::vector<double> snapshot_rtt_us;
  std::vector<double> snapshot_bytes;
  std::vector<double> writer_idle_late_us;
  long long ops = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  SpanTotals spans;
  Clock::duration shift{};
  const auto pause_and_drain = [&] {
    {
      std::unique_lock lock(gate.mutex);
      gate.pause_requested = true;
      gate.changed.wait(lock, [&] { return gate.reader_parked; });
    }
    const auto p0 = Clock::now();
    spans.merge(drain_spans());
    const auto pause = Clock::now() - p0;
    std::lock_guard lock(gate.mutex);
    shift += pause;
    gate.shift = shift;
    gate.pause_requested = false;
    gate.changed.notify_all();
  };
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const jobgraph::JobRequest& job = jobs[j];
    const long long id = static_cast<long long>(j);
    const auto due =
        origin + shift +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(due_offset_s[j]));
    if (Clock::now() < due) {
      wait_until(due);
      writer_idle_late_us.push_back(us_between(due, Clock::now()));
    }
    const auto s0 = Clock::now();
    const svc::Response submitted =
        writer.call(2 * id + 1, "submit", submit_params(job));
    const auto s1 = Clock::now();
    const svc::Response advanced =
        writer.call(2 * id + 2, "advance", advance_params(job.arrival_time));
    const auto s2 = Clock::now();
    ops += 2;
    for (const svc::Response* reply : {&submitted, &advanced}) {
      if (!reply->ok) {
        ++failed;
        errors.push_back("job " + std::to_string(job.id) + ": " +
                         std::string(svc::to_string(reply->code)) + " " +
                         reply->message);
      }
    }
    submits.push_back(Sample{us_between(due, s1), us_between(s0, s1),
                             2 * id + 1});
    advances.push_back(Sample{us_between(due, s2), us_between(s1, s2),
                              2 * id + 2});
    admit[j] = Sample{us_between(due, s2), us_between(s0, s2), 2 * id + 2};
    recent_job.store(job.id);
    if ((j + 1) % kSnapshotEvery == 0) {
      json::Value params;
      params.set("path", snapshot_path);
      const auto n0 = Clock::now();
      const svc::Response snap =
          writer.call(kSnapshotIdBase + id, "snapshot", params);
      snapshot_rtt_us.push_back(us_between(n0, Clock::now()));
      ++ops;
      struct stat info {};
      if (!snap.ok || ::stat(snapshot_path.c_str(), &info) != 0) {
        ++failed;
        errors.push_back("snapshot failed: " + snap.message);
      } else {
        snapshot_bytes.push_back(static_cast<double>(info.st_size));
      }
    }
    if (options.trace && (j + 1) % kDrainEvery == 0) pause_and_drain();
  }
  // Counters as of the end of the load, before the final drain.
  const svc::Response load_metrics = writer.call(kControlIdBase, "metrics");
  stop_reader.stop();
  json::Value drain;
  drain.set("wait", true);
  const svc::Response drained =
      writer.call(kControlIdBase + 1, "drain", std::move(drain));
  const auto drained_at = Clock::now();
  json::Value detail;
  detail.set("detail", true);
  const svc::Response listing =
      writer.call(kControlIdBase + 2, "list", std::move(detail));
  const svc::Response final_metrics =
      writer.call(kControlIdBase + 3, "metrics");
  (void)writer.call(kControlIdBase + 4, "shutdown");
  server_thread.join();
  if (options.trace) {
    (void)obs::configure(obs::ObsConfig{});
    spans.merge(drain_spans());
  }
  ops += 5 + reader.ops;
  failed += reader.failed;
  result.count_ops(ops, failed);
  for (const std::string& error : errors) result.fail(error);
  if (!reader.error.empty()) result.fail("reader: " + reader.error);
  for (const svc::Response* reply :
       {&load_metrics, &drained, &listing, &final_metrics}) {
    if (!reply->ok) result.fail("control request failed: " + reply->message);
  }
  if (!result.correct()) return;

  // --- output check ---------------------------------------------------------
  const std::vector<JobOutcome> outcomes = outcomes_of(listing.result);
  const Quality quality = quality_of(outcomes);
  if (quality.finished != static_cast<int>(jobs.size()) ||
      listing.result.at("finished").as_array().size() != jobs.size()) {
    result.fail(std::to_string(quality.finished) + " of " +
                std::to_string(jobs.size()) + " jobs finished");
  }
  const std::string digest = placement_digest(outcomes);
  result.set_digest(digest);
  std::fprintf(stderr, "  load done: %zu jobs in %.2f s\n", jobs.size(),
               seconds_between(origin, drained_at));
  const Reference untraced_ref =
      reference_replay(topology, model, jobs, snapshot_path, /*traced=*/false);
  std::fprintf(stderr, "  direct replay: %.0f jobs/s, digest %s\n",
               untraced_ref.jobs_per_s, untraced_ref.digest.c_str());
  if (untraced_ref.digest != digest) {
    result.fail("placement digest " + digest +
                " differs from the direct replay's " + untraced_ref.digest);
  }

  // --- generator honesty ----------------------------------------------------
  std::vector<double> idle_late = writer_idle_late_us;
  idle_late.insert(idle_late.end(), reader.idle_late_us.begin(),
                   reader.idle_late_us.end());
  const double gen_late_ms_p99 = percentile(idle_late, 0.99) / 1000.0;
  if (idle_late.size() >= 1000 && gen_late_ms_p99 > kGenLateLimitMs) {
    result.fail("generator ran late: p99 " + std::to_string(gen_late_ms_p99) +
                " ms > " + std::to_string(kGenLateLimitMs) + " ms");
  }

  // --- per-step open-loop figures -------------------------------------------
  std::vector<std::vector<double>> step_admit(n_steps);
  std::vector<double> nominal_admit;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    step_admit[static_cast<std::size_t>(step_of[j])].push_back(
        admit[j].latency_us);
    if (step_of[j] < kNominalSteps) nominal_admit.push_back(admit[j].latency_us);
  }
  json::Array step_rows;
  double max_rps = 0.0;
  bool all_passed = true;
  for (std::size_t s = 0; s < n_steps; ++s) {
    const std::vector<double>& lat = step_admit[s];
    if (lat.empty()) continue;
    const double p99 = percentile(lat, 0.99);
    // No growing backlog: the step's last quarter still meets the limit
    // at its median.
    const std::vector<double> last_quarter(
        lat.end() - static_cast<std::ptrdiff_t>((lat.size() + 3) / 4),
        lat.end());
    const bool pass = all_passed && p99 <= kSloAdmitUsP99 &&
                      median(last_quarter) <= kSloAdmitUsP99;
    json::Value row;
    row.set("rate", kRateSteps[s]);
    row.set("jobs", static_cast<double>(lat.size()));
    row.set("admit_us_p50", percentile(lat, 0.5));
    row.set("admit_us_p99", p99);
    row.set("pass", pass);
    std::fprintf(stderr,
                 "  step %zu: %.0f jobs/s offered, %zu jobs, admit p50 %.0f us "
                 "p99 %.0f us%s\n",
                 s, kRateSteps[s], lat.size(), percentile(lat, 0.5), p99,
                 pass ? "" : " (over the limit)");
    step_rows.push_back(std::move(row));
    if (pass) {
      max_rps = kRateSteps[s];
      if (s + 1 < n_steps && !step_admit[s + 1].empty()) {
        // Refine between this step and the next by where p99 crosses
        // the limit, so the figure moves with the margin.
        const double next_p99 = percentile(step_admit[s + 1], 0.99);
        if (next_p99 > kSloAdmitUsP99) {
          max_rps += (kRateSteps[s + 1] - kRateSteps[s]) *
                     (kSloAdmitUsP99 - p99) / (next_p99 - p99);
        }
      }
    } else {
      all_passed = false;
    }
  }
  result.set_info("steps", std::move(step_rows));
  result.set_info("wait_mean_s", quality.wait_mean_s);
  result.set_info("jobs", static_cast<double>(jobs.size()));
  result.set_info("machines", machines);

  // Latencies over the sustainable steps: past them the backlog grows
  // and every request waits on it.
  const double nominal_end_s = step_seconds(options) * kNominalSteps;
  std::vector<double> read_latency;
  std::vector<double> read_rtt;
  for (const Sample& s : reader.reads) {
    if (s.due_s >= nominal_end_s) continue;
    read_latency.push_back(s.latency_us);
    read_rtt.push_back(s.rtt_us);
  }
  // Round trips exclude queueing behind the schedule, so every step's
  // requests count.
  std::vector<double> advance_rtt;
  std::vector<double> submit_rtt;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    advance_rtt.push_back(advances[j].rtt_us);
    submit_rtt.push_back(submits[j].rtt_us);
  }

  if (!options.trace) {
    const double load_s = seconds_between(origin, drained_at) -
                          std::chrono::duration<double>(shift).count();
    result.metric("jobs_per_s", quality.finished / std::max(load_s, 1e-9),
                  "1/s");
    result.metric("arrival_us_p50", percentile(advance_rtt, 0.50), "us");
    result.metric("arrival_us_p99", percentile(advance_rtt, 0.99), "us");
    result.metric("admit_us_p50", percentile(nominal_admit, 0.50), "us");
    result.metric("admit_us_p99", percentile(nominal_admit, 0.99), "us");
    result.metric("read_us_p50", percentile(read_latency, 0.50), "us");
    result.metric("read_us_p99", percentile(read_latency, 0.99), "us");
    result.metric("max_rps_slo", max_rps, "1/s");
    result.metric("jct_mean_s", quality.jct_mean_s, "s");
    result.metric("utility_mean", quality.utility_mean, "ratio");
    result.metric("makespan_s", quality.makespan_s, "s");
    result.metric("setup_s", median(setup_total), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // --- per-layer (traced run) -----------------------------------------------
  const json::Value& registry = load_metrics.result.at("registry");
  const json::Value& counters = registry.at("counters");
  const json::Value& histograms = registry.at("histograms");
  const auto counter = [&](const char* name) {
    return static_cast<double>(counters.at(name).as_int(0));
  };
  result.metric("svc.submit_rtt_us_p99", percentile(submit_rtt, 0.99), "us");
  result.metric("svc.advance_rtt_us_p99", percentile(advance_rtt, 0.99), "us");
  result.metric("svc.read_rtt_us_p99", percentile(read_rtt, 0.99), "us");
  result.metric("svc.core_us_p99",
                histogram_percentile(histograms.at("svc.request_latency_us"),
                                     0.99),
                "us");
  std::vector<double> wire_us;
  double advance_core_us = 0.0;
  for (const std::vector<Sample>* group : {&submits, &advances}) {
    for (const Sample& s : *group) {
      const auto it = spans.request_us.find(s.id);
      if (it == spans.request_us.end()) continue;
      wire_us.push_back(std::max(0.0, s.rtt_us - it->second));
      if (group == &advances) advance_core_us += it->second;
    }
  }
  for (const Sample& s : reader.reads) {
    const auto it = spans.request_us.find(s.id);
    if (it != spans.request_us.end()) {
      wire_us.push_back(std::max(0.0, s.rtt_us - it->second));
    }
  }
  result.metric("svc.wire_us_p99", percentile(wire_us, 0.99), "us");
  result.metric("svc.snapshot_us_p50", median(snapshot_rtt_us), "us");
  result.metric("svc.snapshot_bytes",
                snapshot_bytes.empty()
                    ? 0.0
                    : sum(snapshot_bytes) /
                          static_cast<double>(snapshot_bytes.size()),
                "bytes");
  result.metric("svc.requests", counter("svc.requests"), "count");
  result.metric("svc.backpressure", counter("svc.backpressure"), "count");
  const json::Value& batch = histograms.at("svc.batch_size");
  // The default server dispatches one request per round (batch_max 1)
  // and records no batch histogram.
  result.metric("svc.batch_size_mean",
                batch.at("count").as_int(0) > 0 ? batch.at("mean").as_number()
                                                : 1.0,
                "count");
  result.metric("svc.gen_late_ms_p99", gen_late_ms_p99, "ms");

  const sched::RouterTelemetry router = core.driver().router();
  result.metric("shard.route_us_p50", router.route_latency_us.percentile(0.5),
                "us");
  result.metric("shard.route_us_p99",
                router.route_latency_us.percentile(0.99), "us");
  result.metric("shard.filtered_per_route",
                router.routed > 0 ? static_cast<double>(router.filtered) /
                                        static_cast<double>(router.routed)
                                  : 0.0,
                "ratio");
  result.metric("shard.exhausted", static_cast<double>(router.exhausted),
                "count");

  const json::Value& decision = histograms.at("sched.decision_latency_us");
  const json::Value& completion = histograms.at("sched.advance_latency_us");
  const double decisions = load_metrics.result.at("decisions").as_number();
  const double placements = counter("sched.placements");
  result.metric("sched.place_us_p50", histogram_percentile(decision, 0.5),
                "us");
  result.metric("sched.place_us_p99", histogram_percentile(decision, 0.99),
                "us");
  result.metric("sched.place_s_total",
                load_metrics.result.at("decision_seconds").as_number(), "s");
  result.metric("sched.decisions", decisions, "count");
  result.metric("sched.placements", placements, "count");
  result.metric("sched.place_ratio",
                decisions > 0 ? placements / decisions : 0.0, "ratio");
  const double lookups = counter("cache.lookups");
  result.metric("sched.cache_lookups", lookups, "count");
  result.metric("sched.cache_hit_ratio",
                lookups > 0 ? counter("cache.hits") / lookups : 0.0, "ratio");
  const double attributed =
      decision.at("sum").as_number() + completion.at("sum").as_number();
  result.metric("sched.unattributed_us_share",
                advance_core_us > 0.0
                    ? (advance_core_us - attributed) / advance_core_us
                    : 0.0,
                "ratio");
  result.metric("drb.self_us_total", spans.self_us["drb.map"], "us");
  result.metric("fm.self_us_total", spans.self_us["fm.bipartition"], "us");
  result.metric("partition.advance_share",
                advance_core_us > 0.0 ? (spans.self_us["drb.map"] +
                                         spans.self_us["fm.bipartition"]) /
                                            advance_core_us
                                      : 0.0,
                "ratio");
  result.metric("drb.bipartitions", counter("drb.bipartitions"), "count");
  result.metric("fm.passes", counter("fm.passes"), "count");
  result.metric("cluster.completion_us_p50",
                histogram_percentile(completion, 0.5), "us");
  result.metric("cluster.completion_us_p99",
                histogram_percentile(completion, 0.99), "us");
  result.metric("cluster.completions",
                static_cast<double>(completion.at("count").as_int(0)),
                "count");
  result.metric("sim.events", load_metrics.result.at("events").as_number(),
                "count");
  result.metric("sim.event_self_us_total", spans.self_us["sim.event"], "us");
  result.metric("setup.topology_s", median(setup_topology), "s");
  result.metric("setup.workload_s", median(setup_workload), "s");

  const Reference traced_ref =
      reference_replay(topology, model, jobs, snapshot_path, /*traced=*/true);
  if (traced_ref.digest != digest) {
    result.fail("traced replay changed the placement digest");
  }
  result.metric("obs.trace_overhead_frac",
                1.0 - traced_ref.jobs_per_s / untraced_ref.jobs_per_s,
                "ratio");
  const double dropped =
      static_cast<double>(spans.dropped + traced_ref.spans.dropped);
  result.metric("obs.dropped_spans", dropped, "count");
  if (dropped > 0) result.fail("trace buffers dropped spans");
}

}  // namespace perfbench
