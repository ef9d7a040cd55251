// sim-paper and sim-multi: the simulator host path, arrival -> placement
// -> completion, driven through sched::Driver's online API.
//
// A run replays a fixed set of independent sub-traces, each generated
// from (seed, index): build the topology, generate the trace, then for
// every job submit() it and advance_to(its arrival), which enacts the
// arrival together with every completion due before it and the
// scheduling pass; advance_all() drains the sub-trace. How much decision
// work one trace of TOPO-AWARE-P causes swings widely with the seed (the
// postponement dynamics of a loaded queue), so a run pools many short
// traces instead of one long one, which keeps its figures comparable
// across seeds. Rounds over the set repeat until the run's time is
// spent; each timing is taken per round and reported as the median over
// rounds, which shrugs off rounds slowed by other load on the host. Every
// replay of a sub-trace must reproduce its placement digest.
//
// Each arrival's wall time is split in situ, with no stage re-run in
// isolation: Scheduler::place time (the TimedScheduler decorator) +
// completion-event time (the DriverReport::advance_seconds delta) + the
// unattributed residual (event dispatch, queue handling, enacting the
// placement, recording).
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gts;

struct SimShape {
  int machines = 100;
  /// Jobs per sub-trace and sub-traces per round.
  int jobs = 400;
  int sub_traces = 24;
  /// Every third job spans machines when set, alternating 8 and 16 GPUs.
  bool multi_machine = false;
  long long iterations = 1500;
  /// Poisson arrival rate per machine (the paper's 10 jobs/min at 5
  /// machines is 2 per machine, the scaling bench_scale uses).
  double rate_per_machine_per_minute = 2.0;
  /// Admission latency limit of the open-loop what-if (max_rps_slo).
  double slo_admit_us_p99 = 10000.0;
};

SimShape shape_for(const RunOptions& options) {
  SimShape shape;
  if (options.workload == "sim-multi") {
    shape.machines = 50;
    shape.jobs = 50;
    shape.sub_traces = 64;
    shape.multi_machine = true;
    shape.rate_per_machine_per_minute = 1.0;
    shape.slo_admit_us_p99 = 100000.0;
  }
  if (options.jobs > 0) shape.jobs = options.jobs;
  if (options.machines > 0) shape.machines = options.machines;
  return shape;
}

/// Timing decorator: forwards to the real policy and records the wall
/// time of every place() call.
class TimedScheduler final : public sched::Scheduler {
 public:
  explicit TimedScheduler(sched::Scheduler& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::optional<sched::Placement> place(
      const jobgraph::JobRequest& request,
      const cluster::ClusterState& state) override {
    const auto t0 = Clock::now();
    std::optional<sched::Placement> placement = inner_.place(request, state);
    const double us = us_between(t0, Clock::now());
    call_us.push_back(us);
    total_us += us;
    if (placement) ++placements;
    return placement;
  }
  bool blocking_queue() const override { return inner_.blocking_queue(); }
  void set_parallel_scoring(int threads) override {
    inner_.set_parallel_scoring(threads);
  }

  std::vector<double> call_us;
  double total_us = 0.0;
  long long placements = 0;

 private:
  sched::Scheduler& inner_;
};

std::vector<jobgraph::JobRequest> make_jobs(const SimShape& shape,
                                            std::uint64_t seed,
                                            const perf::DlWorkloadModel& model,
                                            const topo::TopologyGraph& topo) {
  trace::GeneratorOptions generator;
  generator.job_count = shape.jobs;
  generator.iterations = shape.iterations;
  generator.arrival_rate_per_minute =
      shape.rate_per_machine_per_minute * shape.machines;
  generator.seed = seed;
  std::vector<jobgraph::JobRequest> jobs =
      trace::generate_workload(generator, model, topo);
  if (!shape.multi_machine) return jobs;
  for (jobgraph::JobRequest& job : jobs) {
    if (job.id % 3 != 2) continue;
    const int tasks = (job.id / 3) % 2 == 0 ? 8 : 16;
    jobgraph::JobRequest multi = perf::make_profiled_dl(
        job.id, job.arrival_time, job.profile.nn, job.profile.batch_size,
        tasks, 0.5, model, topo, job.iterations);
    multi.profile.single_node = false;
    job = std::move(multi);
  }
  return jobs;
}

/// Everything one sub-trace replay measured.
struct Replay {
  double topology_s = 0.0;
  double workload_s = 0.0;
  double driver_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> arrival_us;
  std::vector<double> admit_us;
  std::vector<double> read_us;
  /// Per-advance attribution summed over every advance call (arrivals
  /// and the final drain): wall = place + completion + residual.
  double advance_us = 0.0;
  double place_us = 0.0;
  double completion_us = 0.0;
  std::vector<double> place_call_us;
  long long decisions = 0;
  long long placements = 0;
  sched::PlacementCacheStats cache;
  partition::DrbStats drb;
  obs::HistogramData completion_hist;
  long long completions = 0;
  std::uint64_t events = 0;
  long long ops = 0;
  long long failed_ops = 0;
  Quality quality;
  std::string digest;
  SpanTotals spans;
  std::vector<std::string> errors;
};

constexpr int kReadEvery = 8;
constexpr std::size_t kSpanFlushEvents = 40000;
/// Simulated seconds per step of a traced replay's drain (see below).
constexpr double kTracedDrainStep = 30.0;

Replay replay(const SimShape& shape, std::uint64_t seed, bool traced) {
  Replay out;
  const auto t0 = Clock::now();
  const topo::TopologyGraph topology = topo::builders::make_cluster(
      shape.machines, 4, topo::builders::MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto t1 = Clock::now();
  const std::vector<jobgraph::JobRequest> jobs =
      make_jobs(shape, seed, model, topology);
  const auto t2 = Clock::now();
  auto policy = sched::make_scheduler(sched::Policy::kTopoAwareP);
  auto* topo_aware = dynamic_cast<sched::TopoAwareScheduler*>(policy.get());
  TimedScheduler timed(*policy);
  sched::Driver driver(topology, model, timed);
  const auto t3 = Clock::now();
  out.topology_s = seconds_between(t0, t1);
  out.workload_s = seconds_between(t1, t2);
  out.driver_s = seconds_between(t2, t3);

  double paused_s = 0.0;
  const auto flush_spans = [&] {
    if (!traced || obs::trace_event_count() < kSpanFlushEvents) return;
    const auto p0 = Clock::now();
    out.spans.merge(drain_spans());
    paused_s += seconds_between(p0, Clock::now());
  };
  // One advance call, attributed: its wall time, the decorator's place()
  // time and the DriverReport's completion time accrued inside it.
  const auto advance = [&](auto&& call) {
    const double place_before = timed.total_us;
    const double completion_before = driver.report().advance_seconds;
    const long long events_before = driver.report().advance_count;
    const auto a0 = Clock::now();
    call();
    const double wall = us_between(a0, Clock::now());
    const double place = timed.total_us - place_before;
    const double completion =
        (driver.report().advance_seconds - completion_before) * 1e6;
    out.advance_us += wall;
    out.place_us += place;
    out.completion_us += completion;
    // place() and completion handling run inside the call; the report
    // times each completion event in whole microseconds, so allow that
    // rounding and nothing more.
    const long long events = driver.report().advance_count - events_before;
    if (wall - place - completion < -1.0 - static_cast<double>(events)) {
      out.errors.push_back("per-arrival attribution exceeds the arrival time");
    }
    return wall;
  };

  if (traced) {
    obs::ObsConfig config;
    config.tracing = true;
    (void)obs::configure(config);
  }
  out.arrival_us.reserve(jobs.size());
  out.admit_us.reserve(jobs.size());
  const auto start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const jobgraph::JobRequest& job = jobs[i];
    const auto s0 = Clock::now();
    const sched::SubmitResult submitted = driver.submit(job);
    const double submit_us = us_between(s0, Clock::now());
    const double arrival =
        advance([&] { driver.advance_to(job.arrival_time); });
    out.ops += 2;
    if (submitted != sched::SubmitResult::kAccepted) {
      ++out.failed_ops;
      out.errors.push_back("job " + std::to_string(job.id) + " refused: " +
                           std::string(sched::to_string(submitted)));
    }
    out.arrival_us.push_back(arrival);
    out.admit_us.push_back(submit_us + arrival);

    if (i % kReadEvery == kReadEvery - 1) {
      // What a status + metrics + list client reads, through the same
      // DriverApi views the daemon's `status`, `metrics` and `list` verbs
      // use.
      const auto r0 = Clock::now();
      long long listed = 0;
      driver.visit_running([&listed](const sched::RunningJobView&) {
        ++listed;
        return true;
      });
      driver.visit_waiting([&listed](const sched::WaitingView&) {
        ++listed;
        return true;
      });
      const bool ok = driver.job_record(job.id).has_value() &&
                      driver.counters().decision_count >= 0 &&
                      driver.lifecycle().postponements >= 0 &&
                      !driver.shard_infos().empty() &&
                      listed == driver.running_job_count() +
                                    driver.queue_depth();
      out.read_us.push_back(us_between(r0, Clock::now()));
      ++out.ops;
      if (!ok) {
        ++out.failed_ops;
        out.errors.push_back("read failed after job " +
                             std::to_string(job.id));
      }
    }
    flush_spans();
  }
  if (traced) {
    // The same drain in bounded steps, so the span buffers can be emptied
    // between them; the digest check below proves the outcome identical
    // to advance_all().
    while (!driver.idle()) {
      advance([&] { driver.advance_to(driver.now() + kTracedDrainStep); });
      flush_spans();
    }
  } else {
    advance([&] { driver.advance_all(); });
  }
  out.wall_s = seconds_between(start, Clock::now()) - paused_s;
  if (traced) {
    (void)obs::configure(obs::ObsConfig{});
    out.spans.merge(drain_spans());
  }

  out.place_call_us = std::move(timed.call_us);
  out.decisions = driver.report().decision_count;
  out.placements = timed.placements;
  if (topo_aware != nullptr) {
    out.cache = topo_aware->cache_stats();
    out.drb = topo_aware->drb_stats();
  }
  out.completion_hist = driver.report().advance_latency_us;
  out.completions = driver.report().advance_count;
  out.events = driver.report().events;

  std::vector<JobOutcome> outcomes;
  for (const cluster::JobRecord& record : driver.recorder().records()) {
    outcomes.push_back(outcome_of(record));
  }
  out.quality = quality_of(outcomes);
  out.digest = placement_digest(std::move(outcomes));
  if (out.quality.finished != static_cast<int>(jobs.size())) {
    out.errors.push_back(std::to_string(out.quality.finished) + " of " +
                         std::to_string(jobs.size()) + " jobs finished");
  }
  if (const util::Status valid = driver.validate(); !valid) {
    out.errors.push_back("validate: " + valid.error().message);
  }
  return out;
}

/// One round: every sub-trace replayed once, in order.
struct Round {
  std::vector<Replay> replays;
  /// Percentiles of the round's samples (name_p50 / name_p99) and its
  /// open-loop capacity ("max_rps"), filled by seal().
  std::map<std::string, double> figures;

  /// Reduces the per-request samples to the round's figures and frees
  /// them, so the benchmark's own memory does not grow with the rounds a
  /// run fits in (peak_rss_mb is a metric).
  void seal(double slo_admit_us_p99) {
    const auto reduce = [&](const std::string& name,
                            std::vector<double> Replay::*field) {
      const std::vector<double> values = pooled(field);
      figures[name + "_p50"] = percentile(values, 0.50);
      figures[name + "_p99"] = percentile(values, 0.99);
      if (field == &Replay::admit_us) {
        figures["max_rps"] = max_rate_within(values, slo_admit_us_p99);
      }
      for (Replay& r : replays) std::vector<double>().swap(r.*field);
    };
    reduce("arrival", &Replay::arrival_us);
    reduce("admit", &Replay::admit_us);
    reduce("read", &Replay::read_us);
    reduce("place", &Replay::place_call_us);
  }

  template <typename F>
  double total(F field) const {
    double value = 0.0;
    for (const Replay& r : replays) value += static_cast<double>(field(r));
    return value;
  }
  std::vector<double> pooled(std::vector<double> Replay::*field) const {
    std::vector<double> values;
    for (const Replay& r : replays) {
      values.insert(values.end(), (r.*field).begin(), (r.*field).end());
    }
    return values;
  }
  double jobs_per_s() const {
    return total([](const Replay& r) { return r.quality.finished; }) /
           std::max(total([](const Replay& r) { return r.wall_s; }), 1e-9);
  }
  template <typename F>
  double mean(F field) const {
    return total(field) / static_cast<double>(replays.size());
  }
};

/// Median over rounds of a per-round figure.
template <typename F>
double over_rounds(const std::vector<Round>& rounds, F figure) {
  std::vector<double> values;
  for (const Round& round : rounds) values.push_back(figure(round));
  return median(std::move(values));
}

/// Median over rounds of one of the sealed figures.
double round_figure(const std::vector<Round>& rounds, const std::string& key) {
  return over_rounds(rounds,
                     [&](const Round& round) { return round.figures.at(key); });
}

void report_end_to_end(const std::vector<Round>& rounds, Result& result) {
  const Round& first = rounds.front();
  std::vector<double> setup;
  for (const Round& round : rounds) {
    for (const Replay& r : round.replays) {
      setup.push_back(r.topology_s + r.workload_s + r.driver_s);
    }
  }
  result.metric("jobs_per_s",
                over_rounds(rounds, [](const Round& r) { return r.jobs_per_s(); }),
                "1/s");
  result.metric("arrival_us_p50",
                round_figure(rounds, "arrival_p50"), "us");
  result.metric("arrival_us_p99",
                round_figure(rounds, "arrival_p99"), "us");
  result.metric("admit_us_p50",
                round_figure(rounds, "admit_p50"), "us");
  result.metric("admit_us_p99",
                round_figure(rounds, "admit_p99"), "us");
  result.metric("read_us_p50", round_figure(rounds, "read_p50"),
                "us");
  result.metric("read_us_p99", round_figure(rounds, "read_p99"),
                "us");
  // Open-loop what-if over each round's measured admission times: one job
  // due every 1/rate seconds, served in order.
  result.metric("max_rps_slo", round_figure(rounds, "max_rps"), "1/s");
  result.metric("jct_mean_s",
                first.mean([](const Replay& r) { return r.quality.jct_mean_s; }),
                "s");
  result.metric(
      "utility_mean",
      first.mean([](const Replay& r) { return r.quality.utility_mean; }),
      "ratio");
  result.metric("makespan_s",
                first.mean([](const Replay& r) { return r.quality.makespan_s; }),
                "s");
  result.metric("setup_s", median(setup), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void report_per_layer(const std::vector<Round>& untraced,
                      const std::vector<Round>& traced, Result& result) {
  // Decorator and DriverReport figures come from the untraced rounds,
  // span self times from the traced ones; counts repeat exactly, so they
  // come from the first round. Times are medians over rounds.
  const Round& u = untraced.front();
  const double decisions = u.total([](const Replay& r) { return r.decisions; });
  const double placements =
      u.total([](const Replay& r) { return r.placements; });
  const double lookups = u.total([](const Replay& r) { return r.cache.lookups; });
  const double hits = u.total([](const Replay& r) { return r.cache.hits; });
  result.metric("sched.place_us_p50",
                round_figure(untraced, "place_p50"), "us");
  result.metric("sched.place_us_p99",
                round_figure(untraced, "place_p99"), "us");
  result.metric("sched.place_s_total", over_rounds(untraced, [](const Round& r) {
                  return r.total([](const Replay& x) { return x.place_us; }) *
                         1e-6;
                }),
                "s");
  result.metric("sched.decisions", decisions, "count");
  result.metric("sched.placements", placements, "count");
  result.metric("sched.place_ratio",
                decisions > 0 ? placements / decisions : 0.0, "ratio");
  result.metric("sched.cache_lookups", lookups, "count");
  result.metric("sched.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                "ratio");
  result.metric("sched.unattributed_us_share",
                over_rounds(untraced, [](const Round& r) {
                  const double advance =
                      r.total([](const Replay& x) { return x.advance_us; });
                  const double attributed = r.total([](const Replay& x) {
                    return x.place_us + x.completion_us;
                  });
                  return advance > 0.0 ? (advance - attributed) / advance : 0.0;
                }),
                "ratio");

  const auto span_total = [&traced](const char* name) {
    return over_rounds(traced, [name](const Round& r) {
      return r.total([name](const Replay& x) {
        const auto it = x.spans.self_us.find(name);
        return it == x.spans.self_us.end() ? 0.0 : it->second;
      });
    });
  };
  const double drb_us = span_total("drb.map");
  const double fm_us = span_total("fm.bipartition");
  result.metric("drb.self_us_total", drb_us, "us");
  result.metric("fm.self_us_total", fm_us, "us");
  const double traced_advance_us = over_rounds(traced, [](const Round& r) {
    return r.total([](const Replay& x) { return x.advance_us; });
  });
  result.metric("partition.advance_share",
                traced_advance_us > 0.0 ? (drb_us + fm_us) / traced_advance_us
                                        : 0.0,
                "ratio");
  result.metric("drb.bipartitions",
                u.total([](const Replay& r) { return r.drb.bipartitions; }),
                "count");
  result.metric("fm.passes",
                u.total([](const Replay& r) { return r.drb.fm_passes; }),
                "count");
  result.metric("sim.events", u.total([](const Replay& r) { return r.events; }),
                "count");
  result.metric("sim.event_self_us_total", span_total("sim.event"), "us");
  double dropped = 0.0;
  for (const Round& r : traced) {
    dropped += r.total([](const Replay& x) { return x.spans.dropped; });
  }
  result.metric("obs.dropped_spans", dropped, "count");
  result.metric(
      "obs.trace_overhead_frac",
      1.0 - over_rounds(traced, [](const Round& r) { return r.jobs_per_s(); }) /
                over_rounds(untraced,
                            [](const Round& r) { return r.jobs_per_s(); }),
      "ratio");
  obs::HistogramData completion;
  for (const Replay& r : u.replays) completion.merge(r.completion_hist);
  result.metric("cluster.completion_us_p50", completion.percentile(0.50),
                "us");
  result.metric("cluster.completion_us_p99", completion.percentile(0.99),
                "us");
  result.metric("cluster.completions",
                u.total([](const Replay& r) { return r.completions; }),
                "count");
  std::vector<double> topology_s;
  std::vector<double> workload_s;
  for (const Replay& r : u.replays) {
    topology_s.push_back(r.topology_s);
    workload_s.push_back(r.workload_s);
  }
  result.metric("setup.topology_s", median(topology_s), "s");
  result.metric("setup.workload_s", median(workload_s), "s");

  // Layers this workload does not exercise read zero.
  for (const char* name :
       {"svc.submit_rtt_us_p99", "svc.advance_rtt_us_p99",
        "svc.read_rtt_us_p99", "svc.core_us_p99", "svc.wire_us_p99",
        "svc.snapshot_us_p50", "shard.route_us_p50", "shard.route_us_p99"}) {
    result.metric(name, 0.0, "us");
  }
  result.metric("svc.gen_late_ms_p99", 0.0, "ms");
  result.metric("svc.snapshot_bytes", 0.0, "bytes");
  result.metric("svc.batch_size_mean", 0.0, "count");
  for (const char* name :
       {"svc.requests", "svc.backpressure", "shard.exhausted"}) {
    result.metric(name, 0.0, "count");
  }
  result.metric("shard.filtered_per_route", 0.0, "ratio");
}

}  // namespace

void run_sim_workload(const RunOptions& options, Result& result) {
  const SimShape shape = shape_for(options);
  const auto k_count = static_cast<std::size_t>(shape.sub_traces);
  std::vector<std::string> digests(k_count);
  std::vector<Round> untraced;
  std::vector<Round> traced;
  constexpr std::size_t kMinRounds = 3;
  const auto start = Clock::now();
  // Traced runs alternate untraced and traced rounds, so both see the
  // same host conditions and their throughput ratio is the tracing
  // overhead.
  for (int i = 0;; ++i) {
    const bool trace_round = options.trace && i % 2 == 1;
    Round round;
    for (std::size_t k = 0; k < k_count; ++k) {
      const std::uint64_t sub_seed =
          util::Rng::for_stream(options.seed, k).next();
      Replay r = replay(shape, sub_seed, trace_round);
      for (const std::string& error : r.errors) result.fail(error);
      result.count_ops(r.ops, r.failed_ops);
      if (r.spans.dropped > 0) result.fail("trace buffers dropped spans");
      if (digests[k].empty()) digests[k] = r.digest;
      if (r.digest != digests[k]) {
        result.fail("sub-trace " + std::to_string(k) + " digest " + r.digest +
                    " differs from its first replay's " + digests[k]);
      }
      round.replays.push_back(std::move(r));
    }
    round.seal(shape.slo_admit_us_p99);
    std::fprintf(stderr, "  round %d%s: %zu x %d jobs, %.0f jobs/s\n", i,
                 trace_round ? " (traced)" : "", k_count, shape.jobs,
                 round.jobs_per_s());
    (trace_round ? traced : untraced).push_back(std::move(round));
    if (options.digest_only) break;
    const bool enough = untraced.size() >= kMinRounds &&
                        (!options.trace || traced.size() >= kMinRounds);
    if (enough && seconds_between(start, Clock::now()) >= options.seconds) {
      break;
    }
  }

  Digest digest;
  for (const std::string& d : digests) {
    for (const char c : d) digest.add_int(c);
  }
  result.set_digest(digest.hex());
  result.set_info("jobs", static_cast<double>(shape.jobs) * shape.sub_traces);
  result.set_info("machines", shape.machines);
  result.set_info("wait_mean_s",
                  untraced.front().mean([](const Replay& r) {
                    return r.quality.wait_mean_s;
                  }));
  result.set_info("rounds", static_cast<double>(untraced.size() + traced.size()));
  if (options.digest_only) return;
  if (options.trace) {
    report_per_layer(untraced, traced, result);
  } else {
    report_end_to_end(untraced, result);
  }
}

}  // namespace perfbench
