// Parallel candidate scoring (DESIGN.md §17): fanning the per-candidate
// DRB + utility evaluations of TopoAwareScheduler across a worker pool
// must be invisible in every observable output. The differential harness
// replays a seeded 500-job trace against the serial oracle
// (parallel_scoring off) and asserts byte-identical scheduling decisions,
// explain JSONL and cache counters at 1, 2 and 8 worker threads, for both
// postponement modes. The negative control flips the test-only
// nondeterministic reduction seam (last-max instead of first-max
// tie-break) and requires the harness to catch the divergence — proving
// the suite would go red if the reduction order ever leaked into
// decisions. CI runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/recorder.hpp"
#include "obs/obs.hpp"
#include "perf/model.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"

namespace gts::sched {
namespace {

using topo::builders::MachineShape;

std::vector<jobgraph::JobRequest> seeded_trace(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    int jobs, std::uint64_t seed) {
  trace::GeneratorOptions options;
  options.job_count = jobs;
  options.seed = seed;
  return trace::generate_workload(options, model, topology);
}

DriverReport run_trace(const topo::TopologyGraph& topology,
                       const perf::DlWorkloadModel& model,
                       TopoAwareScheduler& scheduler,
                       const std::vector<jobgraph::JobRequest>& jobs) {
  DriverOptions options;
  options.record_series = false;
  Driver driver(topology, model, scheduler, options);
  return driver.run(jobs);
}

void expect_identical_records(const cluster::Recorder& parallel,
                              const cluster::Recorder& serial,
                              const std::string& label) {
  ASSERT_EQ(parallel.records().size(), serial.records().size()) << label;
  for (size_t i = 0; i < parallel.records().size(); ++i) {
    const cluster::JobRecord& a = parallel.records()[i];
    const cluster::JobRecord& b = serial.records()[i];
    EXPECT_EQ(a.id, b.id) << label << " record " << i;
    EXPECT_EQ(a.gpus, b.gpus) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.end, b.end) << label << " record " << i;
    EXPECT_DOUBLE_EQ(a.placement_utility, b.placement_utility)
        << label << " record " << i;
    EXPECT_EQ(a.p2p, b.p2p) << label << " record " << i;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

/// Zero out `"decision_us":<number>` values. decision_us is the single
/// documented wall-clock field in explain records (obs/explain.hpp) — it
/// measures the place() call, so it varies between any two runs, serial
/// or not. Everything else must match byte-for-byte.
std::string mask_decision_us(const std::string& bytes) {
  const std::string key = "\"decision_us\":";
  std::string masked;
  masked.reserve(bytes.size());
  size_t pos = 0;
  size_t hit = 0;
  while ((hit = bytes.find(key, pos)) != std::string::npos) {
    const size_t value_begin = hit + key.size();
    size_t value_end = value_begin;
    while (value_end < bytes.size() && bytes[value_end] != ',' &&
           bytes[value_end] != '}') {
      ++value_end;
    }
    masked.append(bytes, pos, value_begin - pos).append("0");
    pos = value_end;
  }
  masked.append(bytes, pos, std::string::npos);
  return masked;
}

// The headline differential: a seeded 500-job trace on an 8-machine
// cluster (large enough that every single-node job takes the pre-scored
// candidate path the parallel scorer fans out) schedules identically —
// same GPUs, same times, same utilities, job by job — at every worker
// count, and the cache/DRB counters match the serial oracle exactly.
TEST(ParallelScoringTest, MatchesSerialOracleOn500JobTrace) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 500, /*seed=*/20260807);

  for (const bool postpone : {false, true}) {
    TopoAwareScheduler serial({}, postpone);
    const DriverReport oracle = run_trace(topology, model, serial, jobs);
    ASSERT_EQ(oracle.recorder.records().size(), 500u);
    EXPECT_EQ(serial.scoring_threads(), 0);

    for (const int threads : {1, 2, 8}) {
      const std::string label = "postpone=" + std::to_string(postpone) +
                                " threads=" + std::to_string(threads);
      TopoAwareScheduler parallel({}, postpone);
      parallel.set_parallel_scoring(threads);
      ASSERT_EQ(parallel.scoring_threads(), threads) << label;
      // CI negative self-test: with GTS_TEST_BREAK_REDUCTION set, the
      // reduction tie-break flips to last-max and this suite MUST go red
      // — a green run under the env var means the harness lost its teeth.
      if (std::getenv("GTS_TEST_BREAK_REDUCTION") != nullptr) {
        parallel.set_nondeterministic_reduction_for_test(true);
      }
      const DriverReport report = run_trace(topology, model, parallel, jobs);

      expect_identical_records(report.recorder, oracle.recorder, label);
      EXPECT_EQ(report.recorder.slo_violations(),
                oracle.recorder.slo_violations())
          << label;

      // Counters are part of the contract: probes happen on the decision
      // thread in candidate order, so hit/miss/flush sequences — not
      // just decisions — must be indistinguishable from serial.
      EXPECT_EQ(parallel.cache_stats().lookups, serial.cache_stats().lookups)
          << label;
      EXPECT_EQ(parallel.cache_stats().hits, serial.cache_stats().hits)
          << label;
      EXPECT_EQ(parallel.cache_stats().invalidations,
                serial.cache_stats().invalidations)
          << label;
      EXPECT_EQ(parallel.drb_stats().bipartitions,
                serial.drb_stats().bipartitions)
          << label;
      EXPECT_EQ(parallel.drb_stats().fm_passes, serial.drb_stats().fm_passes)
          << label;
      EXPECT_EQ(parallel.drb_stats().max_depth, serial.drb_stats().max_depth)
          << label;
    }
  }
}

// Explain output is decision-order bookkeeping, so it must also be
// byte-identical: workers never touch the DecisionScope — candidates are
// replayed on the decision thread in candidate order. The sole exception
// is decision_us, the documented wall-clock latency of place() itself,
// which is masked before comparing; every other byte (candidate lists,
// utilities, sequence numbers, outcomes) must match exactly.
TEST(ParallelScoringTest, ExplainJsonlByteIdenticalAcrossThreadCounts) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 150, /*seed=*/20260807);

  const auto explain_run = [&](int threads, const std::string& path) {
    obs::ObsConfig config;
    config.explain_out = path;
    ASSERT_TRUE(obs::configure(config));
    TopoAwareScheduler scheduler({}, /*postpone=*/true);
    if (threads > 0) scheduler.set_parallel_scoring(threads);
    run_trace(topology, model, scheduler, jobs);
    ASSERT_TRUE(obs::finalize());
    obs::reset();
  };

  const std::string serial_path =
      ::testing::TempDir() + "parallel_scoring_serial.jsonl";
  const std::string parallel_path =
      ::testing::TempDir() + "parallel_scoring_parallel.jsonl";
  explain_run(0, serial_path);
  const std::string serial_bytes = mask_decision_us(read_file(serial_path));
  ASSERT_FALSE(serial_bytes.empty());
  for (const int threads : {2, 8}) {
    explain_run(threads, parallel_path);
    EXPECT_EQ(mask_decision_us(read_file(parallel_path)), serial_bytes)
        << "threads=" << threads;
    std::remove(parallel_path.c_str());
  }
  std::remove(serial_path.c_str());
}

// set_parallel_scoring(0) tears the pool down and restores the serial
// path; re-enabling mid-life keeps decisions identical (the pool is an
// implementation detail, not scheduler state).
TEST(ParallelScoringTest, TogglingThePoolMidLifeKeepsDecisionsIdentical) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 60, /*seed=*/99);

  TopoAwareScheduler serial({}, /*postpone=*/false);
  const DriverReport oracle = run_trace(topology, model, serial, jobs);

  TopoAwareScheduler toggled({}, /*postpone=*/false);
  toggled.set_parallel_scoring(4);
  EXPECT_EQ(toggled.scoring_threads(), 4);
  toggled.set_parallel_scoring(0);
  EXPECT_EQ(toggled.scoring_threads(), 0);
  toggled.set_parallel_scoring(2);
  EXPECT_EQ(toggled.scoring_threads(), 2);
  const DriverReport report = run_trace(topology, model, toggled, jobs);
  expect_identical_records(report.recorder, oracle.recorder, "toggled");
}

// Negative control: the seeded nondeterministic reduction (last-max
// tie-break instead of first-max) must produce a DIFFERENT placement on
// a tie-rich symmetric cluster — the exact failure mode the differential
// suite exists to catch. Eight identical empty machines tie on both the
// pre-score and the utility, so first-max picks machine 0 and last-max
// picks machine 7; if this assertion ever fails, the harness has lost
// its teeth (a broken reduction would sail through green).
TEST(ParallelScoringTest, NondeterministicReductionSeamIsDetected) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  cluster::ClusterState state(topology, model);
  const jobgraph::JobRequest job = jobgraph::JobRequest::make_dl(
      1, 0.0, jobgraph::NeuralNet::kAlexNet, 4, 2, 0.4, 250);

  TopoAwareScheduler serial({}, /*postpone=*/false);
  const auto oracle = serial.place(job, state);
  ASSERT_TRUE(oracle.has_value());

  TopoAwareScheduler faithful({}, /*postpone=*/false);
  faithful.set_parallel_scoring(4);
  const auto same = faithful.place(job, state);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->gpus, oracle->gpus);
  EXPECT_DOUBLE_EQ(same->utility, oracle->utility);

  TopoAwareScheduler broken({}, /*postpone=*/false);
  broken.set_parallel_scoring(4);
  broken.set_nondeterministic_reduction_for_test(true);
  const auto diverged = broken.place(job, state);
  ASSERT_TRUE(diverged.has_value());
  EXPECT_NE(diverged->gpus, oracle->gpus)
      << "the nondeterministic-reduction seam no longer diverges; the "
         "differential suite cannot prove it would catch a real bug";
}

}  // namespace
}  // namespace gts::sched
