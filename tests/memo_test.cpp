// Differential suite for the bipartition memo and the batched distance
// pass behind it:
//
//   * TopologyGraph::distances_among == gpu_distance, pair by pair and bit
//     for bit, in dense mode, hierarchical mode and on topologies with
//     non-integer link weights;
//   * physical_bipartition with no memo, a cold memo and a warm memo gives
//     identical sides and DrbStats on seeded random GPU subsets, and the
//     sides match the reference FM run on an independently built
//     closeness graph;
//   * whole traces decide byte-identically with the memo on, off and
//     overflowing its capacity, serially and with parallel scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "cluster/recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "oracles/fm_reference.hpp"
#include "partition/bipartition_memo.hpp"
#include "partition/drb.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "topo/discovery.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace gts {
namespace {

using topo::builders::MachineShape;

/// Level weights whose sums are inexact in binary floating point.
topo::builders::MachineShapeOptions fractional_weights() {
  topo::builders::MachineShapeOptions options;
  options.weights.gpu_adjacent = 0.1;
  options.weights.switch_uplink = 0.7;
  options.weights.socket_uplink = 2.3;
  options.weights.machine_uplink = 13.9;
  return options;
}

constexpr const char* kTwoSocketNumactl = R"(available: 2 nodes (0-1)
node 0 cpus: 0 1 2 3 4 5 6 7
node 1 cpus: 8 9 10 11 12 13 14 15
)";

/// A DGX-1 as topology discovery sees it (the nvidia-smi matrix rendered
/// from the builder), rebuilt with non-integer level weights.
topo::TopologyGraph discovered_fractional_dgx1() {
  auto graph = topo::discovery::build_machine(
      topo::discovery::render_matrix(topo::builders::dgx1()),
      kTwoSocketNumactl, {}, fractional_weights().weights);
  GTS_CHECK(graph.has_value());
  return std::move(*graph);
}

std::vector<int> all_gpus(const topo::TopologyGraph& topology) {
  std::vector<int> gpus(static_cast<size_t>(topology.gpu_count()));
  for (int g = 0; g < topology.gpu_count(); ++g) {
    gpus[static_cast<size_t>(g)] = g;
  }
  return gpus;
}

/// A seeded random subset of 2..max_size GPUs, ascending like the free
/// sets DRB receives.
std::vector<int> random_subset(const topo::TopologyGraph& topology,
                               int max_size, util::Rng& rng) {
  std::vector<int> pool = all_gpus(topology);
  for (size_t i = pool.size() - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.uniform_int(i + 1)]);
  }
  const int limit = std::min(max_size, topology.gpu_count());
  const size_t size = 2 + rng.uniform_int(static_cast<size_t>(limit - 1));
  pool.resize(size);
  std::sort(pool.begin(), pool.end());
  return pool;
}

// --- distances_among vs gpu_distance ---------------------------------------

void expect_bitwise_distances(const topo::TopologyGraph& topology,
                              const std::vector<int>& gpus) {
  std::vector<double> batched;
  topology.distances_among(gpus, batched);
  ASSERT_EQ(batched.size(), gpus.size() * (gpus.size() - 1) / 2);
  size_t pair = 0;
  for (size_t i = 0; i < gpus.size(); ++i) {
    for (size_t j = i + 1; j < gpus.size(); ++j) {
      const double single = topology.gpu_distance(gpus[i], gpus[j]);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[pair]),
                std::bit_cast<std::uint64_t>(single))
          << "gpus " << gpus[i] << "," << gpus[j];
      ++pair;
    }
  }
}

void expect_bitwise_on_subsets(const topo::TopologyGraph& topology) {
  expect_bitwise_distances(topology, all_gpus(topology));
  std::vector<int> reversed = all_gpus(topology);
  std::reverse(reversed.begin(), reversed.end());
  expect_bitwise_distances(topology, reversed);
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    expect_bitwise_distances(
        topology, random_subset(topology, topology.gpu_count(), rng));
  }
}

TEST(DistancesAmongTest, DenseModeMatchesGpuDistanceBitForBit) {
  // 16 Minsky machines / 8 DGX-1s: 64 GPUs, the dense all-pairs table.
  expect_bitwise_on_subsets(
      topo::builders::cluster(16, MachineShape::kPower8Minsky));
  expect_bitwise_on_subsets(topo::builders::cluster(8, MachineShape::kDgx1));
}

TEST(DistancesAmongTest, HierarchicalModeMatchesGpuDistanceBitForBit) {
  // 50 Minsky machines: 200 GPUs, per-machine blocks + root distances.
  expect_bitwise_on_subsets(
      topo::builders::cluster(50, MachineShape::kPower8Minsky));
}

TEST(DistancesAmongTest, NonIntegerWeightsMatchGpuDistanceBitForBit) {
  expect_bitwise_on_subsets(discovered_fractional_dgx1());
  expect_bitwise_on_subsets(topo::builders::cluster(
      20, MachineShape::kDgx1, fractional_weights()));
}

TEST(DistancesAmongTest, FewerThanTwoGpusYieldNoPairs) {
  const topo::TopologyGraph topology = topo::builders::power8_minsky();
  std::vector<double> out{1.0, 2.0};
  topology.distances_among({}, out);
  EXPECT_TRUE(out.empty());
  topology.distances_among({3}, out);
  EXPECT_TRUE(out.empty());
}

// --- physical_bipartition: no memo / cold / warm / oracle -------------------

/// physical_bipartition rebuilt from its definition: closeness graph from
/// per-pair gpu_distance, hierarchical initial split, reference FM.
std::vector<int> oracle_bipartition(const std::vector<int>& gpus,
                                    const topo::TopologyGraph& topology,
                                    int* passes) {
  const int n = static_cast<int>(gpus.size());
  double max_distance = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      max_distance = std::max(
          max_distance, topology.gpu_distance(gpus[static_cast<size_t>(i)],
                                              gpus[static_cast<size_t>(j)]));
    }
  }
  partition::FmGraph graph;
  graph.vertex_count = n;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const double closeness =
          max_distance + 1.0 -
          topology.gpu_distance(gpus[static_cast<size_t>(i)],
                                gpus[static_cast<size_t>(j)]);
      if (closeness > 0.0) graph.edges.push_back({i, j, closeness});
    }
  }

  // First half of the distinct machines (else sockets, else positions)
  // starts on side 0.
  const auto split_by = [&](auto group_of) {
    std::vector<int> groups;
    for (const int gpu : gpus) groups.push_back(group_of(gpu));
    std::vector<int> distinct = groups;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<int> initial;
    if (distinct.size() < 2) return initial;
    const int pivot = distinct[distinct.size() / 2];
    for (const int group : groups) initial.push_back(group < pivot ? 0 : 1);
    return initial;
  };
  std::vector<int> initial = split_by(
      [&](int gpu) { return topology.machine_of_gpu(gpu); });
  if (initial.empty()) {
    initial = split_by([&](int gpu) { return topology.socket_of_gpu(gpu); });
  }
  if (initial.empty()) {
    for (int i = 0; i < n; ++i) initial.push_back(i < n / 2 ? 0 : 1);
  }
  const partition::FmResult fm =
      oracles::fm_bipartition_reference(graph, initial);
  *passes = fm.passes;
  return fm.side;
}

void expect_same_stats(const partition::DrbStats& a,
                       const partition::DrbStats& b,
                       const std::string& context) {
  EXPECT_EQ(a.bipartitions, b.bipartitions) << context;
  EXPECT_EQ(a.fm_passes, b.fm_passes) << context;
  EXPECT_EQ(a.max_depth, b.max_depth) << context;
}

/// Random subsets bipartitioned with no memo, a cold memo and the shared
/// warm memo, all checked against the oracle.
void run_memo_differential(const topo::TopologyGraph& topology,
                           int max_size, partition::BipartitionMemo& warm,
                           std::uint64_t seed) {
  util::Rng rng(seed);
  partition::DrbStats none_stats;
  partition::DrbStats warm_stats;
  for (int trial = 0; trial < 120; ++trial) {
    const std::vector<int> gpus = random_subset(topology, max_size, rng);
    const std::string context = "trial " + std::to_string(trial) +
                                " size " + std::to_string(gpus.size());
    int oracle_passes = 0;
    const std::vector<int> oracle =
        oracle_bipartition(gpus, topology, &oracle_passes);

    partition::BipartitionMemo cold;
    partition::DrbStats cold_stats;
    EXPECT_EQ(partition::physical_bipartition(gpus, topology, &cold_stats,
                                              &cold),
              oracle)
        << context;
    EXPECT_EQ(cold.stats().hits, 0) << context;
    EXPECT_EQ(cold_stats.bipartitions, 1) << context;
    EXPECT_EQ(cold_stats.fm_passes, oracle_passes) << context;

    // Twice each, so the warm memo sees repeats beside first sightings.
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_EQ(partition::physical_bipartition(gpus, topology, &none_stats),
                oracle)
          << context;
      EXPECT_EQ(partition::physical_bipartition(gpus, topology, &warm_stats,
                                                &warm),
                oracle)
          << context << " repeat " << repeat;
    }
  }
  expect_same_stats(warm_stats, none_stats, "warm vs none");
  EXPECT_GE(warm.stats().hits, 120);
  EXPECT_LE(warm.size(), warm.capacity());
}

TEST(BipartitionMemoTest, ColdWarmAndNoMemoAgreeWithOracleOnMinsky50) {
  partition::BipartitionMemo warm;
  run_memo_differential(
      topo::builders::cluster(50, MachineShape::kPower8Minsky), 64, warm, 1);
}

TEST(BipartitionMemoTest, ColdWarmAndNoMemoAgreeWithOracleOnDgx1) {
  partition::BipartitionMemo warm;
  run_memo_differential(topo::builders::cluster(4, MachineShape::kDgx1), 32,
                        warm, 2);
  run_memo_differential(topo::builders::dgx1(), 8, warm, 3);
}

TEST(BipartitionMemoTest, ColdWarmAndNoMemoAgreeWithOracleOnNonIntegerWeights) {
  partition::BipartitionMemo warm;
  run_memo_differential(discovered_fractional_dgx1(), 8, warm, 4);
  run_memo_differential(
      topo::builders::cluster(20, MachineShape::kDgx1, fractional_weights()),
      48, warm, 5);
}

TEST(BipartitionMemoTest, OverflowingCapacityStaysExactAndBounded) {
  partition::BipartitionMemo tiny(4);
  run_memo_differential(
      topo::builders::cluster(50, MachineShape::kPower8Minsky), 24, tiny, 6);
  EXPECT_EQ(tiny.size(), 4u);
  EXPECT_GT(tiny.stats().evictions, 0);
}

TEST(BipartitionMemoTest, EqualDistanceShapesShareEntries) {
  // FM sees positions, not GPU ids: the same shape on another machine is
  // the same FM input.
  const topo::TopologyGraph topology =
      topo::builders::cluster(4, MachineShape::kPower8Minsky);
  partition::BipartitionMemo memo;
  const auto first =
      partition::physical_bipartition({0, 1, 2, 3}, topology, nullptr, &memo);
  const auto second =
      partition::physical_bipartition({8, 9, 10, 11}, topology, nullptr, &memo);
  EXPECT_EQ(first, second);
  EXPECT_EQ(memo.stats().lookups, 2);
  EXPECT_EQ(memo.stats().hits, 1);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(BipartitionMemoTest, HitsCountLogicalWorkButEmitNoFmSpan) {
  obs::reset();
  obs::ObsConfig config;
  config.metrics = true;
  config.tracing = true;
  ASSERT_TRUE(obs::configure(config));
  obs::Registry::instance().reset();

  const topo::TopologyGraph topology =
      topo::builders::cluster(8, MachineShape::kPower8Minsky);
  const std::vector<int> gpus = all_gpus(topology);
  partition::BipartitionMemo memo;
  partition::DrbStats stats;
  for (int i = 0; i < 3; ++i) {
    partition::physical_bipartition(gpus, topology, &stats, &memo);
  }
  const json::Value metrics = obs::Registry::instance().snapshot_json();
  const json::Value trace = obs::trace_to_json();
  obs::reset();

  const json::Value& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("fm.memo_lookups").as_int(), 3);
  EXPECT_EQ(counters.at("fm.memo_hits").as_int(), 2);
  EXPECT_EQ(counters.at("drb.bipartitions").as_int(), 3);
  EXPECT_EQ(counters.at("fm.passes").as_int(), stats.fm_passes);
  EXPECT_EQ(stats.bipartitions, 3);
  int fm_spans = 0;
  for (const json::Value& event : trace.at("traceEvents").as_array()) {
    if (event.at("name").as_string() == "fm.bipartition") ++fm_spans;
  }
  EXPECT_EQ(fm_spans, 1);
}

// --- whole traces: memo on / off / overflowing ------------------------------

/// The seeded trace, with every third job spanning machines (8 or 16
/// GPUs, no single-node constraint) when `multi_machine` is set.
std::vector<jobgraph::JobRequest> seeded_trace(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    int jobs, bool multi_machine) {
  trace::GeneratorOptions options;
  options.job_count = jobs;
  options.seed = 20260806;
  std::vector<jobgraph::JobRequest> trace =
      trace::generate_workload(options, model, topology);
  if (!multi_machine) return trace;
  for (jobgraph::JobRequest& job : trace) {
    if (job.id % 3 != 2) continue;
    const int tasks = (job.id / 3) % 2 == 0 ? 8 : 16;
    jobgraph::JobRequest multi = perf::make_profiled_dl(
        job.id, job.arrival_time, job.profile.nn, job.profile.batch_size,
        tasks, 0.5, model, topology, job.iterations);
    multi.profile.single_node = false;
    job = std::move(multi);
  }
  return trace;
}

struct TraceRun {
  cluster::Recorder recorder;
  partition::DrbStats drb;
  partition::BipartitionMemoStats memo;
};

/// `memo_capacity` 0 runs without a memo; < 0 keeps the default memo.
TraceRun run_trace(const topo::TopologyGraph& topology,
                   const perf::DlWorkloadModel& model,
                   const std::vector<jobgraph::JobRequest>& jobs,
                   bool postpone, int memo_capacity, int threads = 0) {
  sched::TopoAwareScheduler scheduler({}, postpone);
  if (memo_capacity >= 0) {
    scheduler.set_bipartition_memo_capacity_for_test(
        static_cast<std::size_t>(memo_capacity));
  }
  scheduler.set_parallel_scoring(threads);
  sched::DriverOptions options;
  options.record_series = false;
  sched::Driver driver(topology, model, scheduler, options);
  sched::DriverReport report = driver.run(jobs);
  return {std::move(report.recorder), scheduler.drb_stats(),
          scheduler.memo_stats()};
}

void expect_identical_runs(const TraceRun& a, const TraceRun& b,
                           const std::string& context) {
  ASSERT_EQ(a.recorder.records().size(), b.recorder.records().size())
      << context;
  for (size_t i = 0; i < a.recorder.records().size(); ++i) {
    const cluster::JobRecord& x = a.recorder.records()[i];
    const cluster::JobRecord& y = b.recorder.records()[i];
    ASSERT_EQ(x.id, y.id) << context << " record " << i;
    EXPECT_EQ(x.gpus, y.gpus) << context << " job " << x.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.start),
              std::bit_cast<std::uint64_t>(y.start))
        << context << " job " << x.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.end),
              std::bit_cast<std::uint64_t>(y.end))
        << context << " job " << x.id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.placement_utility),
              std::bit_cast<std::uint64_t>(y.placement_utility))
        << context << " job " << x.id;
  }
  expect_same_stats(a.drb, b.drb, context);
}

TEST(BipartitionMemoTraceTest, Seeded500JobTraceIdenticalWithMemoOnAndOff) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(5, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 500, false);
  for (const bool postpone : {false, true}) {
    const std::string context = postpone ? "TOPO-AWARE-P" : "TOPO-AWARE";
    const TraceRun on = run_trace(topology, model, jobs, postpone, -1);
    const TraceRun off = run_trace(topology, model, jobs, postpone, 0);
    ASSERT_EQ(on.recorder.records().size(), 500u);
    expect_identical_runs(on, off, context);
    EXPECT_GT(on.memo.hits, 0) << context;
    EXPECT_EQ(off.memo.lookups, 0) << context;
  }
}

TEST(BipartitionMemoTraceTest, MultiMachineTraceIdenticalOnOffAndOverflowing) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(16, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 150, true);
  const TraceRun off = run_trace(topology, model, jobs, true, 0);
  const TraceRun on = run_trace(topology, model, jobs, true, -1);
  const TraceRun overflowing = run_trace(topology, model, jobs, true, 16);
  expect_identical_runs(on, off, "default memo");
  expect_identical_runs(overflowing, off, "16-entry memo");
  EXPECT_GT(on.memo.hits, 0);
  EXPECT_GT(overflowing.memo.evictions, 0);
}

// Parallel scoring keeps the memo on the decision thread (workers run FM
// without it); decisions and DrbStats match the serial path. Under TSan
// this is the memo's race check.
TEST(BipartitionMemoTraceTest, ParallelScoringMatchesSerialWithMemo) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(12, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 150, true);
  const TraceRun serial = run_trace(topology, model, jobs, true, -1);
  const TraceRun parallel = run_trace(topology, model, jobs, true, -1, 4);
  expect_identical_runs(parallel, serial, "4 scoring threads");
}

}  // namespace
}  // namespace gts
