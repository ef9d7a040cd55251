// Seeded equivalence suite for the decision-path performance work: every
// hot-path rewrite ships with the original implementation as an oracle and
// is pinned to it here.
//
//   * bucket-list FM == the std::set reference, side-for-side, on 200
//     random graphs x 8 seeds (plus degenerate shapes), with one FmScratch
//     arena reused across all calls and hammered from multiple threads;
//   * TaskUtility's incremental side aggregates == recomputing every
//     factor from scratch, to 1e-9, across random bipartitions of a live
//     cluster;
//   * the hashed placement-cache key == the legacy byte-string key,
//     decision-for-decision, on the seeded 500-job regression trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "cluster/recorder.hpp"
#include "oracles/fm_reference.hpp"
#include "partition/drb.hpp"
#include "partition/fm.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/driver.hpp"
#include "sched/task_utility.hpp"
#include "sched/topo_aware.hpp"
#include "topo/builders.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace gts {
namespace {

using topo::builders::MachineShape;

// --- bucket-list FM vs. the totally-ordered-set oracle ---------------------

partition::FmGraph random_fm_graph(int vertices, double density,
                                   util::Rng& rng) {
  partition::FmGraph graph;
  graph.vertex_count = vertices;
  for (int i = 0; i < vertices; ++i) {
    for (int j = i + 1; j < vertices; ++j) {
      if (rng.uniform() < density) {
        graph.edges.push_back({i, j, rng.uniform(0.0, 5.0)});
      }
    }
  }
  return graph;
}

std::vector<int> random_initial(int vertices, util::Rng& rng) {
  // Alternating split, shuffled: both sides always non-empty for
  // vertices >= 2, with seed-dependent membership.
  std::vector<int> initial(static_cast<size_t>(vertices));
  for (int v = 0; v < vertices; ++v) {
    initial[static_cast<size_t>(v)] = v % 2;
  }
  for (int v = vertices - 1; v > 0; --v) {
    const int swap_with = static_cast<int>(rng.uniform_int(v + 1));
    std::swap(initial[static_cast<size_t>(v)],
              initial[static_cast<size_t>(swap_with)]);
  }
  return initial;
}

void expect_same_result(const partition::FmResult& bucket,
                        const partition::FmResult& reference,
                        const std::string& context) {
  EXPECT_EQ(bucket.side, reference.side) << context;
  EXPECT_DOUBLE_EQ(bucket.cut_weight, reference.cut_weight) << context;
  EXPECT_EQ(bucket.passes, reference.passes) << context;
  EXPECT_DOUBLE_EQ(bucket.initial_cut, reference.initial_cut) << context;
}

// The ISSUE's headline FM property: 200 random graphs x 8 seeds, the
// bucket-list implementation and the set-ordered reference agree on the
// side vectors, the cut and the pass count — with a single scratch arena
// reused across all 1600 calls.
TEST(FmBucketListTest, MatchesReferenceOn200RandomGraphsTimes8Seeds) {
  partition::FmScratch scratch;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    for (int graph_index = 0; graph_index < 200; ++graph_index) {
      const int vertices = 2 + static_cast<int>(rng.uniform_int(30));
      const double density = rng.uniform(0.1, 1.0);
      const partition::FmGraph graph =
          random_fm_graph(vertices, density, rng);
      const std::vector<int> initial = random_initial(vertices, rng);

      partition::FmOptions options;
      if (graph_index % 3 == 1) options.max_side_fraction = 0.75;
      if (graph_index % 5 == 2) options.min_side = 2;

      const partition::FmResult bucket =
          partition::fm_bipartition(graph, initial, options, &scratch);
      const partition::FmResult reference =
          oracles::fm_bipartition_reference(graph, initial, options);
      expect_same_result(bucket, reference,
                         "seed " + std::to_string(seed) + " graph " +
                             std::to_string(graph_index));
    }
  }
}

// Degenerate shapes: empty edge lists, two vertices, all-zero weights,
// equal-gain ties everywhere (uniform weights on a complete graph), and a
// single vertex per side under min_side.
TEST(FmBucketListTest, MatchesReferenceOnDegenerateGraphs) {
  partition::FmScratch scratch;

  partition::FmGraph no_edges;
  no_edges.vertex_count = 6;
  partition::FmGraph pair;
  pair.vertex_count = 2;
  pair.edges.push_back({0, 1, 3.0});
  partition::FmGraph zero_weights;
  zero_weights.vertex_count = 5;
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) zero_weights.edges.push_back({i, j, 0.0});
  }
  partition::FmGraph uniform;  // every move gain ties with every other
  uniform.vertex_count = 8;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) uniform.edges.push_back({i, j, 1.0});
  }

  int case_index = 0;
  for (const partition::FmGraph* graph :
       {&no_edges, &pair, &zero_weights, &uniform}) {
    std::vector<int> initial(static_cast<size_t>(graph->vertex_count));
    for (int v = 0; v < graph->vertex_count; ++v) {
      initial[static_cast<size_t>(v)] = v % 2;
    }
    for (const partition::FmOptions& options :
         {partition::FmOptions{}, partition::FmOptions{8, 1, 0.5}}) {
      expect_same_result(
          partition::fm_bipartition(*graph, initial, options, &scratch),
          oracles::fm_bipartition_reference(*graph, initial, options),
          "degenerate case " + std::to_string(case_index));
    }
    ++case_index;
  }
}

// The race surface TSan watches (CI bench-smoke job): concurrent FM calls
// must be independent, both with explicit per-thread scratch arenas and
// with the nullptr thread-local fallback.
TEST(FmBucketListTest, ConcurrentScratchReuseIsRaceFree) {
  constexpr int kThreads = 4;
  constexpr int kGraphsPerThread = 40;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    workers.emplace_back([thread_index] {
      partition::FmScratch scratch;
      util::Rng rng(1000 + static_cast<std::uint64_t>(thread_index));
      for (int i = 0; i < kGraphsPerThread; ++i) {
        const int vertices = 2 + static_cast<int>(rng.uniform_int(24));
        const partition::FmGraph graph =
            random_fm_graph(vertices, 0.5, rng);
        const std::vector<int> initial = random_initial(vertices, rng);
        // Alternate explicit arena reuse and the thread-local fallback.
        partition::FmScratch* arena = i % 2 == 0 ? &scratch : nullptr;
        const partition::FmResult bucket =
            partition::fm_bipartition(graph, initial, {}, arena);
        const partition::FmResult reference =
            oracles::fm_bipartition_reference(graph, initial, {});
        ASSERT_EQ(bucket.side, reference.side);
        ASSERT_DOUBLE_EQ(bucket.cut_weight, reference.cut_weight);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

// --- incremental TaskUtility aggregates vs. recompute-from-scratch ---------

/// A cluster with enough running jobs that interference and fragmentation
/// terms are non-trivial for later candidates.
struct LiveCluster {
  topo::TopologyGraph topology;
  perf::DlWorkloadModel model;
  cluster::ClusterState state;
  std::vector<jobgraph::JobRequest> requests;

  LiveCluster()
      : topology(topo::builders::cluster(4, MachineShape::kPower8Minsky)),
        model(perf::CalibrationParams::paper_minsky()),
        state(topology, model) {
    trace::GeneratorOptions options;
    options.job_count = 24;
    options.seed = 20260806;
    requests = trace::generate_workload(options, model, topology);
    sched::TopoAwareScheduler scheduler({}, /*postpone=*/false);
    for (const jobgraph::JobRequest& request : requests) {
      // Keep at least 8 GPUs free so the bipartition tests have room.
      if (state.free_gpu_count() <= 8 + request.num_gpus) continue;
      const auto placement = scheduler.place(request, state);
      if (!placement) continue;
      state.place(request, placement->gpus, /*now=*/0.0, placement->utility);
    }
    EXPECT_GT(state.running_job_count(), 0);
  }
};

TEST(TaskUtilityIncrementalTest, MatchesScratchRecomputeOnRandomBipartitions) {
  LiveCluster cluster;
  const sched::UtilityModel model{sched::UtilityWeights{}};
  util::Rng rng(77);

  const std::vector<int> free = cluster.state.free_gpus();
  ASSERT_GE(free.size(), 4u);

  for (int trial = 0; trial < 50; ++trial) {
    const jobgraph::JobRequest& request =
        cluster.requests[static_cast<size_t>(trial) %
                         cluster.requests.size()];
    const int task_count = request.comm_graph.task_count();

    // A random bipartition of a random subset of the free GPUs.
    std::vector<int> pool = free;
    for (size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[rng.uniform_int(i + 1)]);
    }
    const size_t use = 2 + rng.uniform_int(pool.size() - 1);
    const size_t split = 1 + rng.uniform_int(use - 1);
    std::vector<int> gpus0(pool.begin(), pool.begin() + split);
    std::vector<int> gpus1(pool.begin() + split, pool.begin() + use);
    std::sort(gpus0.begin(), gpus0.end());
    std::sort(gpus1.begin(), gpus1.end());

    // Route a random prefix of the tasks to alternating sides.
    std::vector<int> tasks0;
    std::vector<int> tasks1;
    const int routed = static_cast<int>(rng.uniform_int(task_count));
    for (int task = 0; task < routed; ++task) {
      (task % 2 == 0 ? tasks0 : tasks1).push_back(task);
    }
    const partition::BipartitionView view{gpus0, gpus1, tasks0, tasks1};

    const sched::TaskUtility incremental(request, cluster.state, model,
                                         /*incremental=*/true);
    const sched::TaskUtility scratch(request, cluster.state, model,
                                     /*incremental=*/false);
    incremental.begin_bipartition(gpus0, gpus1);
    scratch.begin_bipartition(gpus0, gpus1);

    for (int task = routed; task < task_count; ++task) {
      for (const int side : {0, 1}) {
        const double fast = incremental.task_utility(task, side, view);
        const double slow = scratch.task_utility(task, side, view);
        EXPECT_NEAR(fast, slow, 1e-9)
            << "trial " << trial << " task " << task << " side " << side;
      }
    }
  }
}

// Consecutive bipartitions with swapped and reused side vectors: the
// per-side caches must track the begin_bipartition marks, never serving
// aggregates computed for a previous pair of GPU sets.
TEST(TaskUtilityIncrementalTest, CacheInvalidatesAcrossBipartitions) {
  LiveCluster cluster;
  const sched::UtilityModel model{sched::UtilityWeights{}};
  const jobgraph::JobRequest& request = cluster.requests.front();
  const int task_count = request.comm_graph.task_count();
  ASSERT_GE(task_count, 2);

  const std::vector<int> free = cluster.state.free_gpus();
  ASSERT_GE(free.size(), 6u);
  std::vector<int> a(free.begin(), free.begin() + 2);
  std::vector<int> b(free.begin() + 2, free.begin() + 4);
  std::vector<int> c(free.begin() + 4, free.begin() + 6);
  const std::vector<int> no_tasks;
  const partition::BipartitionView ab{a, b, no_tasks, no_tasks};
  const partition::BipartitionView ba{b, a, no_tasks, no_tasks};
  const partition::BipartitionView ac{a, c, no_tasks, no_tasks};

  const sched::TaskUtility incremental(request, cluster.state, model, true);
  const sched::TaskUtility scratch(request, cluster.state, model, false);

  for (const auto* step :
       {&ab, &ba, &ac, &ab, &ab, &ac, &ba}) {
    incremental.begin_bipartition(step->gpus0, step->gpus1);
    scratch.begin_bipartition(step->gpus0, step->gpus1);
    for (int task = 0; task < task_count; ++task) {
      for (const int side : {0, 1}) {
        EXPECT_NEAR(incremental.task_utility(task, side, *step),
                    scratch.task_utility(task, side, *step), 1e-9);
      }
    }
  }
}

// --- hashed cache key vs. the legacy byte-string key -----------------------

std::vector<jobgraph::JobRequest> seeded_trace(
    const perf::DlWorkloadModel& model, const topo::TopologyGraph& topology,
    int jobs, std::uint64_t seed) {
  trace::GeneratorOptions options;
  options.job_count = jobs;
  options.seed = seed;
  return trace::generate_workload(options, model, topology);
}

sched::DriverReport run_trace(const topo::TopologyGraph& topology,
                              const perf::DlWorkloadModel& model,
                              sched::TopoAwareScheduler& scheduler,
                              const std::vector<jobgraph::JobRequest>& jobs) {
  sched::DriverOptions options;
  options.record_series = false;
  sched::Driver driver(topology, model, scheduler, options);
  return driver.run(jobs);
}

void expect_identical_records(const cluster::Recorder& hashed,
                              const cluster::Recorder& string_keyed) {
  ASSERT_EQ(hashed.records().size(), string_keyed.records().size());
  for (size_t i = 0; i < hashed.records().size(); ++i) {
    const cluster::JobRecord& a = hashed.records()[i];
    const cluster::JobRecord& b = string_keyed.records()[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.gpus, b.gpus) << "record " << i;
    EXPECT_DOUBLE_EQ(a.start, b.start) << "record " << i;
    EXPECT_DOUBLE_EQ(a.end, b.end) << "record " << i;
    EXPECT_DOUBLE_EQ(a.placement_utility, b.placement_utility)
        << "record " << i;
    EXPECT_EQ(a.p2p, b.p2p) << "record " << i;
  }
}

// The 128-bit FNV-1a key plus equality payload must reproduce the string
// key's decisions exactly on the seeded 500-job regression trace — same
// GPUs, times and utilities job by job, same hit statistics, for both
// postponement modes.
TEST(HashedCacheKeyTest, MatchesStringKeyDecisionsOn500JobTrace) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(5, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  const auto jobs = seeded_trace(model, topology, 500, /*seed=*/20260806);

  for (const bool postpone : {false, true}) {
    sched::TopoAwareScheduler hashed({}, postpone);
    const sched::DriverReport hashed_report =
        run_trace(topology, model, hashed, jobs);

    sched::TopoAwareScheduler string_keyed({}, postpone);
    string_keyed.set_string_cache_keys_for_test(true);
    const sched::DriverReport string_report =
        run_trace(topology, model, string_keyed, jobs);

    ASSERT_EQ(hashed_report.recorder.records().size(), 500u);
    expect_identical_records(hashed_report.recorder, string_report.recorder);
    EXPECT_EQ(hashed_report.recorder.slo_violations(),
              string_report.recorder.slo_violations());

    // Both key schemes must see the same cache traffic: same lookups and
    // the same hits (a diverging hit count would mean a collision or a
    // dropped field in one of the keys).
    EXPECT_EQ(hashed.cache_stats().lookups,
              string_keyed.cache_stats().lookups)
        << "postpone=" << postpone;
    EXPECT_EQ(hashed.cache_stats().hits, string_keyed.cache_stats().hits)
        << "postpone=" << postpone;
    if (postpone) {
      EXPECT_GT(hashed.cache_stats().hits, 0);
    }
  }
}

}  // namespace
}  // namespace gts
