// Seeded equivalence suite for the decision-path performance work: every
// hot-path rewrite ships with the original implementation as an oracle and
// is pinned to it here.
//
//   * bucket-list FM == the std::set reference, side-for-side, on 200
//     random graphs x 8 seeds (plus degenerate shapes), with one FmScratch
//     arena reused across all calls and hammered from multiple threads;
//   * TaskUtility's per-bipartition side aggregates == its recompute
//     fallback for GPU vectors begin_bipartition did not announce, to
//     1e-9, across random bipartitions of a live cluster;
//   * placement-cache key equality == equality of an independent byte
//     serialization of every field the evaluation reads
//     (tests/oracles/cache_key_reference.hpp), over the seeded 500-job
//     trace and one-field perturbations of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "oracles/cache_key_reference.hpp"
#include "oracles/fm_reference.hpp"
#include "partition/drb.hpp"
#include "partition/fm.hpp"
#include "perf/model.hpp"
#include "perf/profile.hpp"
#include "sched/placement_cache_key.hpp"
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

// --- cached TaskUtility aggregates vs. the recompute fallback -------------

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

    // `scratch` never sees begin_bipartition, so every call takes the
    // recompute-from-scratch fallback.
    const sched::TaskUtility incremental(request, cluster.state, model);
    const sched::TaskUtility scratch(request, cluster.state, model);
    incremental.begin_bipartition(gpus0, gpus1);

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

  const sched::TaskUtility incremental(request, cluster.state, model);
  const sched::TaskUtility scratch(request, cluster.state, model);

  for (const auto* step :
       {&ab, &ba, &ac, &ab, &ab, &ac, &ba}) {
    incremental.begin_bipartition(step->gpus0, step->gpus1);
    for (int task = 0; task < task_count; ++task) {
      for (const int side : {0, 1}) {
        EXPECT_NEAR(incremental.task_utility(task, side, *step),
                    scratch.task_utility(task, side, *step), 1e-9);
      }
    }
  }
}

// --- placement-cache key vs. an independent reference serialization ------

/// One (request, available) pair of the key corpus. `reads` says whether
/// the evaluation reads the field this probe perturbed (base probes: true).
struct KeyProbe {
  jobgraph::JobRequest request;
  std::vector<int> available;
  std::string label;
  bool reads = true;
};

std::vector<int> random_subset(std::vector<int> pool, size_t size,
                               util::Rng& rng) {
  rng.shuffle(pool);
  pool.resize(size);
  std::sort(pool.begin(), pool.end());
  return pool;
}

jobgraph::JobGraph graph_with_edges(
    int task_count, const std::vector<jobgraph::CommEdge>& edges) {
  jobgraph::JobGraph graph(task_count);
  for (const jobgraph::CommEdge& edge : edges) {
    graph.add_edge(edge.a, edge.b, edge.weight);
  }
  return graph;
}

/// Copies of `base`, each differing from it in exactly one field: every
/// profile field, the request fields, the task count, each endpoint and
/// weight of each comm edge, and each GPU of the available set.
std::vector<KeyProbe> one_field_perturbations(const KeyProbe& base,
                                              int gpu_count) {
  using jobgraph::JobRequest;
  std::vector<KeyProbe> out;
  const auto variant = [&](const std::string& field, bool reads,
                           const auto& mutate) {
    KeyProbe probe = base;
    probe.label = base.label + " " + field;
    probe.reads = reads;
    mutate(probe.request, probe.available);
    out.push_back(std::move(probe));
  };
  using Gpus = std::vector<int>;

  variant("id", false, [](JobRequest& r, Gpus&) { r.id += 100000; });
  variant("arrival_time", false,
          [](JobRequest& r, Gpus&) { r.arrival_time += 1.0; });
  variant("min_utility", false,
          [](JobRequest& r, Gpus&) { r.min_utility += 0.25; });
  variant("num_gpus", true, [](JobRequest& r, Gpus&) { ++r.num_gpus; });
  variant("iterations", true, [](JobRequest& r, Gpus&) { ++r.iterations; });

  variant("nn", true, [](JobRequest& r, Gpus&) {
    r.profile.nn = static_cast<jobgraph::NeuralNet>(
        (static_cast<int>(r.profile.nn) + 1) % 3);
  });
  variant("batch", true, [](JobRequest& r, Gpus&) {
    r.profile.batch = static_cast<jobgraph::BatchClass>(
        (static_cast<int>(r.profile.batch) + 1) % jobgraph::kBatchClassCount);
  });
  variant("batch_size", true,
          [](JobRequest& r, Gpus&) { ++r.profile.batch_size; });
  variant("comm_weight", true,
          [](JobRequest& r, Gpus&) { r.profile.comm_weight += 0.5; });
  variant("solo_time_pack", true,
          [](JobRequest& r, Gpus&) { r.profile.solo_time_pack += 1.0; });
  variant("solo_time_spread", false,
          [](JobRequest& r, Gpus&) { r.profile.solo_time_spread += 1.0; });
  for (int c = 0; c < jobgraph::kBatchClassCount; ++c) {
    variant("collocation_slowdown[" + std::to_string(c) + "]", false,
            [c](JobRequest& r, Gpus&) {
              r.profile.collocation_slowdown[static_cast<size_t>(c)] += 0.01;
            });
  }
  variant("host_bw_demand_gbps", false,
          [](JobRequest& r, Gpus&) { r.profile.host_bw_demand_gbps += 1.0; });
  variant("single_node", true, [](JobRequest& r, Gpus&) {
    r.profile.single_node = !r.profile.single_node;
  });
  variant("anti_collocate", true, [](JobRequest& r, Gpus&) {
    r.profile.anti_collocate = !r.profile.anti_collocate;
  });

  const int tasks = base.request.comm_graph.task_count();
  const std::vector<jobgraph::CommEdge>& edges =
      base.request.comm_graph.edges();
  variant("task_count", true, [&](JobRequest& r, Gpus&) {
    r.comm_graph = graph_with_edges(tasks + 1, edges);
  });
  for (size_t e = 0; e < edges.size(); ++e) {
    const jobgraph::CommEdge edge = edges[e];
    const auto with_edge = [&](jobgraph::CommEdge replacement) {
      return [&edges, tasks, e, replacement](JobRequest& r, Gpus&) {
        std::vector<jobgraph::CommEdge> changed = edges;
        changed[e] = replacement;
        r.comm_graph = graph_with_edges(tasks, changed);
      };
    };
    const std::string name = "edge[" + std::to_string(e) + "]";
    variant(name + ".weight", true,
            with_edge({edge.a, edge.b, edge.weight + 1.0}));
    // Endpoints move one at a time and stay normalized (a < b).
    for (int a = 0; a < edge.b; ++a) {
      if (a == edge.a) continue;
      variant(name + ".a", true, with_edge({a, edge.b, edge.weight}));
      break;
    }
    for (int b = edge.a + 1; b < tasks; ++b) {
      if (b == edge.b) continue;
      variant(name + ".b", true, with_edge({edge.a, b, edge.weight}));
      break;
    }
  }

  int unused = 0;
  while (std::count(base.available.begin(), base.available.end(), unused)) {
    ++unused;
  }
  for (size_t g = 0; g < base.available.size(); ++g) {
    if (unused >= gpu_count) break;
    variant("gpu[" + std::to_string(g) + "]", true,
            [g, unused](JobRequest&, Gpus& a) { a[g] = unused; });
  }
  variant("gpu dropped", true, [](JobRequest&, Gpus& a) { a.pop_back(); });
  return out;
}

// Production key equality must coincide with equality of the reference
// serialization: over the seeded trace x random GPU sets (equal keys
// across distinct jobs), and for each one-field perturbation (a field
// the production stream drops shows up as a key that fails to change).
TEST(CacheKeyOracleTest, KeyEqualityMatchesReferenceOn500JobTrace) {
  const topo::TopologyGraph topology =
      topo::builders::cluster(5, MachineShape::kPower8Minsky);
  const perf::DlWorkloadModel model(perf::CalibrationParams::paper_minsky());
  trace::GeneratorOptions options;
  options.job_count = 500;
  options.seed = 20260806;
  const auto jobs = trace::generate_workload(options, model, topology);
  ASSERT_EQ(jobs.size(), 500u);

  // Per job: a subset of one machine's GPUs (the per-machine candidate
  // sets place_on_best_machine probes) and a subset of the whole cluster.
  util::Rng rng(20260806);
  std::vector<int> all_gpus(static_cast<size_t>(topology.gpu_count()));
  for (int g = 0; g < topology.gpu_count(); ++g) {
    all_gpus[static_cast<size_t>(g)] = g;
  }
  std::vector<KeyProbe> bases;
  for (const jobgraph::JobRequest& job : jobs) {
    const size_t need = static_cast<size_t>(job.num_gpus);
    const int machine =
        static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(
            topology.machine_count())));
    const std::vector<int> machine_gpus = topology.gpus_of_machine(machine);
    if (machine_gpus.size() >= need) {
      const size_t size =
          need + rng.uniform_int(machine_gpus.size() - need + 1);
      bases.push_back({job, random_subset(machine_gpus, size, rng),
                       "job " + std::to_string(job.id) + " machine set"});
    }
    const size_t size = need + rng.uniform_int(all_gpus.size() - need + 1);
    bases.push_back({job, random_subset(all_gpus, size, rng),
                     "job " + std::to_string(job.id) + " cluster set"});
  }

  std::vector<std::string> mismatches;
  const auto mismatch = [&mismatches](const std::string& what) {
    if (mismatches.size() < 20) mismatches.push_back(what);
  };
  std::unordered_map<std::string, sched::PlacementCacheKey> key_of_reference;
  std::unordered_map<sched::PlacementCacheKey, std::string,
                     sched::PlacementCacheKeyHash>
      reference_of_key;
  long long shared_bases = 0;
  long long perturbations = 0;
  const auto check_corpus = [&](const KeyProbe& probe,
                                const sched::PlacementCacheKey& key,
                                const std::string& reference) {
    const auto [by_ref, new_ref] = key_of_reference.emplace(reference, key);
    if (!new_ref && !(by_ref->second == key)) {
      mismatch(probe.label + ": equal reference, different key");
    }
    const auto [by_key, new_key] = reference_of_key.emplace(key, reference);
    if (!new_key && by_key->second != reference) {
      mismatch(probe.label + ": equal key, different reference");
    }
    return !new_ref;
  };

  for (const KeyProbe& base : bases) {
    const sched::PlacementCacheKey base_key =
        sched::hashed_placement_cache_key(base.request, base.available);
    const std::string base_reference =
        oracles::cache_key_reference(base.request, base.available);
    if (check_corpus(base, base_key, base_reference)) ++shared_bases;

    for (const KeyProbe& probe :
         one_field_perturbations(base, topology.gpu_count())) {
      ++perturbations;
      const sched::PlacementCacheKey key =
          sched::hashed_placement_cache_key(probe.request, probe.available);
      const std::string reference =
          oracles::cache_key_reference(probe.request, probe.available);
      const bool reference_equal = reference == base_reference;
      if (reference_equal == probe.reads) {
        mismatch(probe.label + ": reference " +
                 (probe.reads ? "ignores a field the evaluation reads"
                              : "covers a field the evaluation ignores"));
      }
      if ((key == base_key) != reference_equal) {
        mismatch(probe.label + (reference_equal
                                    ? ": key changed, reference did not"
                                    : ": reference changed, key did not"));
      }
      check_corpus(probe, key, reference);
    }
  }

  EXPECT_TRUE(mismatches.empty()) << [&mismatches] {
    std::string joined;
    for (const std::string& line : mismatches) joined += "\n  " + line;
    return joined;
  }();
  // The corpus must exercise both directions: distinct jobs that share a
  // key, and a few thousand single-field differences.
  EXPECT_GT(shared_bases, 0);
  EXPECT_GT(perturbations, 10000);
}

}  // namespace
}  // namespace gts
