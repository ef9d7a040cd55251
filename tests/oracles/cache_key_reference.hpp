// Test oracle: the placement-cache key's domain written out as bytes.
//
// TopoAwareScheduler memoizes drb_place(request, available, state) within
// one allocation epoch, so two (request, available) pairs may share a
// cache entry only if the DRB + utility evaluation cannot tell them apart.
// This serialization lists, independently of the production key stream
// (src/sched/placement_cache_key.cpp), every field that evaluation reads:
//
//   * available      — the candidate GPU ids, in order (DRB input);
//   * num_gpus       — the best-case comm cost the utility normalizes by;
//   * comm graph     — task count and every edge (a, b, weight), in order
//                      (DRB, TaskUtility, normalized comm weight, model);
//   * nn, batch_size — the performance model's compute and transfer terms;
//   * batch          — the interference factor of the candidate's class;
//   * comm_weight    — the model's per-edge communication scale;
//   * single_node, anti_collocate — the DRB span mode;
//   * solo_time_pack, iterations  — the per-iteration solo time in Eq. 4.
//
// Left out on purpose: id (only a co-runner self-exclusion; a queued job
// never runs), arrival_time, min_utility (the `satisfied` bit is
// recomputed per request), host_bw_demand_gbps (read by host filtering,
// whose output is `available`), solo_time_spread and collocation_slowdown
// (profiling metadata the model does not read).
//
// Two pairs serialize to equal bytes iff they agree on every listed field;
// perf_path_test asserts production key equality matches that relation.
#pragma once

#include <string>
#include <vector>

#include "jobgraph/jobgraph.hpp"

namespace gts::oracles {

std::string cache_key_reference(const jobgraph::JobRequest& request,
                                const std::vector<int>& available);

}  // namespace gts::oracles
