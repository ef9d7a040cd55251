// Placement-cache keys for TopoAwareScheduler::map_onto().
//
// The key serializes exactly the request fields the DRB + utility
// evaluation reads besides cluster state: the candidate GPU set, the job's
// shape and comm graph, and the solo-time anchors of Eq. 4. Job id and
// min_utility are deliberately excluded — the id only feeds co_runners()
// as a self-exclusion (a queued job is never running), and min_utility
// only gates the `satisfied` bit, recomputed per request. Profile fields
// the evaluation never reads (host bandwidth demand, already applied by
// host filtering; the spread solo time; the collocation row) are left
// out too.
//
// The key streams those fields through two independent 64-bit FNV-1a
// accumulators (128 hash bits total) and carries a cheap equality payload
// (set size, first/last GPU, job shape) — no per-lookup allocation. A
// spurious hit would need a simultaneous collision of both accumulators
// AND an identical payload; at the cache's size (thousands of entries per
// allocation epoch) the probability is negligible. tests/perf_path_test.cpp
// pins key equality to an independent byte serialization of the fields
// the evaluation reads (tests/oracles/cache_key_reference.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "jobgraph/jobgraph.hpp"

namespace gts::sched {

struct PlacementCacheKey {
  std::uint64_t h1 = 0;  // FNV-1a, standard offset basis
  std::uint64_t h2 = 0;  // FNV-1a, independent offset basis
  // Equality payload: cheap fields compared verbatim on lookup.
  std::uint32_t available_count = 0;
  std::int32_t first_gpu = -1;
  std::int32_t last_gpu = -1;
  std::int32_t num_gpus = 0;
  std::int32_t task_count = 0;

  bool operator==(const PlacementCacheKey& other) const = default;
};

struct PlacementCacheKeyHash {
  size_t operator()(const PlacementCacheKey& key) const noexcept {
    return static_cast<size_t>(key.h1);
  }
};

/// The key of (request, available): hashed, allocation-free.
PlacementCacheKey hashed_placement_cache_key(
    const jobgraph::JobRequest& request, const std::vector<int>& available);

}  // namespace gts::sched
