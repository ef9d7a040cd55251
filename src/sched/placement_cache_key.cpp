#include "sched/placement_cache_key.hpp"

#include "util/fnv.hpp"

namespace gts::sched {

PlacementCacheKey hashed_placement_cache_key(
    const jobgraph::JobRequest& request, const std::vector<int>& available) {
  util::Fnv128 fnv;
  fnv.add_int(static_cast<int>(available.size()));
  for (const int gpu : available) fnv.add_int(gpu);
  const jobgraph::JobProfile& profile = request.profile;
  fnv.add_int(request.num_gpus);
  fnv.add_int(static_cast<int>(profile.nn));
  fnv.add_int(static_cast<int>(profile.batch));
  fnv.add_int(profile.batch_size);
  fnv.add_int((profile.single_node ? 1 : 0) |
              (profile.anti_collocate ? 2 : 0));
  fnv.add_double(profile.comm_weight);
  // The utility's Eq. 4 solo time is solo_time_pack / iterations.
  fnv.add_double(profile.solo_time_pack);
  fnv.bytes(&request.iterations, sizeof(request.iterations));
  fnv.add_int(request.comm_graph.task_count());
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    fnv.add_int(edge.a);
    fnv.add_int(edge.b);
    fnv.add_double(edge.weight);
  }
  PlacementCacheKey key;
  key.h1 = fnv.h1();
  key.h2 = fnv.h2();
  key.available_count = static_cast<std::uint32_t>(available.size());
  key.first_gpu = available.empty() ? -1 : available.front();
  key.last_gpu = available.empty() ? -1 : available.back();
  key.num_gpus = request.num_gpus;
  key.task_count = request.comm_graph.task_count();
  return key;
}

}  // namespace gts::sched
