#include "sched/placement_cache_key.hpp"

#include "util/fnv.hpp"

namespace gts::sched {

namespace {

void key_append(std::string* key, const void* bytes, size_t size) {
  key->append(static_cast<const char*>(bytes), size);
}

void key_append_int(std::string* key, int value) {
  key_append(key, &value, sizeof(value));
}

void key_append_double(std::string* key, double value) {
  key_append(key, &value, sizeof(value));
}

/// Streams the key fields through any sink with add_int/add_double; the
/// hashed and string keys stay field-for-field identical by construction.
template <typename Sink>
void stream_key_fields(Sink& sink, const jobgraph::JobRequest& request,
                       const std::vector<int>& available) {
  sink.add_int(static_cast<int>(available.size()));
  for (const int gpu : available) sink.add_int(gpu);
  const jobgraph::JobProfile& profile = request.profile;
  sink.add_int(request.num_gpus);
  sink.add_int(static_cast<int>(profile.nn));
  sink.add_int(static_cast<int>(profile.batch));
  sink.add_int(profile.batch_size);
  sink.add_int((profile.single_node ? 1 : 0) |
               (profile.anti_collocate ? 2 : 0));
  sink.add_double(profile.comm_weight);
  sink.add_double(profile.host_bw_demand_gbps);
  sink.add_double(profile.solo_time_pack);
  sink.add_double(profile.solo_time_spread);
  for (const double slowdown : profile.collocation_slowdown) {
    sink.add_double(slowdown);
  }
  sink.add_int(request.comm_graph.task_count());
  for (const jobgraph::CommEdge& edge : request.comm_graph.edges()) {
    sink.add_int(edge.a);
    sink.add_int(edge.b);
    sink.add_double(edge.weight);
  }
}

struct StringSink {
  std::string* key;
  void add_int(int value) { key_append_int(key, value); }
  void add_double(double value) { key_append_double(key, value); }
};

}  // namespace

PlacementCacheKey hashed_placement_cache_key(
    const jobgraph::JobRequest& request, const std::vector<int>& available) {
  util::Fnv128 fnv;
  stream_key_fields(fnv, request, available);
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

std::string string_placement_cache_key(const jobgraph::JobRequest& request,
                                       const std::vector<int>& available) {
  std::string key;
  key.reserve(64 + available.size() * sizeof(int) +
              request.comm_graph.edges().size() * (2 * sizeof(int) + 8));
  StringSink sink{&key};
  stream_key_fields(sink, request, available);
  return key;
}

}  // namespace gts::sched
