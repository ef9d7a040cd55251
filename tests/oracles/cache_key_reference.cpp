#include "oracles/cache_key_reference.hpp"

#include <cstdint>
#include <cstring>
#include <utility>

namespace gts::oracles {

namespace {

/// Appends one field as a tag byte followed by the value's raw bytes, so
/// fields can never run into each other and doubles compare bit for bit.
class Writer {
 public:
  template <typename T>
  void field(char tag, T value) {
    out_.push_back(tag);
    char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    out_.append(bytes, sizeof(T));
  }

  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

}  // namespace

std::string cache_key_reference(const jobgraph::JobRequest& request,
                                const std::vector<int>& available) {
  Writer w;
  w.field('A', static_cast<std::uint64_t>(available.size()));
  for (const int gpu : available) w.field('g', static_cast<std::int64_t>(gpu));

  w.field('N', static_cast<std::int64_t>(request.num_gpus));
  w.field('I', static_cast<std::int64_t>(request.iterations));

  const jobgraph::JobProfile& profile = request.profile;
  w.field('n', static_cast<std::int64_t>(profile.nn));
  w.field('b', static_cast<std::int64_t>(profile.batch));
  w.field('s', static_cast<std::int64_t>(profile.batch_size));
  w.field('w', profile.comm_weight);
  w.field('p', profile.solo_time_pack);
  w.field('1', static_cast<std::uint8_t>(profile.single_node));
  w.field('2', static_cast<std::uint8_t>(profile.anti_collocate));

  const jobgraph::JobGraph& graph = request.comm_graph;
  w.field('T', static_cast<std::int64_t>(graph.task_count()));
  w.field('E', static_cast<std::uint64_t>(graph.edges().size()));
  for (const jobgraph::CommEdge& edge : graph.edges()) {
    w.field('a', static_cast<std::int64_t>(edge.a));
    w.field('z', static_cast<std::int64_t>(edge.b));
    w.field('e', edge.weight);
  }
  return w.take();
}

}  // namespace gts::oracles
