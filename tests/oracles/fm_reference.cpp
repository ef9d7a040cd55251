#include "oracles/fm_reference.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "check/check.hpp"

namespace gts::oracles {

namespace {

/// Adjacency built once per call; graphs are small and short-lived.
struct Adjacency {
  struct Neighbor {
    int vertex;
    double weight;
  };
  std::vector<std::vector<Neighbor>> lists;

  explicit Adjacency(const partition::FmGraph& graph)
      : lists(static_cast<size_t>(graph.vertex_count)) {
    for (const partition::FmGraph::Edge& edge : graph.edges) {
      lists[static_cast<size_t>(edge.a)].push_back({edge.b, edge.weight});
      lists[static_cast<size_t>(edge.b)].push_back({edge.a, edge.weight});
    }
  }
};

/// Gain of moving `v` to the other side: external weight - internal weight.
double vertex_gain(const Adjacency& adj, const std::vector<int>& side, int v) {
  double gain = 0.0;
  for (const auto& n : adj.lists[static_cast<size_t>(v)]) {
    gain += (side[static_cast<size_t>(n.vertex)] != side[static_cast<size_t>(v)])
                ? n.weight
                : -n.weight;
  }
  return gain;
}

}  // namespace

partition::FmResult fm_bipartition_reference(
    const partition::FmGraph& graph, std::vector<int> initial,
    const partition::FmOptions& options) {
  const int n = graph.vertex_count;
  GTS_CHECK_EQ(static_cast<int>(initial.size()), n);

  partition::FmResult result;
  result.side = std::move(initial);
  result.initial_cut = partition::cut_weight(graph, result.side);
  result.cut_weight = result.initial_cut;
  if (n < 2) return result;

  const Adjacency adj(graph);
  int max_side = static_cast<int>(options.max_side_fraction *
                                  static_cast<double>(n));
  max_side = std::max(max_side, n / 2 + 1);
  max_side = std::min(max_side, n - options.min_side);

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++result.passes;
    std::vector<int> side = result.side;
    int count0 = static_cast<int>(
        std::count(side.begin(), side.end(), 0));

    // Gain-ordered set of movable vertices: (-gain, vertex) so the best
    // gain pops first and equal gains resolve to the lowest vertex id.
    std::vector<double> gain(static_cast<size_t>(n));
    std::set<std::pair<double, int>> order;
    for (int v = 0; v < n; ++v) {
      gain[static_cast<size_t>(v)] = vertex_gain(adj, side, v);
      order.insert({-gain[static_cast<size_t>(v)], v});
    }

    struct Move {
      int vertex;
      double cumulative_cut;
    };
    std::vector<Move> moves;
    moves.reserve(static_cast<size_t>(n));
    std::vector<bool> locked(static_cast<size_t>(n), false);
    double running_cut = result.cut_weight;

    while (!order.empty()) {
      auto it = order.begin();
      int chosen = -1;
      for (; it != order.end(); ++it) {
        const int v = it->second;
        const int from = side[static_cast<size_t>(v)];
        const int count0_after = count0 + (from == 0 ? -1 : +1);
        const int count1_after = n - count0_after;
        if (count0_after >= options.min_side &&
            count1_after >= options.min_side && count0_after <= max_side &&
            count1_after <= max_side) {
          chosen = v;
          break;
        }
      }
      if (chosen < 0) break;  // no legal move remains
      order.erase(it);
      locked[static_cast<size_t>(chosen)] = true;

      const int from = side[static_cast<size_t>(chosen)];
      side[static_cast<size_t>(chosen)] = 1 - from;
      count0 += (from == 0 ? -1 : +1);
      running_cut -= gain[static_cast<size_t>(chosen)];
      moves.push_back({chosen, running_cut});

      for (const auto& nb : adj.lists[static_cast<size_t>(chosen)]) {
        if (locked[static_cast<size_t>(nb.vertex)]) continue;
        order.erase({-gain[static_cast<size_t>(nb.vertex)], nb.vertex});
        if (side[static_cast<size_t>(nb.vertex)] == from) {
          gain[static_cast<size_t>(nb.vertex)] += 2 * nb.weight;
        } else {
          gain[static_cast<size_t>(nb.vertex)] -= 2 * nb.weight;
        }
        order.insert({-gain[static_cast<size_t>(nb.vertex)], nb.vertex});
      }
    }

    double best_cut = result.cut_weight;
    int best_prefix = 0;
    for (size_t i = 0; i < moves.size(); ++i) {
      if (moves[i].cumulative_cut < best_cut - 1e-12) {
        best_cut = moves[i].cumulative_cut;
        best_prefix = static_cast<int>(i) + 1;
      }
    }
    if (best_prefix == 0) break;  // converged

    for (int i = 0; i < best_prefix; ++i) {
      const int v = moves[static_cast<size_t>(i)].vertex;
      result.side[static_cast<size_t>(v)] = 1 - result.side[static_cast<size_t>(v)];
    }
    result.cut_weight = best_cut;
  }

  result.cut_weight = partition::cut_weight(graph, result.side);
  return result;
}

}  // namespace gts::oracles
