// Test oracle: the original Fiduccia-Mattheyses implementation over a
// totally ordered std::set<(-gain, vertex)>, before the production path
// moved to bucket lists (src/partition/fm.cpp). It is move-for-move
// identical to partition::fm_bipartition — same sides, cut and pass count
// — and the equivalence suites (perf_path_test, memo_test) pin the
// production FM to it.
#pragma once

#include <vector>

#include "partition/fm.hpp"

namespace gts::oracles {

partition::FmResult fm_bipartition_reference(
    const partition::FmGraph& graph, std::vector<int> initial,
    const partition::FmOptions& options = {});

}  // namespace gts::oracles
