// Dual Recursive Bipartitioning mapper (Algorithms 2 and 3 of the paper,
// after Ercal et al.'s recursive mincut bipartitioning and SCOTCH's DRB).
//
// drb_map() recursively splits the physical GPU set with a
// Fiduccia-Mattheyses mincut on a "closeness" graph (close GPUs attract),
// and splits the job's task set by asking, per task, which side yields the
// higher utility (Algorithm 3). The utility itself — communication cost,
// interference, fragmentation (Eqs. 1-5) — is supplied by the scheduler
// through the DrbCallbacks interface, keeping this module independent of
// cluster state.
//
// The recursion grounds out when a side holds one GPU (map the task) or no
// tasks. Complexity is Theta(|E_A| * log2 |V_P|) per the paper.
#pragma once

#include <vector>

#include "jobgraph/jobgraph.hpp"
#include "partition/bipartition_memo.hpp"
#include "topo/topology.hpp"

namespace gts::partition {

/// Both sides of the current bipartition as seen by Algorithm 3: the
/// available GPUs of each physical side and the tasks already routed to
/// each side.
struct BipartitionView {
  const std::vector<int>& gpus0;
  const std::vector<int>& gpus1;
  const std::vector<int>& tasks0;
  const std::vector<int>& tasks1;
};

/// Scheduler-supplied evaluation of U(task, Py) (Algorithm 3, line 7).
class DrbCallbacks {
 public:
  virtual ~DrbCallbacks() = default;

  /// Called once at the top of each job bipartition, before any
  /// task_utility call against these side GPU sets. The GPU sets are fixed
  /// for the whole bipartition (only the routed task lists grow), so
  /// implementations can compute side aggregates here once instead of per
  /// task_utility call. The referenced vectors stay alive and unchanged
  /// until the next begin_bipartition. Default: no-op.
  virtual void begin_bipartition(const std::vector<int>& gpus0,
                                 const std::vector<int>& gpus1) const {
    (void)gpus0;
    (void)gpus1;
  }

  /// Utility (higher is better) of routing `task` to side `side` (0 or 1)
  /// of the current bipartition.
  virtual double task_utility(int task, int side,
                              const BipartitionView& view) const = 0;
};

/// How the job's tasks may span machines (Section 4.4: the algorithm
/// "preferentially places as many tasks as possible for a job in the same
/// node"; single-node and anti-collocation are job profile constraints).
enum class SpanMode {
  kPreferPack,    // keep tasks on one machine when capacity allows
  kSingleNode,    // tasks MUST share one machine; otherwise unplaceable
  kAntiCollocate, // every task on a distinct machine
};

struct DrbOptions {
  SpanMode span = SpanMode::kPreferPack;
};

/// Logical bipartition work: a physical bipartition served from a
/// BipartitionMemo counts exactly as if FM had run (one bipartition plus
/// the stored pass count), so the figures do not depend on the memo.
struct DrbStats {
  int bipartitions = 0;   // physical bipartition invocations
  int fm_passes = 0;      // total FM passes across bipartitions
  int max_depth = 0;      // recursion depth reached
};

struct DrbResult {
  /// assignment[task] = global GPU id, or -1 when the task could not be
  /// mapped (capacity or constraint failure).
  std::vector<int> assignment;
  bool complete = false;
  DrbStats stats;

  /// GPU ids in task order; empty unless complete.
  std::vector<int> gpus() const;
};

/// Maps every task of `job` onto a distinct GPU from `available_gpus`.
/// `available_gpus` are global GPU indices into `topology` (the output of
/// the scheduler's host-filtering step, i.e. the graph P'). `memo`, when
/// given, serves repeated physical bipartitions (see physical_bipartition).
DrbResult drb_map(const jobgraph::JobGraph& job,
                  const std::vector<int>& available_gpus,
                  const topo::TopologyGraph& topology,
                  const DrbCallbacks& callbacks, const DrbOptions& options = {},
                  BipartitionMemo* memo = nullptr);

/// Bipartitions a GPU set by topology closeness: hierarchical initial split
/// (machines, then sockets, then halves) refined with FM. Exposed for tests
/// and the overhead bench. Returns side (0/1) per position in `gpus`.
///
/// With a `memo`, FM runs (and the closeness graph is built) only on a
/// miss; a hit returns the stored sides, which are identical to what FM
/// would compute. Stats and the drb.bipartitions / fm.passes counters
/// count a hit as a full bipartition; the fm.bipartition span covers only
/// real FM runs, and fm.memo_lookups / fm.memo_hits count memo traffic.
std::vector<int> physical_bipartition(const std::vector<int>& gpus,
                                      const topo::TopologyGraph& topology,
                                      DrbStats* stats = nullptr,
                                      BipartitionMemo* memo = nullptr);

}  // namespace gts::partition
