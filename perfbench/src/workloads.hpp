// The benchmark's workloads. Each runs for RunOptions::seconds, checks
// the program's outputs, and fills the Result with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include "common.hpp"

namespace perfbench {

/// sim-paper / sim-multi: sched::Driver in online mode (submit +
/// advance_to per arrival, advance_all at the end) with a timing
/// decorator around Scheduler::place.
void run_sim_workload(const RunOptions& options, Result& result);

/// daemon-mixed: an in-process svc::Server + svc::ServiceCore (4 shards,
/// 500 machines) driven over a Unix socket by one open-loop writer and
/// one fixed-rate reader connection.
void run_daemon_workload(const RunOptions& options, Result& result);

}  // namespace perfbench
