// gts_perfbench: the repository benchmark binary.
//
//   gts_perfbench --workload sim-paper|sim-multi|daemon-mixed --seed N
//                 --seconds S --trace 0|1 [--jobs N] [--machines M]
//                 [--digest-only]
//
// Prints progress on stderr and, as the last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}},
//  "digest", "errors", "info"}. Exits 1 when an output check fails (the
// metrics object is then empty). perfbench/run.py builds and wraps it.
#include <cstdio>
#include <exception>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  gts::util::CliParser cli;
  cli.add_option("workload", "sim-paper | sim-multi | daemon-mixed", "");
  cli.add_option("seed", "workload seed", "1");
  cli.add_option("seconds", "measurement time", "10");
  cli.add_option("trace", "1 = traced run reporting per-layer metrics", "0");
  cli.add_option("jobs", "trace size override (0 = workload default)", "0");
  cli.add_option("machines", "cluster size override (0 = default)", "0");
  cli.add_flag("digest-only",
               "print the placement digest of the seed's inputs and exit");
  cli.add_option("scratch-dir", "socket and snapshot directory",
                 ".bench_build/run");
  if (auto status = cli.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n%s", status.error().message.c_str(),
                 cli.usage(argv[0]).c_str());
    return 2;
  }
  perfbench::RunOptions options;
  options.workload = cli.get("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.trace = cli.get_int("trace") != 0;
  options.jobs = static_cast<int>(cli.get_int("jobs"));
  options.machines = static_cast<int>(cli.get_int("machines"));
  options.digest_only = cli.has("digest-only");
  options.scratch_dir = cli.get("scratch-dir");
  if (options.seconds <= 0.0 || options.jobs < 0 || options.machines < 0) {
    std::fprintf(stderr, "--seconds must be > 0; --jobs/--machines >= 0\n");
    return 2;
  }

  perfbench::Result result;
  try {
    if (options.workload == "sim-paper" || options.workload == "sim-multi") {
      perfbench::run_sim_workload(options, result);
    } else if (options.workload == "daemon-mixed") {
      perfbench::run_daemon_workload(options, result);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    result.fail(std::string("exception: ") + error.what());
  }
  return result.print();
}
