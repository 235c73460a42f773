/// bench_suite — the repository's benchmark: four workloads that together
/// exercise the run kernel, the executor, adaptive refinement and the
/// hovald service path, cold and on a cache hit.
///
/// Usage:
///   bench_suite --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///               [--smoke]
///
///   --workload  kernel_n32 | refine_n9 | served_cold | served_hot
///   --seed      derives every job of the workload's job list (default 1)
///   --seconds   length of the timed phase (default 20)
///   --trace 1   per-layer run instead of the end-to-end run
///   --smoke     1-second timed phase and one set-up; every gate stays on
///
/// Prints human-readable lines, then one JSON object as the last line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// Exits 0 when every output gate passed, 1 when one failed, 2 on a usage
/// or set-up error (without a JSON line).  bench/suite/run.py builds this
/// binary and runs several workloads; see bench/suite/README.md.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "suite.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "bench_suite: " << problem << "\n"
            << "usage: bench_suite --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke]\n";
  std::exit(2);
}

suite::Options parse_options(int argc, char** argv) {
  suite::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        if (!(options.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") usage("--trace takes 0 or 1");
        options.trace = trace == "1";
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (options.smoke) options.seconds = 1.0;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const suite::Options options = parse_options(argc, argv);
  try {
    const suite::Workload workload = suite::load_workload(options.workload);
    suite::Report report;
    if (options.trace)
      suite::trace_workload(workload, options, report);
    else
      suite::run_workload(workload, options, report);
    return report.print(workload, options);
  } catch (const std::exception& e) {
    std::cerr << "bench_suite " << options.workload << ": " << e.what() << "\n";
    return 2;
  }
}
