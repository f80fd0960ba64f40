// perfbench: the repository benchmark driver.
//
//   perfbench --workload <interactive|multitenant|process_cluster>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write a Chrome trace into Options::out_dir. The
// last line of standard output is the result object; the exit code is
// non-zero when any query failed or returned a wrong result, or a leak was
// found.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  report.Note("workload " + options.workload + ", seed " +
              std::to_string(options.seed) + ", " +
              std::to_string(options.seconds) + " s, trace " +
              (options.trace ? "on" : "off"));
  report.Note("nproc " + std::to_string(std::thread::hardware_concurrency()) +
              ", build " PERFBENCH_BUILD_TYPE ", git " + options.git_sha);
  if (!perfbench::RunWorkload(options, &report)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  return report.Finish(options.trace);
}
