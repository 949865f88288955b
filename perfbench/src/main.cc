// perfbench: the repository benchmark. Runs one workload per process and
// prints every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload {train,serve,live} --seed N --seconds S
//             --trace {0,1} [--out-dir DIR]
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// result line says "correct": false), 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "report.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{train,serve,live} --seed N --seconds S --trace {0,1} "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a large block is freed, so
  // whether a freed snapshot's pages stay resident depends on timing and
  // peak RSS wanders by tens of MB between identical runs. A fixed
  // threshold returns every block of 1 MB or more to the system when
  // freed, which makes peak_rss_mb repeatable.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  perfbench::Report report;
  report.Info("workload", options.workload);
  report.Info("seed", std::to_string(options.seed));
  report.Info("trace", options.trace ? "1" : "0");
  if (options.workload == "train") {
    perfbench::RunTrain(options, &report);
  } else if (options.workload == "serve") {
    perfbench::RunServe(options, &report);
  } else if (options.workload == "live") {
    perfbench::RunLive(options, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  report.Print(options.trace);
  return report.correct() ? 0 : 1;
}
