// perfbench: one process runs one named workload (see workloads.cpp).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --report FILE [--chrome FILE] [--setup-only]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (v == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return 2;
    }
    ++i;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (a == "--report") {
      opt.report_path = v;
    } else if (a == "--chrome") {
      opt.trace_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.report_path.empty()) {
    std::fprintf(stderr, "perfbench: --workload and --report are required\n");
    return 2;
  }
  try {
    return perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
