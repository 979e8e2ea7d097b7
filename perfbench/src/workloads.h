// The benchmark's workloads: seeded inputs, cold set-up, the timed
// window of repeated solves, output verification against the reference
// interpreter, and (traced runs) per-layer measurements taken by calling
// each module's public functions from here.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Build the workload cold and stop before the first timed step (one
  /// set-up sample; run.py starts several such processes).
  bool setup_only = false;
  std::string report_path;  ///< JSON report written here.
  std::string trace_path;   ///< Chrome trace (traced runs only).
};

/// Runs one workload and writes its report. Returns a process exit code.
int run_workload(const Options& opt);

}  // namespace perfbench
