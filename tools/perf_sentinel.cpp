// perf_sentinel: CI gate comparing a freshly measured bench report
// against a committed bench/BENCH_*.json baseline (both in the shared
// bench_util.h series_json schema).
//
//   perf_sentinel --baseline=FILE --fresh=FILE
//                 [--tolerance-pct=25] [--min-seconds=0]
//                 [--scale-fresh=1.0] [--drift-shift=0.0]
//
// Per-series rules live in obs/sentinel.h: medians may exceed the
// baseline by tolerance-pct plus the larger committed spread_pct;
// series faster than min-seconds skip the timing check; counters must
// match exactly; perfmodel drift gates must stay inside the band
// committed in the baseline.
// --scale-fresh multiplies the fresh medians — CI uses 1.2 to prove
// the gate trips on an injected 20% slowdown. --drift-shift adds to
// the fresh drift values, the equivalent self-test for drift gates.
//
// Exit codes: 0 pass, 1 regression, 2 usage or malformed input.
#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/json.h"
#include "obs/sentinel.h"

namespace {

std::string arg_value(int argc, char** argv, const char* key,
                      const std::string& fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      return arg.substr(prefix.size());
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string baseline_path = arg_value(argc, argv, "baseline", "");
  const std::string fresh_path = arg_value(argc, argv, "fresh", "");
  if (baseline_path.empty() || fresh_path.empty()) {
    std::cerr << "usage: perf_sentinel --baseline=FILE --fresh=FILE "
                 "[--tolerance-pct=N] [--min-seconds=X] "
                 "[--scale-fresh=X] [--drift-shift=X]\n";
    return 2;
  }

  jitfd::obs::SentinelOptions opts;
  opts.tolerance_pct =
      std::atof(arg_value(argc, argv, "tolerance-pct", "25").c_str());
  opts.min_seconds =
      std::atof(arg_value(argc, argv, "min-seconds", "0").c_str());
  opts.scale_fresh =
      std::atof(arg_value(argc, argv, "scale-fresh", "1").c_str());
  opts.drift_shift =
      std::atof(arg_value(argc, argv, "drift-shift", "0").c_str());

  std::string baseline_json;
  std::string fresh_json;
  if (!jitfd::obs::json::read_file(baseline_path, baseline_json)) {
    std::cerr << "perf_sentinel: cannot open " << baseline_path << '\n';
    return 2;
  }
  if (!jitfd::obs::json::read_file(fresh_path, fresh_json)) {
    std::cerr << "perf_sentinel: cannot open " << fresh_path << '\n';
    return 2;
  }

  const jitfd::obs::SentinelResult res =
      jitfd::obs::sentinel_compare(baseline_json, fresh_json, opts);
  std::cout << "perf_sentinel: " << fresh_path << " vs baseline "
            << baseline_path << '\n'
            << res.report();
  if (!res.error.empty()) {
    return 2;
  }
  return res.ok ? 0 : 1;
}
