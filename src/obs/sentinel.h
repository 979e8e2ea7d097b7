// Perf-regression sentinel: compares a freshly produced bench report
// against a committed bench/BENCH_*.json baseline, both in the shared
// bench_util.h series_json schema, and fails when a series regressed.
//
// Comparison rules (per baseline series, matched to the fresh report by
// name):
//  * a series missing from the fresh report is a failure — coverage
//    can only grow;
//  * median_seconds may exceed the baseline by at most
//    tolerance_pct + max(spread_pct of both sides): the committed
//    spread is the honesty metric, so a noisy baseline buys a wider
//    band rather than a flaky gate;
//  * series whose baseline median is below min_seconds skip the time
//    check (too fast to time reliably) but still check counters;
//  * machine-independent counters (any extra numeric field next to
//    median_seconds: message counts, bytes, exchanges) must match
//    exactly;
//  * drift gates (an optional "drift" object per series: metric ->
//    {value, band}) check the fresh |measured - predicted| drift of a
//    perfmodel metric against the band committed in the BASELINE — the
//    model is the contract, so the fresh run must stay inside the
//    committed band regardless of what the fresh band says. A drift
//    metric missing from the fresh report is a failure.
//
// This is a library (tools/perf_sentinel is a thin CLI) so the rules
// themselves are unit-tested, including the injected-slowdown self-test
// the CI job runs with --scale-fresh.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace jitfd::obs {

struct SentinelOptions {
  double tolerance_pct = 25.0;  ///< Base allowance on median_seconds.
  double min_seconds = 0.0;     ///< Baseline medians below this skip timing.
  double scale_fresh = 1.0;     ///< Multiplier on fresh medians (self-test).
  /// Added to every fresh drift value (injected-regression self-test,
  /// the drift analogue of scale_fresh).
  double drift_shift = 0.0;
};

struct SentinelResult {
  bool ok = false;
  int series_checked = 0;
  std::vector<std::string> failures;  ///< Empty when ok.
  std::vector<std::string> notes;     ///< Per-series pass lines.
  std::string error;  ///< Parse/schema failure (distinct from regression).

  /// Human-readable digest of notes + failures.
  std::string report() const;
};

/// Compare two series_json documents (baseline = committed artifact,
/// fresh = just-measured report). A malformed document sets `error` and
/// leaves ok == false with no failures.
SentinelResult sentinel_compare(std::string_view baseline_json,
                                std::string_view fresh_json,
                                const SentinelOptions& opts = {});

}  // namespace jitfd::obs
