// Shared helpers for the table/figure regenerator benchmarks.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "perfmodel/paper_data.h"
#include "perfmodel/scaling.h"

namespace benchutil {

using jitfd::perf::Target;

inline const char* target_name(Target t) {
  return t == Target::Cpu ? "CPU (ARCHER2 node)" : "GPU (Tursa A100-80)";
}

/// Parse "--key=value" style arguments.
inline std::string arg_value(int argc, char** argv, const char* key,
                             const std::string& fallback) {
  const std::string prefix = std::string("--") + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  const std::string want = std::string("--") + flag;
  for (int i = 1; i < argc; ++i) {
    if (want == argv[i]) {
      return true;
    }
  }
  return false;
}

/// Print one model row and, if available, the paper's published values.
inline void print_row_pair(const char* label,
                           const std::vector<double>& model,
                           const jitfd::perf::PaperRow& paper) {
  std::printf("  %-10s model:", label);
  for (const double v : model) {
    std::printf(" %8.1f", v);
  }
  std::printf("\n");
  if (paper.available()) {
    std::printf("  %-10s paper:", "");
    for (const double v : paper.gpts) {
      if (std::isnan(v)) {
        std::printf(" %8s", "-");
      } else {
        std::printf(" %8.1f", v);
      }
    }
    std::printf("\n");
  }
}

/// One measured configuration: N repetitions of the same run plus exact
/// counters (message counts etc.) that do not vary between repetitions.
struct MeasuredSeries {
  std::string name;              ///< e.g. "full/k4".
  std::vector<double> seconds;   ///< Wall seconds, one per repetition.
  std::map<std::string, double> counters;
  /// Perfmodel drift gates: metric -> {|measured - predicted| drift,
  /// allowed band}. The committed baseline's band is the contract the
  /// sentinel holds fresh runs to (src/obs/sentinel.h).
  std::map<std::string, std::pair<double, double>> drift;
};

inline double median_of(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Relative spread (max - min) / median, in percent. The honesty metric
/// committed next to every median: large spreads mean the machine was
/// noisy and the median is soft.
inline double spread_pct_of(const std::vector<double>& v) {
  const double med = median_of(v);
  if (v.empty() || med <= 0.0) {
    return 0.0;
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return 100.0 * (*hi - *lo) / med;
}

/// Machine-readable report for a measured benchmark: median-of-N wall
/// time + spread per series, the machine fields needed to interpret the
/// numbers, and free-form string metadata. This is the shared emitter
/// behind the committed BENCH_*.json artifacts.
inline std::string series_json(
    const std::string& benchmark, const std::string& description,
    const std::vector<MeasuredSeries>& rows,
    const std::vector<std::pair<std::string, std::string>>& meta = {}) {
  std::ostringstream os;
  // Six significant digits: committed baselines gate counters exactly.
  jitfd::obs::json::Writer w(os, jitfd::obs::json::NonFinite::Zero, 3, 6);
  w.begin_object().field("benchmark", benchmark);
  w.field("description", description).key("machine").begin_object();
  w.field("threads_available", std::thread::hardware_concurrency());
#if defined(__VERSION__)
  w.field("compiler", __VERSION__);
#endif
  w.field("pointer_bits", 8 * sizeof(void*)).end_object();
  for (const auto& [key, value] : meta) {
    w.field(key, value);
  }
  w.key("series").begin_array();
  for (const MeasuredSeries& s : rows) {
    w.begin_object().field("name", s.name);
    w.field("repetitions", s.seconds.size());
    w.field("median_seconds", median_of(s.seconds));
    w.field("spread_pct", spread_pct_of(s.seconds));
    for (const auto& [key, value] : s.counters) {
      w.field(key, value);
    }
    if (!s.drift.empty()) {
      w.key("drift").begin_object();
      for (const auto& [metric, gate] : s.drift) {
        w.key(metric).begin_object().field("value", gate.first);
        w.field("band", gate.second).end_object();
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array().end_object();
  return os.str();
}

}  // namespace benchutil
