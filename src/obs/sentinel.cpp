#include "obs/sentinel.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/json_check.h"

namespace jitfd::obs {

namespace {

struct DriftEntry {
  double value = 0.0;  ///< |measured - predicted| of a perfmodel metric.
  double band = 0.0;   ///< Allowed drift (the baseline's is the contract).
};

struct Series {
  double median_seconds = 0.0;
  double spread_pct = 0.0;
  std::map<std::string, double> counters;
  std::map<std::string, DriftEntry> drift;
};

// Fields of a series entry that are not free-form counters.
bool reserved_key(const std::string& k) {
  return k == "name" || k == "repetitions" || k == "median_seconds" ||
         k == "spread_pct" || k == "drift";
}

bool load_series(std::string_view json, std::map<std::string, Series>& out,
                 std::string& err, const char* label) {
  JsonValue root;
  const SchemaCheck check = validate_series_json(json, &root);
  if (!check.ok) {
    err = std::string(label) + ": " + check.error;
    return false;
  }
  for (const JsonValue& s : root.find("series")->arr) {
    Series& entry = out[s.find("name")->str];
    entry.median_seconds = s.find("median_seconds")->num;
    if (const JsonValue* sp = s.find("spread_pct")) {
      entry.spread_pct = sp->num;
    }
    for (const auto& [k, v] : s.obj) {
      if (!reserved_key(k) && v.type == JsonValue::Type::Num) {
        entry.counters[k] = v.num;
      }
    }
    if (const JsonValue* drift = s.find("drift")) {
      for (const auto& [metric, g] : drift->obj) {
        entry.drift[metric] = {g.find("value")->num, g.find("band")->num};
      }
    }
  }
  return true;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

SentinelResult sentinel_compare(std::string_view baseline_json,
                                std::string_view fresh_json,
                                const SentinelOptions& opts) {
  SentinelResult res;
  std::map<std::string, Series> baseline;
  std::map<std::string, Series> fresh;
  if (!load_series(baseline_json, baseline, res.error, "baseline") ||
      !load_series(fresh_json, fresh, res.error, "fresh")) {
    return res;
  }
  if (baseline.empty()) {
    res.error = "baseline: no series to compare";
    return res;
  }

  for (const auto& [name, base] : baseline) {
    ++res.series_checked;
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      res.failures.push_back("series \"" + name +
                             "\" missing from fresh report");
      continue;
    }
    const Series& f = it->second;
    const double fresh_median = f.median_seconds * opts.scale_fresh;

    if (base.median_seconds >= opts.min_seconds &&
        base.median_seconds > 0.0) {
      const double band =
          opts.tolerance_pct + std::max(base.spread_pct, f.spread_pct);
      const double limit = base.median_seconds * (1.0 + band / 100.0);
      if (fresh_median > limit) {
        const double pct =
            100.0 * (fresh_median / base.median_seconds - 1.0);
        res.failures.push_back(
            "series \"" + name + "\" regressed: " + fmt(fresh_median) +
            "s vs baseline " + fmt(base.median_seconds) + "s (+" + fmt(pct) +
            "%, allowed +" + fmt(band) + "%)");
        continue;
      }
      res.notes.push_back("series \"" + name + "\": " + fmt(fresh_median) +
                          "s vs " + fmt(base.median_seconds) + "s (allowed +" +
                          fmt(band) + "%) ok");
    } else {
      res.notes.push_back("series \"" + name +
                          "\": baseline below min-seconds, timing skipped");
    }

    bool counters_ok = true;
    for (const auto& [key, want] : base.counters) {
      const auto cit = f.counters.find(key);
      if (cit == f.counters.end()) {
        res.failures.push_back("series \"" + name +
                               "\" lost counter \"" + key + "\"");
        counters_ok = false;
        continue;
      }
      const double got = cit->second;
      if (got != want) {
        res.failures.push_back("series \"" + name + "\" counter \"" + key +
                               "\" drifted: " + fmt(got) + " vs baseline " +
                               fmt(want));
        counters_ok = false;
      }
    }
    if (counters_ok && !base.counters.empty()) {
      res.notes.push_back("series \"" + name + "\": " +
                          std::to_string(base.counters.size()) +
                          " counters match");
    }

    // Drift gates: the committed band is the perfmodel contract; the
    // fresh measurement must stay inside it even when total time passed.
    bool drift_ok = true;
    for (const auto& [metric, gate] : base.drift) {
      const auto dit = f.drift.find(metric);
      if (dit == f.drift.end()) {
        res.failures.push_back("series \"" + name + "\" lost drift metric \"" +
                               metric + "\"");
        drift_ok = false;
        continue;
      }
      const double fresh_drift = dit->second.value + opts.drift_shift;
      if (fresh_drift > gate.band) {
        res.failures.push_back(
            "series \"" + name + "\" drift metric \"" + metric +
            "\" left the perfmodel band: drift " + fmt(fresh_drift) +
            " vs committed band " + fmt(gate.band));
        drift_ok = false;
      }
    }
    if (drift_ok && !base.drift.empty()) {
      res.notes.push_back("series \"" + name + "\": " +
                          std::to_string(base.drift.size()) +
                          " drift gates inside their bands");
    }
  }

  res.ok = res.failures.empty();
  return res;
}

std::string SentinelResult::report() const {
  std::ostringstream os;
  if (!error.empty()) {
    os << "perf_sentinel: error: " << error << "\n";
    return os.str();
  }
  for (const std::string& n : notes) {
    os << "  " << n << "\n";
  }
  for (const std::string& f : failures) {
    os << "  FAIL: " << f << "\n";
  }
  os << "perf_sentinel: " << series_checked << " series checked, "
     << failures.size() << " regression" << (failures.size() == 1 ? "" : "s")
     << (ok ? " — ok" : " — FAIL") << "\n";
  return os.str();
}

}  // namespace jitfd::obs
