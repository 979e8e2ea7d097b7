// trace_check: CI gate validating observability artifacts.
//
//   trace_check [trace.json] [--min-ranks N] [--min-events N]
//               [--metrics FILE] [--analysis FILE] [--autotune FILE]
//               [--events FILE] [--flight FILE] [--expect-rank N]
//               [--expect-step N]
//
// The positional file is a Chrome trace-event JSON (from
// examples/quickstart --trace=..., or any RunSummary trace handle's
// write_chrome()). --metrics validates an obs::metrics export — JSON
// (obs::metrics::to_json) or Prometheus text (to_prometheus), sniffed
// from the first non-whitespace byte. --analysis checks an
// obs::analysis_json() report, --autotune a
// core::autotune_report_json() report (rejecting reports missing the
// "why" decision string or, under the attributed objective, the
// per-trial AnalysisScore), --events an obs::events_json() export,
// and --flight a flight-recorder bundle; --expect-rank /
// --expect-step additionally assert the bundle's culprit rank and
// step. Exits 0 when every given file passes; prints the first
// violation and exits 1 otherwise.
#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/json_check.h"

namespace {

namespace obs = jitfd::obs;

int usage() {
  std::cerr << "usage: trace_check [trace.json] [--min-ranks N] "
               "[--min-events N] [--metrics FILE] [--analysis FILE] "
               "[--autotune FILE] [--events FILE] [--flight FILE] "
               "[--expect-rank N] [--expect-step N]\n";
  return 2;
}

/// Validates one document: the first violation ("" when it passes),
/// with what was seen written to `seen`.
using Check = std::function<std::string(const std::string&, std::string&)>;

Check schema(obs::SchemaCheck (*validate)(std::string_view),
             const char* unit) {
  return [validate, unit](const std::string& json, std::string& seen) {
    const obs::SchemaCheck c = validate(json);
    seen = std::to_string(c.items) + " " + unit;
    return c.ok ? std::string() : c.error;
  };
}

}  // namespace

int main(int argc, char** argv) {
  // Flag -> value; "trace" holds the positional Chrome trace path.
  std::map<std::string, std::string> args;
  const std::set<std::string> flags = {
      "--min-ranks", "--min-events", "--metrics",     "--analysis",
      "--autotune",  "--events",     "--flight",      "--expect-rank",
      "--expect-step"};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags.contains(arg) && i + 1 < argc) {
      args[arg] = argv[++i];
    } else if (!args.contains("trace") && arg[0] != '-') {
      args["trace"] = arg;
    } else {
      return usage();
    }
  }
  const auto num = [&args](const std::string& flag, long fallback) {
    const auto it = args.find(flag);
    return it == args.end() ? fallback : std::atol(it->second.c_str());
  };
  const long min_ranks = num("--min-ranks", 1);
  const long min_events = num("--min-events", 1);
  if ((args.contains("--expect-rank") || args.contains("--expect-step")) &&
      !args.contains("--flight")) {
    std::cerr << "trace_check: --expect-rank/--expect-step need --flight\n";
    return 2;
  }

  const std::vector<std::pair<std::string, Check>> checks = {
      {"trace",
       [&](const std::string& json, std::string& seen) {
         const obs::ChromeCheck c = obs::validate_chrome_trace(json);
         seen = std::to_string(c.events) + " events, " +
                std::to_string(c.complete) + " spans, " +
                std::to_string(c.instants) + " instants, " +
                std::to_string(c.tids.size()) + " rank tracks";
         if (!c.ok) {
           return c.error;
         }
         if (static_cast<long>(c.tids.size()) < min_ranks) {
           return "expected >= " + std::to_string(min_ranks) +
                  " rank tracks, found " + std::to_string(c.tids.size());
         }
         return c.events < min_events
                    ? "expected >= " + std::to_string(min_events) +
                          " events, found " + std::to_string(c.events)
                    : std::string();
       }},
      {"--metrics",
       [](const std::string& body, std::string& seen) {
         // JSON export starts with '{'; anything else is Prometheus text.
         const std::size_t first = body.find_first_not_of(" \t\r\n");
         if (first != std::string::npos && body[first] == '{') {
           return schema(obs::validate_metrics_json, "metrics")(body, seen);
         }
         const obs::PromCheck c = obs::validate_prometheus_text(body);
         seen = std::to_string(c.types) + " families, " +
                std::to_string(c.helps) + " help lines, " +
                std::to_string(c.samples) + " samples";
         return c.ok ? std::string() : c.error;
       }},
      {"--analysis", schema(obs::validate_analysis_json, "sections")},
      {"--autotune", schema(obs::validate_autotune_json, "trials")},
      {"--events", schema(obs::validate_events_json, "events")},
      {"--flight",
       [&](const std::string& json, std::string& seen) {
         const obs::FlightCheck c = obs::validate_flight_json(json);
         seen = "reason \"" + c.reason + "\", rank " +
                std::to_string(c.rank) + ", step " + std::to_string(c.step) +
                ", " + std::to_string(c.health_samples) + " health samples";
         if (!c.ok) {
           return c.error;
         }
         for (const auto& [what, got] :
              {std::pair<std::string, long>{"rank", c.rank},
               std::pair<std::string, long>{"step", c.step}}) {
           const long want = num("--expect-" + what, got);
           if (got != want) {
             return "expected " + what + " " + std::to_string(want) +
                    ", bundle names " + what + " " + std::to_string(got);
           }
         }
         return std::string();
       }},
  };

  if (std::none_of(checks.begin(), checks.end(),
                   [&](const auto& c) { return args.contains(c.first); })) {
    std::cerr << "trace_check: no input file\n";
    return 2;
  }
  for (const auto& [mode, check] : checks) {
    const auto file = args.find(mode);
    if (file == args.end()) {
      continue;
    }
    const std::string& path = file->second;
    std::string body;
    if (!jitfd::obs::json::read_file(path, body)) {
      std::cerr << "trace_check: cannot open " << path << '\n';
      return 1;
    }
    std::string seen;
    const std::string error = check(body, seen);
    if (!error.empty()) {
      std::cerr << "trace_check: " << path << ": " << error << '\n';
      return 1;
    }
    std::cout << "trace_check: " << path << ": ok (" << seen << ")\n";
  }
  return 0;
}
