// Metrics registry tests: log2 histogram bucket boundaries, help-text
// registration, and the JSON / Prometheus exporters with their schema
// validators (including # HELP / # TYPE pairing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/analysis.h"
#include "obs/json_check.h"
#include "obs/metrics.h"

namespace {

namespace metrics = jitfd::obs::metrics;
namespace obs = jitfd::obs;
using metrics::Histogram;

class MetricsEnabled : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::set_enabled(true);
    if (!metrics::enabled()) {
      GTEST_SKIP() << "built with JITFD_OBS=OFF";
    }
  }
  void TearDown() override { metrics::set_enabled(false); }
};

TEST_F(MetricsEnabled, HistogramUpperBoundsDoubleFromBase) {
  EXPECT_DOUBLE_EQ(Histogram::upper_bound(0), Histogram::kBucketBase);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::upper_bound(i),
                     2.0 * Histogram::upper_bound(i - 1))
        << "bucket " << i;
  }
  EXPECT_TRUE(std::isinf(Histogram::upper_bound(Histogram::kBuckets - 1)));
}

TEST_F(MetricsEnabled, HistogramBucketBoundariesAreInclusive) {
  Histogram h;
  // Exactly on a bucket's upper bound lands in that bucket (le
  // semantics); one ulp above lands in the next.
  for (const int i : {0, 5, 13, Histogram::kBuckets - 2}) {
    h.reset();
    const double ub = Histogram::upper_bound(i);
    h.observe(ub);
    EXPECT_EQ(h.bucket(i), 1U) << "upper bound of bucket " << i;
    h.observe(std::nextafter(ub, std::numeric_limits<double>::infinity()));
    EXPECT_EQ(h.bucket(i + 1), 1U) << "just above bucket " << i;
  }
}

TEST_F(MetricsEnabled, HistogramPlacesValuesByLog2) {
  Histogram h;
  // 1.0 s with base 1e-6: 1e-6 * 2^19 ~ 0.52 < 1.0 <= 1e-6 * 2^20 ~ 1.05.
  h.observe(1.0);
  EXPECT_EQ(h.bucket(20), 1U);
  // At or below the base, including zero and negatives: bucket 0.
  h.observe(Histogram::kBucketBase);
  h.observe(0.0);
  h.observe(-3.5);
  EXPECT_EQ(h.bucket(0), 3U);
  // Beyond the last finite bound: the +Inf overflow bucket.
  h.observe(1e30);
  h.observe(std::numeric_limits<double>::max());
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 2U);
  EXPECT_EQ(h.count(), 6U);
  EXPECT_NEAR(h.sum(), 1.0 + Histogram::kBucketBase + 0.0 - 3.5 + 1e30 +
                           std::numeric_limits<double>::max(),
              std::numeric_limits<double>::max() * 1e-9);
}

TEST_F(MetricsEnabled, HistogramDisabledRecordsNothing) {
  metrics::set_enabled(false);
  Histogram h;
  h.observe(1.0);
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.bucket(20), 0U);
}

TEST_F(MetricsEnabled, HelpTextSticksToTheInstrumentFirstNonEmptyWins) {
  metrics::counter("test.help.sticky", "the original help");
  metrics::counter("test.help.sticky", "a late different help");
  metrics::counter("test.help.late");  // No help: keeps the original.
  metrics::gauge("test.help.filled");  // Registered helpless...
  metrics::gauge("test.help.filled", "filled in later");

  std::string sticky_help;
  std::string filled_help;
  for (const metrics::Snapshot& s : metrics::snapshot()) {
    if (s.name == "test.help.sticky") {
      sticky_help = s.help;
    } else if (s.name == "test.help.filled") {
      filled_help = s.help;
    }
  }
  EXPECT_EQ(sticky_help, "the original help");
  EXPECT_EQ(filled_help, "filled in later");
}

TEST_F(MetricsEnabled, ExportsCarryHelpAndValidate) {
  metrics::counter("test.export.count", "counts test things").add(3);
  metrics::histogram("test.export.lat", "latency of test things")
      .observe(2e-6);

  const std::string json = metrics::to_json();
  EXPECT_NE(json.find("\"help\": \"counts test things\""), std::string::npos);
  const obs::SchemaCheck jcheck = obs::validate_metrics_json(json);
  EXPECT_TRUE(jcheck.ok) << jcheck.error;

  const std::string prom = metrics::to_prometheus();
  EXPECT_NE(prom.find("# HELP jitfd_test_export_count counts test things"),
            std::string::npos);
  // HELP precedes TYPE for the same family.
  EXPECT_LT(prom.find("# HELP jitfd_test_export_count"),
            prom.find("# TYPE jitfd_test_export_count"));
  const obs::PromCheck pcheck = obs::validate_prometheus_text(prom);
  EXPECT_TRUE(pcheck.ok) << pcheck.error;
  EXPECT_EQ(pcheck.helps, pcheck.types);
  EXPECT_GT(pcheck.samples, 0);
}

TEST_F(MetricsEnabled, HelpWithControlCharactersRoundTrips) {
  const std::string help = "tabbed\thelp with a \"quote\"";
  metrics::counter("test.export.tabbed", help).add(1);
  const std::string json = metrics::to_json();
  const obs::SchemaCheck check = obs::validate_metrics_json(json);
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;

  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, root, &err)) << err;
  const obs::JsonValue* found = nullptr;
  for (const obs::JsonValue& m : root.find("metrics")->arr) {
    if (m.find("name")->str == "test.export.tabbed") {
      found = &m;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->find("help")->str, help);
}

TEST(MetricsValidator, PrometheusPairingViolationsAreCaught) {
  // TYPE without its HELP line.
  obs::PromCheck c = obs::validate_prometheus_text(
      "# TYPE jitfd_orphan counter\njitfd_orphan 1\n");
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("not preceded"), std::string::npos) << c.error;

  // HELP for a different family does not pair.
  c = obs::validate_prometheus_text(
      "# HELP jitfd_other help text\n# TYPE jitfd_orphan counter\n");
  EXPECT_FALSE(c.ok);

  // Unknown kind.
  c = obs::validate_prometheus_text(
      "# HELP jitfd_m h\n# TYPE jitfd_m summary\njitfd_m 1\n");
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("unknown kind"), std::string::npos) << c.error;

  // Sample outside the announced family.
  c = obs::validate_prometheus_text(
      "# HELP jitfd_a h\n# TYPE jitfd_a counter\njitfd_b 1\n");
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("outside"), std::string::npos) << c.error;

  // A well-formed histogram family passes, le labels and all.
  c = obs::validate_prometheus_text(
      "# HELP jitfd_h latency\n"
      "# TYPE jitfd_h histogram\n"
      "jitfd_h_bucket{le=\"1e-06\"} 0\n"
      "jitfd_h_bucket{le=\"+Inf\"} 2\n"
      "jitfd_h_sum 3.5\n"
      "jitfd_h_count 2\n");
  EXPECT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.types, 1);
  EXPECT_EQ(c.samples, 4);
}

TEST(MetricsValidator, EventsSchemaViolationsAreCaught) {
  obs::SchemaCheck c = obs::validate_events_json(
      "{\"events\": [{\"name\": \"e\", \"cat\": \"health\", \"rank\": 0, "
      "\"step\": 1, \"t_ns\": 2, \"kv\": {\"x\": 1.5}}], \"dropped\": 0}");
  EXPECT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.items, 1);

  c = obs::validate_events_json("{\"events\": [], \"dropped\": 0}");
  EXPECT_TRUE(c.ok) << c.error;

  // Missing "dropped".
  c = obs::validate_events_json("{\"events\": []}");
  EXPECT_FALSE(c.ok);

  // A non-finite value exports as null, which the schema allows.
  c = obs::validate_events_json(
      "{\"events\": [{\"name\": \"e\", \"cat\": \"solver\", \"rank\": 0, "
      "\"step\": 0, \"t_ns\": 0, \"kv\": {\"norm\": null}}], "
      "\"dropped\": 0}");
  EXPECT_TRUE(c.ok) << c.error;

  // Non-numeric kv value.
  c = obs::validate_events_json(
      "{\"events\": [{\"name\": \"e\", \"cat\": \"halo\", \"rank\": 0, "
      "\"step\": 0, \"t_ns\": 0, \"kv\": {\"x\": \"oops\"}}], "
      "\"dropped\": 0}");
  EXPECT_FALSE(c.ok);
}

TEST(MetricsValidator, NamedSchemaRulesRejectViolations) {
  // Monotone cumulative bucket counts.
  const std::string hist =
      R"({"metrics": [{"name": "h", "type": "histogram", "count": 2, )"
      R"("sum": 1, "buckets": [{"le": 1, "count": %A}, )"
      R"({"le": "+Inf", "count": 2}]}]})";
  const auto with = [](std::string doc, const std::string& value) {
    return doc.replace(doc.find("%A"), 2, value);
  };
  EXPECT_TRUE(obs::validate_metrics_json(with(hist, "1")).ok);
  obs::SchemaCheck c = obs::validate_metrics_json(with(hist, "3"));
  EXPECT_NE(c.error.find("non-monotone"), std::string::npos) << c.error;

  // Overlap efficiency in [0, 1].
  std::string analysis = obs::analysis_json(obs::AnalysisReport{});
  EXPECT_TRUE(obs::validate_analysis_json(analysis).ok);
  const std::size_t eff = analysis.find("\"efficiency\": 0");
  ASSERT_NE(eff, std::string::npos) << analysis;
  analysis.replace(eff, 15, "\"efficiency\": 1.5");
  c = obs::validate_analysis_json(analysis);
  EXPECT_NE(c.error.find("outside [0, 1]"), std::string::npos) << c.error;

  // The objective enum, and scores only the attributed objective has.
  const std::string autotune =
      R"({"autotune": {"objective": "%A", "why": "w", )"
      R"("best": {"mode": "basic", "depth": 1, "tile": []}, )"
      R"("rebalance": {"recommended": false, "rank": -1, "threshold": 1}, )"
      R"("trials": [{"mode": "basic", "depth": 1, "tile": [], )"
      R"("seconds": 1}], "skipped": []}})";
  EXPECT_TRUE(obs::validate_autotune_json(with(autotune, "wall")).ok);
  c = obs::validate_autotune_json(with(autotune, "fastest"));
  EXPECT_NE(c.error.find("objective"), std::string::npos) << c.error;
  c = obs::validate_autotune_json(with(autotune, "attributed"));
  EXPECT_NE(c.error.find("score"), std::string::npos) << c.error;

  // schema_version 1 and nullable health min/max/l2.
  const std::string flight =
      R"({"flight": {"schema_version": %A, "reason": "r", "detail": "d", )"
      R"("rank": 0, "step": 0, "config": {}, "health": [{"step": 0, )"
      R"("field": "u", "field_id": 0, "nan": 1, "inf": 0, "min": null, )"
      R"("max": null, "l2": null, "bad_rank": 0}], "steps": [], )"
      R"("events": {"events": [], "dropped": 0}, "trace": [], )"
      R"("metrics": {}}})";
  const obs::FlightCheck good = obs::validate_flight_json(with(flight, "1"));
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.health_samples, 1);
  const obs::FlightCheck bad = obs::validate_flight_json(with(flight, "2"));
  EXPECT_NE(bad.error.find("schema_version"), std::string::npos) << bad.error;
  std::string health_min = with(flight, "1");
  health_min.replace(health_min.find("\"min\": null"), 11, "\"min\": \"x\"");
  EXPECT_FALSE(obs::validate_flight_json(health_min).ok);

  // Non-negative trace timestamps and durations.
  EXPECT_FALSE(obs::validate_chrome_trace(
                   R"({"traceEvents": [{"name": "s", "ph": "X", "ts": 1, )"
                   R"("dur": -5, "pid": 0, "tid": 1}]})")
                   .ok);
  EXPECT_FALSE(obs::validate_chrome_trace(
                   R"({"traceEvents": [{"name": "i", "ph": "i", "ts": -1, )"
                   R"("pid": 0, "tid": 1}]})")
                   .ok);
}

}  // namespace
