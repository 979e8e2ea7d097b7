// Cross-rank trace analysis, the metrics registry, the metrics/analysis
// JSON schema validators, and the perf-regression sentinel.
//
// The analyzer tests run on hand-built TraceData snapshots with exact
// nanosecond timestamps, so the wait-state split, overlap pairing and
// strip accounting are asserted to the nanosecond rather than within
// noise bands; the constructed-imbalance tests then drive the real
// interpreter with the env-gated per-rank delay hook and check the
// analyzer pins the slow rank across all three patterns and both
// exchange depths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sentinel.h"
#include "obs/trace.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"
#include "scoped_env.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::test::ScopedEnv;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

// Whether the obs subsystem was compiled in (JITFD_OBS=ON). Under
// JITFD_OBS_DISABLED the run-based tests are vacuous; the synthetic
// analyzer tests and the sentinel tests still run (analyze() and
// sentinel_compare() are pure functions of their inputs).
bool obs_built() {
  obs::set_enabled(true);
  const bool on = obs::enabled();
  obs::set_enabled(false);
  return on;
}

obs::TraceData::Rec rec(const char* name, obs::Cat cat, int rank,
                        std::uint64_t t0, std::uint64_t t1,
                        std::int64_t a0 = 0, std::int32_t a1 = 0) {
  obs::TraceData::Rec r;
  r.name = name;
  r.cat = cat;
  r.rank = rank;
  r.t0_ns = t0;
  r.t1_ns = t1;
  r.a0 = a0;
  r.a1 = a1;
  return r;
}

constexpr double kNs = 1e-9;

// ---------------------------------------------------------------------
// Analyzer: synthetic snapshots with exact expectations.
// ---------------------------------------------------------------------

TEST(Analysis, EmptySnapshotYieldsZeroReport) {
  const obs::AnalysisReport rep = obs::analyze(obs::TraceData{});
  EXPECT_EQ(rep.nranks, 0);
  EXPECT_EQ(rep.steps, 0U);
  EXPECT_EQ(rep.matched_waits, 0U);
  EXPECT_EQ(rep.late_sender_culprit, -1);
  EXPECT_EQ(rep.overlap_efficiency, 0.0);
  // The empty report still exports schema-valid JSON.
  const obs::SchemaCheck check =
      obs::validate_analysis_json(obs::analysis_json(rep));
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.items, 4);
}

TEST(Analysis, LateSenderSplitIsExact) {
  // Rank 1 waits on rank 0 during [1000, 2000]; rank 0's matching send
  // runs [1500, 1600]. The receiver idled 500 ns before the send began
  // (late sender); the rest of the wait is transfer.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 2000, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 1500, 1600, 64, /*peer=*/1));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.nranks, 2);
  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_EQ(rep.unmatched_waits, 0U);
  EXPECT_NEAR(rep.late_sender_s, 500 * kNs, 1e-12);
  EXPECT_NEAR(rep.late_receiver_s, 0.0, 1e-12);
  EXPECT_NEAR(rep.transfer_s, 500 * kNs, 1e-12);
  EXPECT_EQ(rep.late_sender_culprit, 0);

  ASSERT_EQ(rep.rank_waits.size(), 2U);
  for (const obs::RankWaitStats& w : rep.rank_waits) {
    if (w.rank == 0) {
      EXPECT_NEAR(w.blamed_s, 500 * kNs, 1e-12);
      EXPECT_NEAR(w.late_sender_s, 0.0, 1e-12);
    } else {
      EXPECT_NEAR(w.late_sender_s, 500 * kNs, 1e-12);
      EXPECT_NEAR(w.blamed_s, 0.0, 1e-12);
    }
  }
}

TEST(Analysis, LateReceiverSplitIsExact) {
  // The send completed (buffered) at 200; the receiver only showed up
  // at 1000: the message waited 800 ns for the receiver, and the whole
  // 400 ns wait is transfer/completion, not sender's fault.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 100, 200, 64, /*peer=*/1));
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 1400, 0, /*peer=*/0));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_NEAR(rep.late_sender_s, 0.0, 1e-12);
  EXPECT_NEAR(rep.late_receiver_s, 800 * kNs, 1e-12);
  EXPECT_NEAR(rep.transfer_s, 400 * kNs, 1e-12);
  // No late-sender time anywhere: nobody to blame.
  EXPECT_EQ(rep.late_sender_culprit, -1);
}

TEST(Analysis, WaitsWithoutSendsCountAsUnmatched) {
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 0, 100, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 200, 300, 0, /*peer=*/0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 10, 20, 64, /*peer=*/1));
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_EQ(rep.matched_waits, 1U);
  EXPECT_EQ(rep.unmatched_waits, 1U);
}

TEST(Analysis, OverlapEfficiencyFromStartFinishPairs) {
  // Async exchange on (rank 0, spot 0): start [0, 100], finish
  // [500, 600]. Window 600 ns, hidden gap 400 ns -> 2/3 efficiency.
  obs::TraceData data;
  data.events.push_back(
      rec("halo.start", obs::Cat::Halo, 0, 0, 100, 0, /*spot=*/0));
  data.events.push_back(
      rec("halo.finish", obs::Cat::Halo, 0, 500, 600, 0, /*spot=*/0));
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_EQ(rep.async_exchanges, 1U);
  EXPECT_NEAR(rep.overlap_window_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.overlap_hidden_s, 400 * kNs, 1e-12);
  EXPECT_NEAR(rep.overlap_efficiency, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(rep.exchanges, 1U);  // halo.start counts as one exchange.
}

TEST(Analysis, DeepHaloStripAccountingAndRedundancy) {
  // One rank, two 2-step strips. In each strip the first sub-step's
  // compute (300 ns, ghost-extended bounds) exceeds the second's
  // (200 ns): 100 ns of redundancy per strip.
  obs::TraceData data;
  data.events.push_back(rec("strip", obs::Cat::Run, 0, 0, 1000, 0));
  data.events.push_back(rec("step", obs::Cat::Run, 0, 0, 400, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 10, 310, 0));
  data.events.push_back(rec("step", obs::Cat::Run, 0, 500, 1000, 1));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 510, 710, 1));
  data.events.push_back(rec("strip", obs::Cat::Run, 0, 1000, 2000, 1));
  data.events.push_back(rec("step", obs::Cat::Run, 0, 1000, 1400, 2));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 1010, 1310, 2));
  data.events.push_back(rec("step", obs::Cat::Run, 0, 1500, 2000, 3));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 1510, 1710, 3));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.steps, 4U);
  EXPECT_EQ(rep.strips, 2U);
  EXPECT_EQ(rep.exchange_depth, 2);
  EXPECT_EQ(rep.saved_exchanges, 2U);
  EXPECT_NEAR(rep.redundant_compute_s, 200 * kNs, 1e-12);
  // Per-step loads carried the timestep from compute a0.
  ASSERT_EQ(rep.step_loads.size(), 4U);
  EXPECT_EQ(rep.step_loads[0].step, 0);
  EXPECT_NEAR(rep.step_loads[0].max_compute_s, 300 * kNs, 1e-12);
}

TEST(Analysis, ImbalanceFindsCriticalRankPerStepAndOverall) {
  // Two ranks, one step: rank 1 computes 600 ns vs rank 0's 300 ns.
  obs::TraceData data;
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 1, 0, 600, 0));
  const obs::AnalysisReport rep = obs::analyze(data);

  EXPECT_EQ(rep.nranks, 2);
  EXPECT_NEAR(rep.max_compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.mean_compute_s, 450 * kNs, 1e-12);
  EXPECT_NEAR(rep.imbalance_ratio, 600.0 / 450.0, 1e-9);
  EXPECT_EQ(rep.critical_path_rank, 1);
  ASSERT_EQ(rep.step_loads.size(), 1U);
  EXPECT_EQ(rep.step_loads[0].critical_rank, 1);
  EXPECT_NEAR(rep.step_loads[0].max_compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.step_loads[0].mean_compute_s, 450 * kNs, 1e-12);
}

TEST(Analysis, RankLoadsExportedPerRankAndSorted) {
  // Three ranks with distinct compute: the report must carry one load
  // per rank, sorted by rank, with exact seconds — this is the feed for
  // Grid::plan_rebalance and the quickstart --rebalance loop.
  obs::TraceData data;
  data.events.push_back(rec("compute", obs::Cat::Compute, 2, 0, 900, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  data.events.push_back(rec("compute", obs::Cat::Compute, 1, 0, 600, 0));
  const obs::AnalysisReport rep = obs::analyze(data);
  ASSERT_EQ(rep.rank_loads.size(), 3U);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(rep.rank_loads[static_cast<std::size_t>(r)].rank, r);
  }
  EXPECT_NEAR(rep.rank_loads[0].compute_s, 300 * kNs, 1e-12);
  EXPECT_NEAR(rep.rank_loads[1].compute_s, 600 * kNs, 1e-12);
  EXPECT_NEAR(rep.rank_loads[2].compute_s, 900 * kNs, 1e-12);

  // The JSON export nests the per-rank loads inside "imbalance", and
  // the validator requires them.
  const std::string json = obs::analysis_json(rep);
  EXPECT_NE(json.find("\"ranks\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"compute_seconds\":"), std::string::npos) << json;
  EXPECT_TRUE(obs::validate_analysis_json(json).ok)
      << obs::validate_analysis_json(json).error;
}

TEST(Analysis, JitComputeDerivedFromRunUmbrellaMinusHalo) {
  // A JIT rank records no compute spans; its compute is the jit.run
  // umbrella (1000 ns) minus the nested halo umbrellas (150 ns).
  obs::TraceData data;
  data.events.push_back(rec("jit.run", obs::Cat::Run, 0, 0, 1000, 0));
  data.events.push_back(rec("halo.update", obs::Cat::Halo, 0, 100, 200, 0));
  data.events.push_back(rec("halo.update", obs::Cat::Halo, 0, 300, 350, 0));
  const obs::RunProfile prof = obs::profile_from(data);
  ASSERT_EQ(prof.ranks.size(), 1U);
  EXPECT_NEAR(prof.ranks[0].compute_s, 850 * kNs, 1e-12);
  EXPECT_EQ(prof.ranks[0].steps, 0U);  // No per-step spans in JIT runs.

  // The analyzer inherits the same attribution for its imbalance view.
  const obs::AnalysisReport rep = obs::analyze(data);
  EXPECT_NEAR(rep.max_compute_s, 850 * kNs, 1e-12);
  EXPECT_EQ(rep.critical_path_rank, 0);
  EXPECT_EQ(rep.exchanges, 2U);
}

TEST(Analysis, JsonExportValidatesAndCarriesSections) {
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 2000, 0, 0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 1500, 1600, 64, 1));
  data.events.push_back(rec("compute", obs::Cat::Compute, 0, 0, 300, 0));
  const obs::AnalysisReport rep = obs::analyze(data);
  const std::string json = obs::analysis_json(rep);

  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
  const obs::SchemaCheck check = obs::validate_analysis_json(json);
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;
  EXPECT_EQ(check.items, 4);
  EXPECT_NE(json.find("\"culprit_rank\": 0"), std::string::npos) << json;

  // The human digest names the culprit too.
  const std::string digest = obs::analysis_summary(rep);
  EXPECT_NE(digest.find("culprit rank 0"), std::string::npos) << digest;

  // Schema violations are rejected.
  EXPECT_FALSE(obs::validate_analysis_json("{\"analysis\": {}}").ok);
  EXPECT_FALSE(obs::validate_analysis_json("[1, 2]").ok);
}

// ---------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------

TEST(Metrics, KindMismatchThrows) {
  obs::metrics::counter("test.kind_probe");
  EXPECT_THROW(obs::metrics::gauge("test.kind_probe"), std::logic_error);
  EXPECT_THROW(obs::metrics::histogram("test.kind_probe"), std::logic_error);
  // Same-kind lookups return the same instrument.
  EXPECT_EQ(&obs::metrics::counter("test.kind_probe"),
            &obs::metrics::counter("test.kind_probe"));
}

TEST(Metrics, CounterAndGaugeGateOnEnabled) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::metrics::Counter& c = obs::metrics::counter("test.counter");
  obs::metrics::Gauge& g = obs::metrics::gauge("test.gauge");
  obs::metrics::set_enabled(false);
  c.add(5);
  g.set(2.5);
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(g.value(), 0.0);

  obs::metrics::set_enabled(true);
  c.add(5);
  c.add(2);
  g.set(2.5);
  EXPECT_EQ(c.value(), 7U);
  EXPECT_EQ(g.value(), 2.5);
  obs::metrics::set_enabled(false);

  // reset() zeroes values but keeps registrations (and their kinds).
  obs::metrics::reset();
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_THROW(obs::metrics::gauge("test.counter"), std::logic_error);
}

TEST(Metrics, HistogramBucketsAndBounds) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::metrics::Histogram& h = obs::metrics::histogram("test.hist");
  h.reset();
  obs::metrics::set_enabled(true);
  h.observe(0.5e-6);  // <= 1e-6: bucket 0.
  h.observe(1.5e-6);  // <= 2e-6: bucket 1.
  h.observe(1e9);     // Beyond every finite bound: last bucket.
  obs::metrics::set_enabled(false);

  EXPECT_EQ(h.count(), 3U);
  EXPECT_NEAR(h.sum(), 1e9 + 2e-6, 1.0);
  EXPECT_EQ(h.bucket(0), 1U);
  EXPECT_EQ(h.bucket(1), 1U);
  EXPECT_EQ(h.bucket(obs::metrics::Histogram::kBuckets - 1), 1U);

  EXPECT_DOUBLE_EQ(obs::metrics::Histogram::upper_bound(0), 1e-6);
  for (int i = 1; i < obs::metrics::Histogram::kBuckets - 1; ++i) {
    EXPECT_GT(obs::metrics::Histogram::upper_bound(i),
              obs::metrics::Histogram::upper_bound(i - 1));
  }
  EXPECT_TRUE(std::isinf(obs::metrics::Histogram::upper_bound(
      obs::metrics::Histogram::kBuckets - 1)));
  h.reset();
  EXPECT_EQ(h.count(), 0U);
}

TEST(Metrics, ExportsValidateInBothFormats) {
  obs::metrics::counter("test.export_counter");
  obs::metrics::gauge("test.export_gauge");
  obs::metrics::histogram("test.export_hist");

  const std::string json = obs::metrics::to_json();
  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
  const obs::SchemaCheck check = obs::validate_metrics_json(json);
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;
  EXPECT_GE(check.items, 3);

  const std::string prom = obs::metrics::to_prometheus();
  EXPECT_NE(prom.find("# TYPE jitfd_test_export_counter counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE jitfd_test_export_gauge gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("jitfd_test_export_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("jitfd_test_export_hist_count"), std::string::npos);

  // Schema violations are rejected.
  EXPECT_FALSE(obs::validate_metrics_json("{\"metrics\": [{}]}").ok);
  EXPECT_FALSE(
      obs::validate_metrics_json(
          R"({"metrics": [{"name": "x", "type": "nonsense", "value": 1}]})")
          .ok);
}

TEST(Metrics, AnalysisReportExportsGauges) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  obs::TraceData data;
  data.events.push_back(
      rec("halo.wait", obs::Cat::Wait, 1, 1000, 2000, 0, 0));
  data.events.push_back(
      rec("halo.send", obs::Cat::Send, 0, 1500, 1600, 64, 1));
  const obs::AnalysisReport rep = obs::analyze(data);

  obs::metrics::set_enabled(true);
  obs::export_metrics(rep);
  obs::metrics::set_enabled(false);
  EXPECT_NEAR(obs::metrics::gauge("analysis.late_sender_seconds").value(),
              500 * kNs, 1e-12);
  EXPECT_NEAR(obs::metrics::gauge("analysis.matched_waits").value(), 1.0,
              1e-12);
  obs::metrics::reset();
}

// ---------------------------------------------------------------------
// Perf-regression sentinel (pure comparison rules; no obs needed).
// ---------------------------------------------------------------------

std::string mini_report(double median, double spread, double msgs) {
  std::ostringstream os;
  os << R"({"benchmark": "mini", "series": [{"name": "s1", )"
     << "\"repetitions\": 3, \"median_seconds\": " << median
     << ", \"spread_pct\": " << spread << ", \"msgs\": " << msgs << "}]}";
  return os.str();
}

TEST(Sentinel, PassesOnIdenticalReports) {
  const std::string doc = mini_report(0.1, 5.0, 42);
  const obs::SentinelResult res = obs::sentinel_compare(doc, doc);
  EXPECT_TRUE(res.ok) << res.report();
  EXPECT_EQ(res.series_checked, 1);
  EXPECT_TRUE(res.failures.empty());
  EXPECT_TRUE(res.error.empty());
}

TEST(Sentinel, FailsOnTimingRegressionBeyondBand) {
  // Band = tolerance 25% + spread 5% = 30%; a 2x median blows it.
  const obs::SentinelResult res = obs::sentinel_compare(
      mini_report(0.1, 5.0, 42), mini_report(0.2, 5.0, 42));
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1U);
  EXPECT_NE(res.failures[0].find("regressed"), std::string::npos)
      << res.report();
  // +28% stays inside the band.
  const obs::SentinelResult close = obs::sentinel_compare(
      mini_report(0.1, 5.0, 42), mini_report(0.128, 5.0, 42));
  EXPECT_TRUE(close.ok) << close.report();
}

TEST(Sentinel, SpreadWidensTheBand) {
  // A noisy baseline (30% spread) buys a wider allowance: tolerance 10
  // + spread 30 = 40%.
  obs::SentinelOptions opts;
  opts.tolerance_pct = 10.0;
  EXPECT_TRUE(obs::sentinel_compare(mini_report(0.1, 30.0, 1),
                                    mini_report(0.135, 0.0, 1), opts)
                  .ok);
  EXPECT_FALSE(obs::sentinel_compare(mini_report(0.1, 30.0, 1),
                                     mini_report(0.145, 0.0, 1), opts)
                   .ok);
}

TEST(Sentinel, InjectedSlowdownSelfTest) {
  // The CI self-test: identical reports must FAIL once the fresh side
  // is scaled by 1.2 against a 10% tolerance, proving the gate bites.
  const std::string doc = mini_report(0.1, 0.0, 42);
  obs::SentinelOptions opts;
  opts.tolerance_pct = 10.0;
  EXPECT_TRUE(obs::sentinel_compare(doc, doc, opts).ok);
  opts.scale_fresh = 1.2;
  EXPECT_FALSE(obs::sentinel_compare(doc, doc, opts).ok);
}

TEST(Sentinel, MissingSeriesAndMalformedInputs) {
  const std::string base =
      R"({"series": [{"name": "s1", "median_seconds": 0.1},)"
      R"( {"name": "s2", "median_seconds": 0.1}]})";
  const std::string fresh =
      R"({"series": [{"name": "s1", "median_seconds": 0.1}]})";
  const obs::SentinelResult res = obs::sentinel_compare(base, fresh);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1U);
  EXPECT_NE(res.failures[0].find("missing"), std::string::npos);

  // Malformed documents set error (exit 2 in the CLI), not failures.
  const obs::SentinelResult bad = obs::sentinel_compare("{nope", fresh);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  EXPECT_TRUE(bad.failures.empty());
  const obs::SentinelResult empty =
      obs::sentinel_compare(R"({"series": []})", fresh);
  EXPECT_FALSE(empty.ok);
  EXPECT_FALSE(empty.error.empty());
}

TEST(Sentinel, MinSecondsSkipsTimingButCountersStillGate) {
  // Sub-threshold medians are too fast to time reliably: a 100x
  // "regression" is ignored, but a counter drift still fails.
  obs::SentinelOptions opts;
  opts.min_seconds = 0.01;
  EXPECT_TRUE(obs::sentinel_compare(mini_report(1e-4, 0.0, 42),
                                    mini_report(1e-2, 0.0, 42), opts)
                  .ok);
  const obs::SentinelResult drift = obs::sentinel_compare(
      mini_report(1e-4, 0.0, 42), mini_report(1e-4, 0.0, 43), opts);
  EXPECT_FALSE(drift.ok);
  ASSERT_EQ(drift.failures.size(), 1U);
  EXPECT_NE(drift.failures[0].find("drifted"), std::string::npos);
}

TEST(Sentinel, CounterToleranceAndOptOut) {
  // Exact by default; a relative tolerance admits the drift; opting out
  // ignores counters entirely.
  const std::string base = mini_report(0.1, 0.0, 100);
  const std::string fresh = mini_report(0.1, 0.0, 130);
  EXPECT_FALSE(obs::sentinel_compare(base, fresh).ok);
  obs::SentinelOptions tol;
  tol.counter_tolerance_pct = 50.0;
  EXPECT_TRUE(obs::sentinel_compare(base, fresh, tol).ok);
  obs::SentinelOptions off;
  off.check_counters = false;
  EXPECT_TRUE(obs::sentinel_compare(base, fresh, off).ok);

  // A counter missing from the fresh report fails regardless.
  const std::string lost =
      R"({"series": [{"name": "s1", "median_seconds": 0.1}]})";
  const obs::SentinelResult res = obs::sentinel_compare(base, lost, tol);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failures[0].find("lost counter"), std::string::npos);
}

// ---------------------------------------------------------------------
// Drift sentinels: model-vs-measured gates with committed bands.
// ---------------------------------------------------------------------

std::string drift_report(double value, double band) {
  std::ostringstream os;
  os << R"({"benchmark": "drift", "series": [{"name": "full", )"
     << "\"repetitions\": 1, \"median_seconds\": 0.01, "
     << "\"drift\": {\"comm_fraction\": {\"value\": " << value
     << ", \"band\": " << band << "}}}]}";
  return os.str();
}

TEST(Sentinel, DriftGatesHoldFreshInsideCommittedBand) {
  // The BASELINE's band is the contract; the fresh file's own band is
  // ignored (a fresh run cannot loosen the committed contract).
  const std::string base = drift_report(0.10, 0.20);
  EXPECT_TRUE(obs::sentinel_compare(base, drift_report(0.15, 0.20)).ok);
  const obs::SentinelResult wide =
      obs::sentinel_compare(base, drift_report(0.25, 99.0));
  EXPECT_FALSE(wide.ok);
  ASSERT_EQ(wide.failures.size(), 1U);
  EXPECT_NE(wide.failures[0].find("left the perfmodel band"),
            std::string::npos)
      << wide.report();
}

TEST(Sentinel, DriftShiftSelfTestTripsTheGate) {
  // CI's injected-regression self-test: identical reports must fail
  // once the fresh drift is shifted past the committed band.
  const std::string doc = drift_report(0.10, 0.20);
  obs::SentinelOptions opts;
  EXPECT_TRUE(obs::sentinel_compare(doc, doc, opts).ok);
  opts.drift_shift = 0.15;  // 0.10 + 0.15 > 0.20.
  const obs::SentinelResult res = obs::sentinel_compare(doc, doc, opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.report().find("left the perfmodel band"), std::string::npos)
      << res.report();
}

TEST(Sentinel, LostDriftMetricFails) {
  // Coverage only grows: a drift metric present in the baseline must
  // stay in the fresh report.
  const std::string base = drift_report(0.10, 0.20);
  const std::string fresh =
      R"({"series": [{"name": "full", "median_seconds": 0.01}]})";
  const obs::SentinelResult res = obs::sentinel_compare(base, fresh);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.failures.size(), 1U);
  EXPECT_NE(res.failures[0].find("lost drift metric"), std::string::npos);

  // A malformed drift entry is a schema error, not a regression.
  const std::string broken =
      R"({"series": [{"name": "full", "median_seconds": 0.01, )"
      R"("drift": {"comm_fraction": {"value": 0.1}}}]})";
  const obs::SentinelResult bad = obs::sentinel_compare(base, broken);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
}

// ---------------------------------------------------------------------
// Constructed imbalance on real runs: the env-gated per-rank delay hook
// makes one rank measurably slow; the analyzer must pin it.
// ---------------------------------------------------------------------

jitfd::core::RunSummary traced_diffusion(int nranks, ir::MpiMode mode,
                                         std::int64_t n, int steps,
                                         int exchange_depth) {
  jitfd::core::RunSummary rank0;
  obs::reset();
  jitfd::grid::Function::set_default_exchange_depth(exchange_depth);
  smpi::launch({.nranks = nranks}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    opts.exchange_depth = exchange_depth;
    Operator op({ir::Eq(u.forward(), sym::solve(u.dt() - u.laplace(),
                                                sym::Ex(0), u.forward()))},
                opts);
    // Ranks finish compiling at different times; start the traced run
    // together so the first exchange does not record that skew as
    // late-sender wait.
    comm.barrier();
    const auto run = op.apply({.time_m = 0,
                               .time_M = steps - 1,
                               .scalars = {{"dt", 1e-3}},
                               .trace = true});
    if (comm.rank() == 0) {
      rank0 = run;
    }
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
  return rank0;
}

class ConstructedImbalance : public ::testing::TestWithParam<ir::MpiMode> {};

TEST_P(ConstructedImbalance, AnalyzerPinsTheSlowRank) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const ir::MpiMode mode = GetParam();
  const int kSlowRank = 3;
  // 6 ms of extra compute per step on one rank of a tiny 12x12
  // problem: orders of magnitude above the real per-step compute and
  // above an OS timeslice, so the verdicts below are noise-proof even
  // on an oversubscribed one-core CI box (the binary also runs
  // RUN_SERIAL so sibling test processes don't add load).
  ScopedEnv delay_rank("JITFD_DELAY_RANK", std::to_string(kSlowRank));
  ScopedEnv delay_us("JITFD_DELAY_US", "6000");

  for (const int depth : {1, 2}) {
    // Four exchanges at every depth: the first precedes any delayed step,
    // the other three each follow `depth` delayed steps. With a fixed
    // step count a depth-2 run would carry the delay in a single
    // exchange and scheduler noise could outweigh it.
    const int steps = 4 * depth;
    const auto run = traced_diffusion(4, mode, 12, steps, depth);
    ASSERT_TRUE(run.trace.active());
    const obs::AnalysisReport rep = run.trace.analysis();

    EXPECT_EQ(rep.nranks, 4) << "depth " << depth;
    EXPECT_EQ(rep.steps, static_cast<std::uint64_t>(steps));
    // The padded rank dominates compute: it is the critical path and
    // clearly above the mean.
    EXPECT_EQ(rep.critical_path_rank, kSlowRank)
        << "mode " << ir::to_string(mode) << " depth " << depth;
    EXPECT_GT(rep.imbalance_ratio, 2.0);
    // Every pattern blocks on the slow rank's sends: wait matching must
    // find pairs and late-sender attribution must blame the slow rank.
    EXPECT_GT(rep.matched_waits, 0U);
    EXPECT_GT(rep.late_sender_s, 0.0);
    EXPECT_EQ(rep.late_sender_culprit, kSlowRank)
        << "mode " << ir::to_string(mode) << " depth " << depth << "\n"
        << obs::analysis_summary(rep);
    // The per-step loads see the same culprit on every step.
    ASSERT_FALSE(rep.step_loads.empty());
    for (const obs::StepLoad& sl : rep.step_loads) {
      EXPECT_EQ(sl.critical_rank, kSlowRank) << "step " << sl.step;
    }

    if (depth == 2) {
      EXPECT_EQ(rep.strips, 4U);
      EXPECT_EQ(rep.exchange_depth, 2);
      EXPECT_EQ(rep.saved_exchanges, 4U);
    } else {
      EXPECT_EQ(rep.strips, 0U);
      EXPECT_EQ(rep.exchange_depth, 1);
    }

    // The full report exports schema-valid JSON end to end.
    const obs::SchemaCheck check =
        obs::validate_analysis_json(obs::analysis_json(rep));
    EXPECT_TRUE(check.ok) << check.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, ConstructedImbalance,
                         ::testing::Values(ir::MpiMode::Basic,
                                           ir::MpiMode::Diagonal,
                                           ir::MpiMode::Full));

}  // namespace
