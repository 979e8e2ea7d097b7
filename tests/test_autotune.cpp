// Tests for the communication-pattern autotuner (the paper's Section
// IV-F future-work item): trial side effects must be rolled back, the
// choice must be one of the three patterns, and the tuned operator must
// produce results identical to the serial reference. The attributed
// objective adds a pure decision kernel (choose_attributed on synthetic
// scores), the wall default, and a constructed-imbalance
// run that must pin the delayed rank in every trial's score and
// recommend a rebalance.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/autotune.h"
#include "grid/function.h"
#include "obs/json_check.h"
#include "obs/trace.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"
#include "scoped_env.h"

namespace {

using jitfd::core::AnalysisScore;
using jitfd::core::autotune_operator;
using jitfd::core::AttributedChoice;
using jitfd::core::AutotuneReport;
using jitfd::core::choose_attributed;
using jitfd::core::Objective;
using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::test::ScopedEnv;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

bool obs_built() {
  obs::set_enabled(true);
  const bool on = obs::enabled();
  obs::set_enabled(false);
  return on;
}

ir::Eq diffusion_eq(const TimeFunction& u) {
  return ir::Eq(u.forward(),
                sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()));
}

TEST(Autotune, SerialGridSkipsTrialsAndUsesNoComm) {
  const Grid g({8, 8}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  AutotuneReport report;
  auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                              &report);
  EXPECT_EQ(op->options().mode, ir::MpiMode::None);
  EXPECT_TRUE(report.seconds.empty());
  // The decision trail is never empty, even without trials.
  EXPECT_NE(report.why.find("serial"), std::string::npos) << report.why;
  op->apply({.time_m = 0, .time_M = 0, .scalars = {{"dt", 1e-3}}});
}

TEST(Autotune, TrialsAllPatternsAndRestoresData) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    const std::vector<float> before(u.raw_storage().begin(),
                                    u.raw_storage().end());
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    // All three patterns were measured.
    ASSERT_EQ(report.seconds.size(), 3U);
    EXPECT_EQ(report.trial_steps, 2);
    EXPECT_GT(report.seconds.at(ir::MpiMode::Basic), 0.0);
    EXPECT_TRUE(op->options().mode == ir::MpiMode::Basic ||
                op->options().mode == ir::MpiMode::Diagonal ||
                op->options().mode == ir::MpiMode::Full);
    // The winner is the pattern with the smallest measured time.
    for (const auto& [mode, secs] : report.seconds) {
      EXPECT_GE(secs, report.seconds.at(op->options().mode));
    }
    // Trial side effects were rolled back.
    const std::vector<float> after(u.raw_storage().begin(),
                                   u.raw_storage().end());
    EXPECT_EQ(before, after);
    // Every rank agrees on the winner (timings were max-reduced).
    std::vector<std::int64_t> mode_id{static_cast<int>(op->options().mode)};
    std::vector<std::int64_t> mode_max = mode_id;
    comm.allreduce(std::span<std::int64_t>(mode_max), smpi::ReduceOp::Max);
    EXPECT_EQ(mode_id[0], mode_max[0]);
  });
}

TEST(Autotune, TrialsExchangeDepthsJointlyWithPatterns) {
  // With halos deep enough for depth 4, the trial grid covers
  // {basic, diagonal, full} x {1, 2, 4} and the winner carries both the
  // pattern and the depth into the returned operator.
  jitfd::grid::Function::set_default_exchange_depth(4);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    // Per-pattern summary stays 3 rows (best over depths and tiles)...
    ASSERT_EQ(report.seconds.size(), 3U);
    // ...and the full grid ran 18 trials: {basic, diagonal, full} x
    // {1, 2, 4} x {untiled, {4, 0}} — nothing clamped here (the 16x16
    // grid over a 2x2 topology admits a 4-row outer tile).
    EXPECT_EQ(report.seconds_by_depth.size(), 18U);
    EXPECT_TRUE(report.skipped.empty());
    for (const auto& [key, secs] : report.seconds_by_depth) {
      EXPECT_GT(secs, 0.0);
      EXPECT_LE(report.seconds.at(std::get<0>(key)), secs);
    }
    EXPECT_TRUE(report.best_depth == 1 || report.best_depth == 2 ||
                report.best_depth == 4);
    EXPECT_EQ(op->options().exchange_depth, report.best_depth);
    EXPECT_EQ(op->options().mode, report.best);
    EXPECT_EQ(op->options().tile, report.best_tile);
    EXPECT_EQ(report.seconds_by_depth.at(
                  {report.best, report.best_depth, report.best_tile}),
              report.seconds.at(report.best));
    // Every rank agrees on the winning depth.
    std::vector<std::int64_t> depth{report.best_depth};
    std::vector<std::int64_t> depth_max = depth;
    comm.allreduce(std::span<std::int64_t>(depth_max), smpi::ReduceOp::Max);
    EXPECT_EQ(depth[0], depth_max[0]);
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

TEST(Autotune, ClampedDepthsAreSkippedNotDuplicated) {
  // Default halo capacity (depth 1 allocation, space order 2) admits
  // depth 2 but not depth 4: the depth-4 trials must be skipped as
  // duplicates — with a recorded reason — leaving a 3x2x2 grid.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    EXPECT_EQ(report.seconds_by_depth.size(), 12U);
    for (const auto& [key, secs] : report.seconds_by_depth) {
      EXPECT_NE(std::get<1>(key), 4) << "clamped depth was trialled";
    }
    // The depth-4 requests surface in `skipped` with the clamp reason.
    EXPECT_EQ(report.skipped.size(), 6U);
    for (const auto& [key, reason] : report.skipped) {
      EXPECT_EQ(std::get<1>(key), 4);
      EXPECT_FALSE(reason.empty());
    }
    EXPECT_NE(report.best_depth, 4);
    (void)op;
  });
}

// ---------------------------------------------------------------------
// Attributed objective: pure decision kernel on synthetic scores.
// ---------------------------------------------------------------------

AnalysisScore score(double wait, double redundant, double penalty,
                    int nranks, double ratio = 1.0, int critical = -1) {
  AnalysisScore s;
  s.wait_s = wait;
  s.redundant_s = redundant;
  s.imbalance_penalty_s = penalty;
  s.imbalance_ratio = ratio;
  s.critical_rank = critical;
  s.attributed_cost_s = (wait + redundant) / nranks + penalty;
  return s;
}

AutotuneReport::TrialKey key(ir::MpiMode mode, int depth) {
  return {mode, depth, {}};
}

TEST(Autotune, ChooseAttributedPicksMinCostAndNamesDecisiveTerm) {
  std::map<AutotuneReport::TrialKey, AnalysisScore> scores;
  // Basic waits hard; full hides the exchange: full must win on wait.
  scores[key(ir::MpiMode::Basic, 1)] = score(0.40, 0.0, 0.0, 4);
  scores[key(ir::MpiMode::Full, 1)] = score(0.04, 0.0, 0.0, 4);
  const AttributedChoice choice = choose_attributed(scores, 4);
  EXPECT_EQ(std::get<0>(choice.best), ir::MpiMode::Full);
  EXPECT_NE(choice.why.find("full"), std::string::npos) << choice.why;
  EXPECT_NE(choice.why.find("wait"), std::string::npos) << choice.why;

  // Deep halo trades wait for redundant ghost compute; when the
  // redundant term dominates the diff, the why must say so.
  scores.clear();
  scores[key(ir::MpiMode::Basic, 1)] = score(0.05, 0.0, 0.0, 4);
  scores[key(ir::MpiMode::Basic, 4)] = score(0.01, 0.30, 0.0, 4);
  const AttributedChoice depth_choice = choose_attributed(scores, 4);
  EXPECT_EQ(std::get<1>(depth_choice.best), 1);
  EXPECT_NE(depth_choice.why.find("redundant compute"), std::string::npos)
      << depth_choice.why;
}

TEST(Autotune, ChooseAttributedChargesHiddenImbalance) {
  // The overlap-vs-wall blind spot the attributed objective exists for:
  // "full" has the lower wall-style wait (it hides comm under compute)
  // but only because one rank is overloaded — its imbalance penalty
  // makes it the worse choice, and the why names the penalty.
  std::map<AutotuneReport::TrialKey, AnalysisScore> scores;
  scores[key(ir::MpiMode::Full, 1)] =
      score(0.01, 0.0, 0.20, 4, 3.0, 2);
  scores[key(ir::MpiMode::Basic, 1)] =
      score(0.10, 0.0, 0.01, 4, 1.1, -1);
  const AttributedChoice choice = choose_attributed(scores, 4);
  EXPECT_EQ(std::get<0>(choice.best), ir::MpiMode::Basic);
  EXPECT_NE(choice.why.find("imbalance penalty"), std::string::npos)
      << choice.why;

  // Empty and single-candidate inputs still explain themselves.
  EXPECT_FALSE(choose_attributed({}, 4).why.empty());
  std::map<AutotuneReport::TrialKey, AnalysisScore> one;
  one[key(ir::MpiMode::Diagonal, 1)] = score(0.1, 0.0, 0.0, 4);
  const AttributedChoice only = choose_attributed(one, 4);
  EXPECT_EQ(std::get<0>(only.best), ir::MpiMode::Diagonal);
  EXPECT_NE(only.why.find("only scored candidate"), std::string::npos)
      << only.why;
}

// ---------------------------------------------------------------------
// Attributed objective on real runs.
// ---------------------------------------------------------------------

TEST(Autotune, AttributedRunScoresEveryTrialAndExportsValidJson) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report, {}, Objective::Attributed);
    EXPECT_EQ(report.objective, Objective::Attributed);
    // Every measured trial carries a score; the trial set is unchanged
    // from the wall objective (12 trials, 6 depth-4 skips — the
    // objective must never change WHICH trials run).
    EXPECT_EQ(report.seconds_by_depth.size(), 12U);
    EXPECT_EQ(report.skipped.size(), 6U);
    EXPECT_EQ(report.scores.size(), report.seconds_by_depth.size());
    for (const auto& [k, sc] : report.scores) {
      EXPECT_GE(sc.attributed_cost_s, 0.0);
      EXPECT_GE(sc.imbalance_ratio, 1.0);
    }
    EXPECT_FALSE(report.why.empty());
    // The winner is the minimum attributed cost.
    const auto best_key = AutotuneReport::TrialKey{
        report.best, report.best_depth, report.best_tile};
    for (const auto& [k, sc] : report.scores) {
      EXPECT_GE(sc.attributed_cost_s,
                report.scores.at(best_key).attributed_cost_s);
    }
    // Rank agreement on the winner (scores were allreduced).
    std::vector<std::int64_t> mode_id{static_cast<int>(report.best)};
    std::vector<std::int64_t> mode_max = mode_id;
    comm.allreduce(std::span<std::int64_t>(mode_max), smpi::ReduceOp::Max);
    EXPECT_EQ(mode_id[0], mode_max[0]);
    // The machine-readable report validates, including per-trial scores.
    if (comm.rank() == 0) {
      const std::string json = jitfd::core::autotune_report_json(report);
      const obs::SchemaCheck check = obs::validate_autotune_json(json);
      EXPECT_TRUE(check.ok) << check.error << "\n" << json;
      EXPECT_EQ(check.items, 12);
    }
    (void)op;
  });
}

TEST(Autotune, DefaultObjectiveIsWallAndLeavesTrialsUnscored) {
  // Without an explicit objective the autotuner ranks raw wall-clock
  // time; a leftover JITFD_AUTOTUNE_OBJECTIVE (no longer a knob) must not
  // switch it to the attributed objective.
  const ScopedEnv stale("JITFD_AUTOTUNE_OBJECTIVE", "attributed");
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report);
    EXPECT_EQ(report.objective, Objective::Wall);
    EXPECT_FALSE(report.seconds_by_depth.empty());
    EXPECT_TRUE(report.scores.empty());
    // The winner is the fastest measured trial.
    const auto best_key = AutotuneReport::TrialKey{
        report.best, report.best_depth, report.best_tile};
    ASSERT_EQ(report.seconds_by_depth.count(best_key), 1U);
    for (const auto& [k, secs] : report.seconds_by_depth) {
      EXPECT_GE(secs, report.seconds_by_depth.at(best_key));
    }
    (void)op;
  });
}

TEST(Autotune, InjectedImbalancePinsRankAndRecommendsRebalance) {
  if (!obs_built()) {
    GTEST_SKIP() << "built with JITFD_OBS=OFF";
  }
  const int kSlowRank = 2;
  // 4 ms per step on a 16x16 problem: dominates real compute and an OS
  // timeslice, so every trial's score must blame the same rank even on
  // a loaded one-core box.
  ScopedEnv delay_rank("JITFD_DELAY_RANK", std::to_string(kSlowRank));
  ScopedEnv delay_us("JITFD_DELAY_US", "4000");
  smpi::launch({.nranks = 4}, [kSlowRank](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{4, 4},
                      std::vector<std::int64_t>{12, 12}, 1.0F);
    AutotuneReport report;
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", 1e-3}}, 0, 2,
                                &report, {}, Objective::Attributed);
    ASSERT_FALSE(report.scores.empty());
    for (const auto& [k, sc] : report.scores) {
      EXPECT_EQ(sc.critical_rank, kSlowRank);
      EXPECT_GT(sc.imbalance_ratio, report.rebalance_threshold);
      EXPECT_GT(sc.imbalance_penalty_s, 0.0);
    }
    // The persistent skew surfaces as a rebalance recommendation with
    // the pinned rank, and the decision trail says so.
    EXPECT_TRUE(report.rebalance_recommended);
    EXPECT_EQ(report.rebalance_rank, kSlowRank);
    EXPECT_NE(report.why.find("rebalance recommended"), std::string::npos)
        << report.why;
    EXPECT_NE(report.why.find("rank " + std::to_string(kSlowRank)),
              std::string::npos)
        << report.why;
    (void)op;
    (void)comm;
  });
}

TEST(Autotune, ReportJsonRejectsMissingWhy) {
  AutotuneReport report;
  report.why = "wall objective: basic depth 1 untiled wins";
  report.seconds_by_depth[{ir::MpiMode::Basic, 1, {}}] = 0.5;
  const std::string good = jitfd::core::autotune_report_json(report);
  EXPECT_TRUE(obs::validate_autotune_json(good).ok)
      << obs::validate_autotune_json(good).error << "\n" << good;

  report.why.clear();
  const std::string bad = jitfd::core::autotune_report_json(report);
  const obs::SchemaCheck check = obs::validate_autotune_json(bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("why"), std::string::npos) << check.error;
}

TEST(Autotune, ReportJsonEscapesControlCharacters) {
  AutotuneReport report;
  report.why = "line one\nline\ttwo \"quoted\" back\\slash";
  report.seconds_by_depth[{ir::MpiMode::Basic, 1, {}}] = 0.5;
  const std::string reason = "clamped:\n\tdepth \"4\" > halo";
  report.skipped[{ir::MpiMode::Full, 4, {8, 8}}] = reason;
  const std::string json = jitfd::core::autotune_report_json(report);
  const obs::SchemaCheck check = obs::validate_autotune_json(json);
  EXPECT_TRUE(check.ok) << check.error << "\n" << json;

  obs::JsonValue root;
  std::string err;
  ASSERT_TRUE(obs::json_parse(json, root, &err)) << err;
  const obs::JsonValue* a = root.find("autotune");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->find("why")->str, report.why);
  ASSERT_EQ(a->find("skipped")->arr.size(), 1U);
  EXPECT_EQ(a->find("skipped")->arr[0].find("reason")->str, reason);
}

TEST(Autotune, TunedOperatorMatchesSerialReference) {
  const std::int64_t n = 12;
  const int steps = 4;
  const double dt = 1e-3;
  std::vector<float> expected;
  {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    Operator op({diffusion_eq(u)});
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    expected = u.gather(steps % 2);
  }
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{n - 1, n - 1}, 1.0F);
    auto op = autotune_operator({diffusion_eq(u)}, {}, {{"dt", dt}}, 0, 2);
    op->apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", dt}}});
    const auto got = u.gather(steps % 2);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

}  // namespace
