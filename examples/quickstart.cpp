// Quickstart: the paper's Listing 1, in the C++ DSL.
//
// A heat-diffusion operator on a 4x4 grid: define the grid and a
// time-varying function, write the PDE symbolically, solve for the
// update, build the Operator, and apply it. Run with an argument to see
// the same program executed on that many MPI ranks (threads by default,
// forked processes with --transport=process_shm) with the distributed
// NumPy-style data access of Listings 2-3 — the source below does not
// change.
//
//   ./quickstart                        # serial
//   ./quickstart 4                      # 4 ranks, basic halo pattern
//   ./quickstart 4 --transport=process_shm
//                                       # ranks as forked processes over
//                                       # shared-memory rings (default:
//                                       # threads, or JITFD_TRANSPORT)
//   ./quickstart --env                  # list every JITFD_* variable
//                                       # with type, default, live value
//   ./quickstart 4 --trace=trace.json   # + per-rank trace: summary on
//                                       # stdout, Chrome JSON to the file
//                                       # (open in chrome://tracing or
//                                       # https://ui.perfetto.dev)
//   ... --analysis=analysis.json        # + cross-rank analysis report
//                                       # (wait-state attribution,
//                                       # imbalance; needs --trace=)
//   ... --metrics=metrics.json          # + metrics registry dump
//                                       # (enables metrics for the run)
//   ... --health[=N]                    # + generated NaN/Inf/min/max/L2
//                                       # checks every N steps (default 1)
//   ... --on-nan=abort_dump             # on NaN/Inf: write the flight-
//                                       # recorder bundle and exit nonzero
//                                       # (also: ignore | record)
//   ./quickstart 4 --autotune=at.json   # trial every halo pattern x
//                                       # depth x tile, apply the winner,
//                                       # write the report (with the
//                                       # "why" decision trail) to the
//                                       # file; --objective=attributed
//                                       # scores trials on attributed
//                                       # cost (wait + redundant +
//                                       # imbalance) instead of wall time
//   ./quickstart 4 --rebalance          # closed loop: traced uniform
//                                       # run -> measured per-rank load
//                                       # -> biased dimension-0 split ->
//                                       # rerun, asserting the rebalanced
//                                       # model is bitwise identical.
//                                       # --expect-rebalance[=RANK] exits
//                                       # nonzero unless a rebalance was
//                                       # recommended (pinning RANK);
//                                       # inject load with
//                                       # JITFD_DELAY_RANK/JITFD_DELAY_US
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/autotune.h"
#include "core/env.h"
#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace obs = jitfd::obs;
namespace sym = jitfd::sym;

namespace {

struct HealthArgs {
  std::int64_t interval = 0;
  obs::health::OnNan on_nan = obs::health::OnNan::Record;
};

jitfd::core::RunSummary simulate(const Grid& grid, int rank, bool trace,
                                 const HealthArgs& health) {
  // Variable declarations (Listing 1, lines 2-8).
  const double nu = 0.5;
  const double sigma = 0.25;
  const double dx = grid.spacing(0);
  const double dy = grid.spacing(1);
  const double dt = sigma * dx * dy / nu;

  // A TimeFunction encapsulating space- and time-varying data
  // (space_order=2, first order in time).
  TimeFunction u("u", grid, /*space_order=*/2, /*time_order=*/1);

  // u.data[1:-1, 1:-1] = 1 — a *global* slice; each rank writes only the
  // part it owns (Listing 2).
  u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                    std::vector<std::int64_t>{3, 3}, 1.0F);

  // The equation to be solved: Eq(u.dt, nu * u.laplace), rearranged for
  // u.forward by solve().
  const sym::Ex pde = u.dt() - nu * u.laplace();
  const ir::Eq stencil(u.forward(), sym::solve(pde, sym::Ex(0), u.forward()));

  // Generate the operator (the compiler runs here: clustering, flop
  // reduction, halo detection, pattern lowering) and apply one step.
  Operator op({stencil});
  const jitfd::core::RunSummary run =
      op.apply({.time_m = 0,
                .time_M = 0,
                .scalars = {{"dt", dt}},
                .trace = trace,
                .health_interval = health.interval,
                .on_nan = health.on_nan});

  // Inspect the result as one logical array (gathered on rank 0).
  const std::vector<float> data = u.gather(1);
  if (rank == 0) {
    std::printf("u after one step (dt = %.4f):\n", dt);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        std::printf(" %6.3f", data[static_cast<std::size_t>(4 * i + j)]);
      }
      std::printf("\n");
    }
    std::printf("\ngenerated C (excerpt):\n");
    const std::string& code = op.ccode();
    // Print the kernel body only (skip the boilerplate header).
    const auto pos = code.find("for (long time");
    std::printf("%.600s...\n", code.c_str() + (pos == std::string::npos
                                                   ? 0
                                                   : pos));
  }
  return run;
}

// --autotune=FILE: tune the diffusion operator over pattern x depth x
// tile, apply one step with the winner, and write the machine-readable
// report (tools/trace_check --autotune validates it).
int run_autotune(int nranks, smpi::LaunchOptions launch_opts,
                 const std::string& path, jitfd::core::Objective objective) {
  constexpr std::int64_t kEdge = 16;
  int status = 0;
  const auto tune = [&](const Grid& grid, smpi::Communicator* comm) {
    const double nu = 0.5;
    const double dt = 0.25 * grid.spacing(0) * grid.spacing(1) / nu;
    TimeFunction u("u", grid, /*space_order=*/2, /*time_order=*/1);
    u.fill_global_box(0, std::vector<std::int64_t>{1, 1},
                      std::vector<std::int64_t>{kEdge - 1, kEdge - 1}, 1.0F);
    const sym::Ex pde = u.dt() - nu * u.laplace();
    const ir::Eq stencil(u.forward(),
                         sym::solve(pde, sym::Ex(0), u.forward()));
    jitfd::core::AutotuneReport report;
    const auto op = jitfd::core::autotune_operator(
        {stencil}, {}, {{"dt", dt}}, /*time_m=*/0, /*trial_steps=*/3, &report,
        {}, objective);
    op->apply({.time_m = 0, .time_M = 0, .scalars = {{"dt", dt}}});
    if (comm == nullptr || comm->rank() == 0) {
      std::printf("autotune (%s objective): chose %s, depth %d\n",
                  report.objective == jitfd::core::Objective::Attributed
                      ? "attributed"
                      : "wall",
                  ir::to_string(report.best), report.best_depth);
      std::printf("  why: %s\n", report.why.c_str());
      if (report.rebalance_recommended) {
        std::printf("  rebalance recommended: rank %d persistently "
                    "critical\n",
                    report.rebalance_rank);
      }
      if (jitfd::core::write_autotune_file(path, report)) {
        std::printf("autotune report written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        status = 1;
      }
    }
  };
  if (nranks > 1) {
    launch_opts.nranks = nranks;
    smpi::launch(launch_opts, [&](smpi::Communicator& comm) {
      const Grid grid({kEdge, kEdge}, {2.0, 2.0}, comm);
      tune(grid, &comm);
    });
  } else {
    const Grid grid({kEdge, kEdge}, {2.0, 2.0});
    tune(grid, nullptr);
  }
  return status;
}

// --rebalance: the closed loop. A traced uniform run measures per-rank
// compute; the loads are allreduced (rank-uniform under both
// transports, where live traces may only cover the own rank), fed to
// Grid::plan_rebalance, and — when a biased split is recommended — the
// same simulation reruns on the biased grid. The gathered wavefields
// must be bitwise identical: decomposition placement must never change
// the model.
int run_rebalance(int nranks, smpi::LaunchOptions launch_opts,
                  bool expect_rebalance, int expect_rank) {
  constexpr std::int64_t kEdge = 32;
  constexpr int kSteps = 6;
  if (nranks < 2) {
    std::fprintf(stderr, "--rebalance needs >= 2 ranks\n");
    return 2;
  }
  jitfd::grid::RebalancePlan plan;
  std::string clamp_reason;
  bool bitwise_equal = false;
  launch_opts.nranks = nranks;
  smpi::launch(launch_opts, [&](smpi::Communicator& comm) {
    // Pin a 1-D dimension-0 topology so process rows map 1:1 to ranks.
    const std::vector<int> topo{comm.size(), 1};
    const auto diffuse = [&](const Grid& grid, bool trace) {
      TimeFunction u("u", grid, /*space_order=*/2, /*time_order=*/1);
      u.fill_global_box(0, std::vector<std::int64_t>{kEdge / 4, kEdge / 4},
                        std::vector<std::int64_t>{kEdge / 2, kEdge / 2},
                        1.0F);
      const sym::Ex pde = u.dt() - 0.5 * u.laplace();
      Operator op({ir::Eq(u.forward(),
                          sym::solve(pde, sym::Ex(0), u.forward()))});
      op.apply({.time_m = 0,
                .time_M = kSteps - 1,
                .scalars = {{"dt", 1e-4}},
                .trace = trace});
      return u.gather(kSteps % 2);
    };

    obs::reset();
    comm.barrier();
    std::vector<float> base;
    jitfd::grid::RebalancePlan local_plan;
    {
      const Grid grid({kEdge, kEdge}, {2.0, 2.0}, comm, topo);
      base = diffuse(grid, /*trace=*/true);

      // Own compute seconds from the trace; every transport sees at
      // least its own rank's events live.
      const obs::RunProfile profile = obs::profile_from(obs::collect());
      std::vector<double> loads(static_cast<std::size_t>(comm.size()), 0.0);
      for (const obs::RankProfile& r : profile.ranks) {
        if (r.rank == comm.rank()) {
          loads[static_cast<std::size_t>(r.rank)] = r.compute_s;
        }
      }
      comm.allreduce(std::span<double>(loads), smpi::ReduceOp::Sum);
      obs::AnalysisReport report;
      for (int r = 0; r < comm.size(); ++r) {
        report.rank_loads.push_back(
            {r, loads[static_cast<std::size_t>(r)]});
      }
      jitfd::grid::RebalanceOptions ropts;
      ropts.threshold =
          jitfd::env::get_float("JITFD_REBALANCE_THRESHOLD", 1.25);
      local_plan = grid.plan_rebalance(report, ropts);
    }
    obs::reset();
    comm.barrier();

    std::vector<float> biased;
    std::string local_clamp;
    if (local_plan.changed) {
      const Grid grid({kEdge, kEdge}, {2.0, 2.0}, comm, topo,
                      local_plan.sizes);
      local_clamp = grid.rebalance_clamp_reason();
      biased = diffuse(grid, /*trace=*/false);
    }
    if (comm.rank() == 0) {
      plan = local_plan;
      clamp_reason = local_clamp;
      bitwise_equal =
          local_plan.changed && base.size() == biased.size() &&
          std::memcmp(base.data(), biased.data(),
                      base.size() * sizeof(float)) == 0;
    }
  });

  std::printf("rebalance plan: %s (measured ratio %.3f, critical part "
              "%d)\n",
              plan.reason.c_str(), plan.measured_ratio, plan.critical_part);
  if (plan.changed) {
    std::printf("  biased dimension-0 split:");
    for (const std::int64_t s : plan.sizes) {
      std::printf(" %lld", static_cast<long long>(s));
    }
    std::printf("\n");
    if (!clamp_reason.empty()) {
      std::fprintf(stderr, "  split rejected by grid: %s\n",
                   clamp_reason.c_str());
      return 5;
    }
    if (!bitwise_equal) {
      std::fprintf(stderr,
                   "  FAIL: rebalanced wavefield differs from uniform\n");
      return 5;
    }
    std::printf("  rebalanced wavefield bitwise identical to uniform "
                "split\n");
  }
  if (expect_rebalance && !plan.changed) {
    std::fprintf(stderr, "expected a rebalance recommendation, got: %s\n",
                 plan.reason.c_str());
    return 4;
  }
  if (expect_rank >= 0 && plan.critical_part != expect_rank) {
    std::fprintf(stderr, "expected critical part %d, plan names %d\n",
                 expect_rank, plan.critical_part);
    return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int nranks = 0;
  std::string trace_path;
  std::string analysis_path;
  std::string metrics_path;
  std::string autotune_path;
  jitfd::core::Objective objective = jitfd::core::Objective::Wall;
  bool rebalance = false;
  bool expect_rebalance = false;
  int expect_rank = -1;
  smpi::LaunchOptions launch_opts;
  HealthArgs health;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--analysis=", 11) == 0) {
      analysis_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--autotune=", 11) == 0) {
      autotune_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--objective=", 12) == 0) {
      const std::string name = argv[i] + 12;
      if (name == "wall") {
        objective = jitfd::core::Objective::Wall;
      } else if (name == "attributed") {
        objective = jitfd::core::Objective::Attributed;
      } else {
        std::fprintf(stderr, "unknown --objective=%s (wall|attributed)\n",
                     name.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--rebalance") == 0) {
      rebalance = true;
    } else if (std::strcmp(argv[i], "--expect-rebalance") == 0) {
      expect_rebalance = true;
    } else if (std::strncmp(argv[i], "--expect-rebalance=", 19) == 0) {
      expect_rebalance = true;
      expect_rank = std::atoi(argv[i] + 19);
    } else if (std::strcmp(argv[i], "--env") == 0) {
      std::printf("%s", jitfd::env::describe().c_str());
      return 0;
    } else if (std::strncmp(argv[i], "--transport=", 12) == 0) {
      try {
        launch_opts.transport = smpi::transport_from_string(argv[i] + 12);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health.interval = 1;
    } else if (std::strncmp(argv[i], "--health=", 9) == 0) {
      health.interval = std::atoll(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--on-nan=", 9) == 0) {
      health.on_nan = obs::health::on_nan_from_string(argv[i] + 9);
    } else {
      nranks = std::atoi(argv[i]);
    }
  }
  if (!autotune_path.empty()) {
    return run_autotune(nranks, launch_opts, autotune_path, objective);
  }
  if (rebalance) {
    return run_rebalance(nranks, launch_opts, expect_rebalance, expect_rank);
  }
  const bool trace = !trace_path.empty();
  if (!metrics_path.empty()) {
    obs::metrics::set_enabled(true);
  }
  // Post-mortem bundles for fatal signals / uncaught exceptions too,
  // not just NaN detection under --on-nan=abort_dump.
  obs::flight::install_crash_handlers();

  jitfd::core::RunSummary run;
  try {
    if (nranks > 1) {
      launch_opts.nranks = nranks;
      const smpi::TransportKind kind = launch_opts.transport.has_value()
                                           ? *launch_opts.transport
                                           : smpi::default_transport();
      std::printf("running on %d MPI ranks (%s transport)\n", nranks,
                  smpi::to_string(kind));
      smpi::launch(launch_opts, [&](smpi::Communicator& comm) {
        const Grid grid({4, 4}, {2.0, 2.0}, comm);
        const auto r = simulate(grid, comm.rank(), trace, health);
        if (comm.rank() == 0) {
          run = r;
        }
      });
    } else {
      const Grid grid({4, 4}, {2.0, 2.0});
      run = simulate(grid, 0, trace, health);
    }
  } catch (const obs::health::DivergenceError& e) {
    std::fprintf(stderr, "diverged: %s\n", e.what());
    if (!e.dump_path().empty()) {
      std::fprintf(stderr, "flight bundle: %s\n", e.dump_path().c_str());
    }
    return 3;
  }

  if (health.interval > 0) {
    std::printf("\nhealth: %lld checks, %lld NaN / %lld Inf points (%s)\n",
                static_cast<long long>(run.health.checks),
                static_cast<long long>(run.health.nan_points),
                static_cast<long long>(run.health.inf_points),
                run.health.healthy() ? "healthy" : "diverged");
  }
  std::printf("\n%lld point-updates in %.3f ms (%s backend, %llu halo "
              "messages)\n",
              static_cast<long long>(run.points_updated),
              1e3 * run.seconds, jitfd::core::to_string(run.backend),
              static_cast<unsigned long long>(run.halo.messages));
  // Every rank has finished (smpi::launch returned; child traces are
  // merged under process_shm), so the trace snapshot is complete here.
  if (run.trace.active()) {
    std::printf("\n%s", run.trace.summary().c_str());
    if (run.trace.write_chrome(trace_path)) {
      std::printf("chrome trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    if (!analysis_path.empty()) {
      if (!obs::json::write_file(analysis_path,
                                 obs::analysis_json(run.trace.analysis()))) {
        std::fprintf(stderr, "cannot write %s\n", analysis_path.c_str());
        return 1;
      }
      std::printf("cross-rank analysis written to %s\n",
                  analysis_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    if (!obs::json::write_file(metrics_path, obs::metrics::to_json())) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
