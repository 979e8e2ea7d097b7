// Measured halo-exchange runs of the three DMP patterns on the rank
// substrate used by every test, in two gated modes (one is required;
// without either the binary prints usage and exits 2):
//
// --comm-avoid measures communication-avoiding deep-halo stepping:
// pattern x exchange-depth wall times on a small, latency-bound grid,
// emitted through the shared JSON reporter (bench/BENCH_comm_avoid.json
// is a committed run of it). Its k=1 rows time the three patterns'
// per-step exchange.
//
// --drift runs one traced diffusion step loop per pattern, lifts the
// trace into the perfmodel's measured-vs-predicted comparison
// (perfmodel/compare.h), and emits the drift gates (overlap
// efficiency, comm fraction, redundant share) through the series
// schema's "drift" object — bench/BENCH_drift.json is a committed run,
// and the perf sentinel holds fresh runs inside the committed bands.
// --band=X sets the allowed |measured - predicted| drift recorded in
// the emitted report (only the BASELINE's band is contractual);
// --band-overlap/--band-comm/--band-redundant override it per metric.
//
// --transport=threads|process_shm selects the rank realization for both
// modes (default: threads, or JITFD_TRANSPORT).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_util.h"
#include "core/operator.h"
#include "grid/function.h"
#include "obs/analysis.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "perfmodel/compare.h"
#include "perfmodel/kernel_spec.h"
#include "perfmodel/machine.h"
#include "smpi/runtime.h"
#include "symbolic/manip.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

// Set once in main() from --transport=; unset follows JITFD_TRANSPORT.
std::optional<smpi::TransportKind> g_transport;

// --comm-avoid: wall time of pattern x exchange-depth on a small grid
// with many ranks, where per-exchange overhead (message posting, pack
// scheduling, rendezvous synchronization) is a large share of the step
// and amortizing it over k steps should pay despite the redundant
// ghost-zone compute.
int run_comm_avoid(int argc, char** argv) {
  using jitfd::core::Backend;
  namespace grid = jitfd::grid;

  const int nranks =
      std::stoi(benchutil::arg_value(argc, argv, "ranks", "8"));
  const std::int64_t edge =
      std::stoll(benchutil::arg_value(argc, argv, "edge", "64"));
  const int steps = std::stoi(benchutil::arg_value(argc, argv, "steps", "40"));
  const int reps = std::stoi(benchutil::arg_value(argc, argv, "reps", "5"));
  const int so = std::stoi(benchutil::arg_value(argc, argv, "so", "4"));
  const std::string backend_name =
      benchutil::arg_value(argc, argv, "backend", "interpret");
  const Backend backend =
      backend_name == "jit" ? Backend::Jit : Backend::Interpret;
  const std::string out = benchutil::arg_value(argc, argv, "out", "");

  std::vector<benchutil::MeasuredSeries> rows;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    for (const int depth : {1, 2, 4}) {
      // Halo capacity is fixed at Function construction, so the depth is
      // selected process-wide before fields exist.
      grid::Function::set_default_exchange_depth(depth);
      benchutil::MeasuredSeries series;
      series.name =
          std::string(ir::to_string(mode)) + "/k" + std::to_string(depth);
      // One untimed warmup run per configuration (JIT compilation, SMPI
      // payload-pool fills), then `reps` timed repetitions.
      for (int rep = -1; rep < reps; ++rep) {
        double seconds = 0.0;
        smpi::launch({.nranks = nranks, .transport = g_transport},
                     [&](smpi::Communicator& comm) {
          const Grid g({edge, edge}, {1.0, 1.0}, comm);
          TimeFunction u("u", g, so, 1);
          u.fill_global_box(0, std::vector<std::int64_t>{edge / 4, edge / 4},
                            std::vector<std::int64_t>{edge / 2, edge / 2},
                            1.0F);
          ir::CompileOptions opts;
          opts.mode = mode;
          opts.exchange_depth = depth;
          Operator op({ir::Eq(u.forward(),
                              sym::solve(u.dt() - u.laplace(), sym::Ex(0),
                                         u.forward()))},
                      opts);
          comm.barrier();
          const auto start = std::chrono::steady_clock::now();
          const auto run = op.apply({.time_m = 0,
                                     .time_M = steps - 1,
                                     .scalars = {{"dt", 1e-4}},
                                     .backend = backend});
          comm.barrier();
          if (comm.rank() == 0) {
            seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
            series.counters["exchange_depth"] =
                static_cast<double>(run.halo.exchange_depth);
            series.counters["msgs_per_step"] =
                static_cast<double>(run.halo.messages) / steps;
            series.counters["bytes_per_step"] =
                static_cast<double>(run.halo.bytes_sent) / steps;
            series.counters["steps_covered"] =
                static_cast<double>(run.halo.steps_covered);
          }
                     });
        if (rep >= 0) {
          series.seconds.push_back(seconds);
        }
      }
      rows.push_back(std::move(series));
    }
  }
  grid::Function::set_default_exchange_depth(1);

  const std::string json = benchutil::series_json(
      "comm_avoid",
      "Communication-avoiding deep-halo stepping: wall time per pattern and "
      "exchange depth k. One exchange round per k steps; its depth grows "
      "with k and the skipped rounds are replaced by redundant ghost-zone "
      "compute, so k > 1 pays exactly when per-exchange overhead dominates.",
      rows,
      {{"geometry", std::to_string(edge) + "^2 grid, " +
                        std::to_string(nranks) + " ranks, space order " +
                        std::to_string(so)},
       {"steps_per_repetition", std::to_string(steps)},
       {"backend", backend_name}});
  std::fputs(json.c_str(), stdout);
  if (!out.empty()) {
    std::ofstream f(out);
    f << json;
  }
  return 0;
}

// --drift: model-vs-measured drift gates per pattern. Each repetition
// is a traced diffusion run; the trace is collected in the parent after
// launch() returns (so it works under both transports — the process
// transport merges child traces at that point), distilled into a
// RunProfile + cross-rank AnalysisReport, and compared against the
// ScalingModel. The |measured - predicted| drift of overlap efficiency,
// comm fraction and redundant share lands in the series' "drift"
// object; wall seconds and the structural message counters ride along.
int run_drift(int argc, char** argv) {
  namespace obs = jitfd::obs;
  namespace perf = jitfd::perf;

  const int nranks =
      std::stoi(benchutil::arg_value(argc, argv, "ranks", "4"));
  const std::int64_t edge =
      std::stoll(benchutil::arg_value(argc, argv, "edge", "64"));
  const int steps = std::stoi(benchutil::arg_value(argc, argv, "steps", "20"));
  const int reps = std::stoi(benchutil::arg_value(argc, argv, "reps", "3"));
  const int so = std::stoi(benchutil::arg_value(argc, argv, "so", "4"));
  const std::string band_s = benchutil::arg_value(argc, argv, "band", "0.25");
  const double band_overlap = std::stod(
      benchutil::arg_value(argc, argv, "band-overlap", band_s));
  const double band_comm =
      std::stod(benchutil::arg_value(argc, argv, "band-comm", band_s));
  const double band_redundant = std::stod(
      benchutil::arg_value(argc, argv, "band-redundant", band_s));
  const std::string out = benchutil::arg_value(argc, argv, "out", "");

  // Near-square 2-D process grid, chosen parent-side so the structural
  // comparison knows the topology without a communicator.
  int rows_n = static_cast<int>(std::sqrt(static_cast<double>(nranks)));
  while (rows_n > 1 && nranks % rows_n != 0) {
    --rows_n;
  }
  const std::vector<int> topology{nranks / rows_n, rows_n};

  const perf::ScalingModel model(perf::archer2_node(), perf::acoustic_spec(),
                                 perf::Target::Cpu);
  perf::DriftBands bands;
  bands.overlap_efficiency = band_overlap;
  bands.comm_fraction = band_comm;
  bands.redundant_share = band_redundant;

  std::vector<benchutil::MeasuredSeries> rows;
  std::vector<perf::Comparison> comparisons;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    benchutil::MeasuredSeries series;
    series.name = ir::to_string(mode);
    for (int rep = -1; rep < reps; ++rep) {
      obs::reset();
      smpi::launch({.nranks = nranks, .transport = g_transport},
                   [&](smpi::Communicator& comm) {
        const Grid g({edge, edge}, {1.0, 1.0}, comm, topology);
        TimeFunction u("u", g, so, 1);
        u.fill_global_box(0, std::vector<std::int64_t>{edge / 4, edge / 4},
                          std::vector<std::int64_t>{edge / 2, edge / 2},
                          1.0F);
        ir::CompileOptions opts;
        opts.mode = mode;
        Operator op({ir::Eq(u.forward(),
                            sym::solve(u.dt() - u.laplace(), sym::Ex(0),
                                       u.forward()))},
                    opts);
        op.apply({.time_m = 0,
                  .time_M = steps - 1,
                  .scalars = {{"dt", 1e-4}},
                  .trace = true});
                   });
      const obs::TraceData data = obs::collect();
      const obs::RunProfile profile = obs::profile_from(data);
      if (rep < 0) {
        continue;  // Warmup (JIT of nothing, SMPI pools): not recorded.
      }
      series.seconds.push_back(profile.wall_s());
      if (rep + 1 == reps) {
        // Final repetition carries the comparison: structural counters
        // are identical across reps, timing uses this run's trace.
        const obs::AnalysisReport analysis = obs::analyze(data);
        const perf::MeasuredRun measured = perf::measured_from(
            profile, analysis, "diffusion", mode, so, edge * edge * steps,
            steps);
        const perf::Comparison cmp =
            perf::compare_run(measured, model, topology, {edge, edge});
        series.counters["msgs_per_step"] =
            static_cast<double>(measured.messages) / steps;
        series.counters["bytes_per_step"] = cmp.measured_bytes_per_step;
        series.counters["messages_match"] = cmp.messages_match() ? 1.0 : 0.0;
        for (const perf::DriftGate& gate : perf::drift_gates(cmp, bands)) {
          series.drift[gate.metric] = {gate.drift, gate.band};
        }
        comparisons.push_back(cmp);
      }
    }
    rows.push_back(std::move(series));
  }

  std::fputs(perf::comparison_table(comparisons).c_str(), stdout);
  const std::string json = benchutil::series_json(
      "drift",
      "Model-vs-measured drift gates per halo pattern: traced diffusion "
      "runs distilled into overlap-efficiency, comm-fraction and "
      "redundant-share drifts against the analytical model. The committed "
      "baseline's band per metric is the perfmodel contract the sentinel "
      "enforces.",
      rows,
      {{"geometry", std::to_string(edge) + "^2 grid, " +
                        std::to_string(nranks) + " ranks, space order " +
                        std::to_string(so)},
       {"steps_per_repetition", std::to_string(steps)}});
  std::fputs(json.c_str(), stdout);
  if (!out.empty()) {
    std::ofstream f(out);
    f << json;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string transport =
      benchutil::arg_value(argc, argv, "transport", "");
  if (!transport.empty()) {
    try {
      g_transport = smpi::transport_from_string(transport);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (benchutil::has_flag(argc, argv, "comm-avoid")) {
    return run_comm_avoid(argc, argv);
  }
  if (benchutil::has_flag(argc, argv, "drift")) {
    return run_drift(argc, argv);
  }
  std::fputs(
      "usage: bench_halo_patterns (--comm-avoid | --drift) "
      "[--transport=threads|process_shm] [--ranks=N] [--edge=N] "
      "[--steps=N] [--reps=N] [--so=N] [--out=FILE]\n"
      "  --comm-avoid also takes --backend=interpret|jit; --drift takes "
      "--band=X [--band-overlap=X] [--band-comm=X] [--band-redundant=X]\n",
      stderr);
  return 2;
}
