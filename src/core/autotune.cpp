#include "core/autotune.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <sstream>

#include "core/env.h"
#include "obs/analysis.h"
#include "obs/json.h"
#include "symbolic/manip.h"

namespace jitfd::core {

namespace {

std::vector<grid::Function*> fields_of(const std::vector<ir::Eq>& eqs) {
  std::set<int> ids;
  for (const ir::Eq& eq : eqs) {
    for (const sym::Ex& e : {eq.lhs, eq.rhs}) {
      sym::walk(e, [&](const sym::Ex& sub) {
        if (sub.kind() == sym::Kind::FieldAccess) {
          ids.insert(sub.node().field.id);
        }
      });
    }
  }
  std::vector<grid::Function*> out;
  for (const int id : ids) {
    grid::Function* f = grid::lookup_field(id);
    if (f != nullptr) {
      out.push_back(f);
    }
  }
  return out;
}

/// Tile-shape candidates: untiled, plus outer-dimension blocks sized so
/// one block's working set (block rows x the per-row footprint of every
/// live buffer) fits a nominal last-level-cache share, plus a halved
/// variant. Candidates not strictly smaller than the minimum rank-local
/// extent are dropped here — the lowering pass would clamp them to
/// untiled anyway, duplicating the untiled trial.
std::vector<std::vector<std::int64_t>> tile_candidates(
    const std::vector<grid::Function*>& fields, const grid::Grid& grid) {
  std::vector<std::vector<std::int64_t>> cands;
  cands.push_back({});  // untiled
  const int nd = grid.ndims();
  if (nd < 2) {
    return cands;  // 1-D: the only dimension stays contiguous for SIMD
  }
  // Bytes one grid row (innermost extent) of every live buffer touches.
  std::int64_t row_bytes = 0;
  for (const grid::Function* f : fields) {
    row_bytes += static_cast<std::int64_t>(sizeof(float)) *
                 f->padded_shape().back() * f->time_buffers();
  }
  // Rows per tile along every non-innermost dim combined; for nd > 2 a
  // dim-0 block of T spans T * mid-extents rows, so divide out.
  std::int64_t rows = 1;
  for (int d = 1; d < nd - 1; ++d) {
    rows *= grid.min_local_size(d);
  }
  constexpr std::int64_t kCacheBytes = 1 << 25;  // nominal 32 MiB LLC share
  const std::int64_t fit =
      row_bytes > 0 && rows > 0 ? kCacheBytes / (row_bytes * rows) : 0;
  const std::int64_t min_ext = grid.min_local_size(0);
  for (std::int64_t t : {fit, fit / 2}) {
    t = std::min(t, min_ext / 2);  // at least two blocks, else untiled wins
    if (t < 2) {
      continue;
    }
    std::vector<std::int64_t> cand(static_cast<std::size_t>(nd), 0);
    cand[0] = t;
    if (std::find(cands.begin(), cands.end(), cand) == cands.end()) {
      cands.push_back(cand);
    }
  }
  return cands;
}

std::string tile_text(const std::vector<std::int64_t>& tile) {
  if (tile.empty() ||
      std::all_of(tile.begin(), tile.end(),
                  [](std::int64_t t) { return t == 0; })) {
    return "untiled";
  }
  std::string out = "tile ";
  for (std::size_t i = 0; i < tile.size(); ++i) {
    out += (i > 0 ? "," : "") + std::to_string(tile[i]);
  }
  return out;
}

std::string trial_text(const AutotuneReport::TrialKey& key) {
  std::ostringstream os;
  os << ir::to_string(std::get<0>(key)) << " depth " << std::get<1>(key)
     << " " << tile_text(std::get<2>(key));
  return os.str();
}

/// Build the rank-uniform AnalysisScore of one traced trial. Each rank
/// analyzes only its OWN events (under process_shm a live run never
/// sees peer traces — those merge after launch returns — so restricting
/// to the local rank makes both transports behave identically), then
/// the scalar totals are allreduced.
AnalysisScore score_trial(const obs::TraceHandle& handle,
                          const smpi::Communicator& comm) {
  obs::TraceData own;
  if (handle.active()) {
    for (const obs::TraceData::Rec& e : handle.data().events) {
      if (e.rank == comm.rank()) {
        own.events.push_back(e);
      }
    }
  }
  const obs::AnalysisReport local = obs::analyze(own);
  double own_wait = 0.0;
  for (const obs::RankWaitStats& w : local.rank_waits) {
    own_wait += w.wait_s;
  }
  const double own_compute = local.max_compute_s;  // single-rank report
  std::vector<double> sums{own_wait, local.redundant_compute_s,
                           local.overlap_window_s, local.overlap_hidden_s,
                           own_compute};
  comm.allreduce(std::span<double>(sums), smpi::ReduceOp::Sum);
  std::vector<double> max_compute{own_compute};
  comm.allreduce(std::span<double>(max_compute), smpi::ReduceOp::Max);
  // Critical rank: every rank proposes itself iff it holds the max
  // (bitwise — max_compute is a copy of one rank's value), then the
  // proposals max-reduce to the highest agreeing rank id.
  std::vector<std::int64_t> crit{
      own_compute >= max_compute[0] ? comm.rank() : -1};
  comm.allreduce(std::span<std::int64_t>(crit), smpi::ReduceOp::Max);

  const int n = comm.size();
  AnalysisScore sc;
  sc.wait_s = sums[0];
  sc.redundant_s = sums[1];
  if (sums[2] > 0.0) {
    sc.overlap_efficiency = std::clamp(sums[3] / sums[2], 0.0, 1.0);
  }
  const double mean_compute = n > 0 ? sums[4] / n : 0.0;
  if (mean_compute > 0.0) {
    sc.imbalance_ratio = max_compute[0] / mean_compute;
  }
  sc.critical_rank = static_cast<int>(crit[0]);
  sc.imbalance_penalty_s = std::max(max_compute[0] - mean_compute, 0.0);
  sc.attributed_cost_s =
      (n > 0 ? (sc.wait_s + sc.redundant_s) / n : 0.0) +
      sc.imbalance_penalty_s;
  return sc;
}

void put_key(obs::json::Writer& w, const AutotuneReport::TrialKey& key) {
  w.field("mode", ir::to_string(std::get<0>(key)));
  w.field("depth", std::get<1>(key)).key("tile").begin_array();
  for (const std::int64_t t : std::get<2>(key)) {
    w.num(t);
  }
  w.end_array();
}

}  // namespace

AttributedChoice choose_attributed(
    const std::map<AutotuneReport::TrialKey, AnalysisScore>& scores,
    int nranks) {
  AttributedChoice choice;
  if (scores.empty()) {
    choice.why = "attributed objective: no scored trials";
    return choice;
  }
  const auto* best = &*scores.begin();
  for (const auto& entry : scores) {
    if (entry.second.attributed_cost_s < best->second.attributed_cost_s) {
      best = &entry;
    }
  }
  choice.best = best->first;
  // Runner-up: the cheapest of the others, for the decisive-term diff.
  const std::pair<const AutotuneReport::TrialKey, AnalysisScore>* runner =
      nullptr;
  for (const auto& entry : scores) {
    if (&entry == best) {
      continue;
    }
    if (runner == nullptr ||
        entry.second.attributed_cost_s < runner->second.attributed_cost_s) {
      runner = &entry;
    }
  }
  std::ostringstream os;
  os.precision(9);
  os << "attributed objective: " << trial_text(best->first) << " wins";
  if (runner == nullptr) {
    os << " as the only scored candidate (cost "
       << best->second.attributed_cost_s << " s)";
    choice.why = os.str();
    return choice;
  }
  // Which cost term gave the winner its edge over the runner-up?
  const double per_rank = nranks > 0 ? 1.0 / nranks : 1.0;
  const double d_wait =
      (runner->second.wait_s - best->second.wait_s) * per_rank;
  const double d_redundant =
      (runner->second.redundant_s - best->second.redundant_s) * per_rank;
  const double d_imbalance =
      runner->second.imbalance_penalty_s - best->second.imbalance_penalty_s;
  const char* term = "attributed cost";
  double delta = 0.0;
  if (d_wait > delta) {
    term = "wait";
    delta = d_wait;
  }
  if (d_redundant > delta) {
    term = "redundant compute";
    delta = d_redundant;
  }
  if (d_imbalance > delta) {
    term = "imbalance penalty";
    delta = d_imbalance;
  }
  os << " on " << term << " (cost " << best->second.attributed_cost_s
     << " s vs " << runner->second.attributed_cost_s << " s for "
     << trial_text(runner->first) << ")";
  choice.why = os.str();
  return choice;
}

std::string autotune_report_json(const AutotuneReport& r) {
  std::ostringstream os;
  const bool attributed = r.objective == Objective::Attributed;
  obs::json::Writer w(os, obs::json::NonFinite::Zero, 3);
  w.begin_object().key("autotune").begin_object();
  w.field("objective", attributed ? "attributed" : "wall");
  w.field("why", r.why).field("trial_steps", r.trial_steps);
  w.key("best").begin_object();
  put_key(w, {r.best, r.best_depth, r.best_tile});
  w.end_object().key("rebalance").begin_object();
  w.field("recommended", r.rebalance_recommended);
  w.field("rank", r.rebalance_rank);
  w.field("threshold", r.rebalance_threshold).end_object();
  w.key("trials").begin_array();
  for (const auto& [key, secs] : r.seconds_by_depth) {
    w.begin_object();
    put_key(w, key);
    w.field("seconds", secs);
    const auto sit = r.scores.find(key);
    if (attributed && sit != r.scores.end()) {
      const AnalysisScore& sc = sit->second;
      w.key("score").begin_object().field("wait_seconds", sc.wait_s);
      w.field("overlap_efficiency", sc.overlap_efficiency);
      w.field("imbalance_ratio", sc.imbalance_ratio);
      w.field("critical_rank", sc.critical_rank);
      w.field("redundant_seconds", sc.redundant_s);
      w.field("imbalance_penalty_seconds", sc.imbalance_penalty_s);
      w.field("attributed_cost_seconds", sc.attributed_cost_s).end_object();
    }
    w.end_object();
  }
  w.end_array().key("skipped").begin_array();
  for (const auto& [key, reason] : r.skipped) {
    w.begin_object();
    put_key(w, key);
    w.field("reason", reason).end_object();
  }
  w.end_array().end_object().end_object();
  return os.str();
}

bool write_autotune_file(const std::string& path,
                         const AutotuneReport& report) {
  return obs::json::write_file(path, autotune_report_json(report));
}

std::unique_ptr<Operator> autotune_operator(
    const std::vector<ir::Eq>& eqs, ir::CompileOptions opts,
    const std::map<std::string, double>& scalars, std::int64_t time_m,
    int trial_steps, AutotuneReport* report,
    std::vector<runtime::SparseOp*> sparse_ops, Objective objective) {
  const std::vector<grid::Function*> fields = fields_of(eqs);
  const grid::Grid& grid = fields.front()->grid();

  AutotuneReport local_report;
  local_report.trial_steps = trial_steps;
  local_report.rebalance_threshold =
      env::get_float("JITFD_REBALANCE_THRESHOLD", 1.25);
#ifdef JITFD_OBS_DISABLED
  const bool obs_available = false;
#else
  const bool obs_available = true;
#endif
  std::string fallback_note;
  if (objective == Objective::Attributed && !obs_available) {
    objective = Objective::Wall;
    fallback_note =
        " (attributed objective requested, but tracing is compiled out: "
        "fell back to wall-clock)";
  }
  local_report.objective = objective;
  const bool attributed = objective == Objective::Attributed;

  if (!grid.distributed()) {
    opts.mode = ir::MpiMode::None;
    local_report.why = "serial grid: no distributed trials, mode none";
    if (report != nullptr) {
      *report = local_report;
    }
    return std::make_unique<Operator>(eqs, opts, std::move(sparse_ops));
  }

  // Snapshot all field data (trial steps mutate the wavefields).
  std::vector<std::vector<float>> snapshots;
  snapshots.reserve(fields.size());
  for (const grid::Function* f : fields) {
    const auto s = f->raw_storage();
    snapshots.emplace_back(s.begin(), s.end());
  }
  const auto restore = [&] {
    for (std::size_t i = 0; i < fields.size(); ++i) {
      auto dst = fields[i]->raw_storage();
      std::copy(snapshots[i].begin(), snapshots[i].end(), dst.begin());
    }
  };

  const std::vector<std::vector<std::int64_t>> tiles =
      tile_candidates(fields, grid);

  const smpi::Communicator& comm = grid.cart()->comm();
  double best_seconds = 0.0;
  bool first = true;
  for (const ir::MpiMode mode :
       {ir::MpiMode::Basic, ir::MpiMode::Diagonal, ir::MpiMode::Full}) {
    for (const int depth : {1, 2, 4}) {
      for (const std::vector<std::int64_t>& tile : tiles) {
        ir::CompileOptions trial_opts = opts;
        trial_opts.mode = mode;
        trial_opts.exchange_depth = depth;
        trial_opts.tile = tile;
        // Trials run without the sparse operations: their cost is
        // pattern-independent and some (receiver interpolation) accumulate
        // externally visible records that must not be polluted.
        Operator trial(eqs, trial_opts);
        const AutotuneReport::TrialKey key{mode, depth, tile};
        if (trial.info().exchange_depth != depth) {
          // The compiler clamped this request (identically on every rank:
          // clamping depends only on equations, topology and halo
          // capacity), so the trial would duplicate a shallower one.
          local_report.skipped[key] =
              trial.info().exchange_depth_clamp_reason.empty()
                  ? "exchange depth clamped to " +
                        std::to_string(trial.info().exchange_depth)
                  : trial.info().exchange_depth_clamp_reason;
          continue;
        }
        const std::vector<std::int64_t>& eff_tile = trial.info().tile;
        const bool eff_tiled =
            std::any_of(eff_tile.begin(), eff_tile.end(),
                        [](std::int64_t t) { return t > 0; });
        if (!tile.empty() && !eff_tiled) {
          // The whole tile request was clamped away: this trial would
          // duplicate the untiled one (same reasoning — the clamp is
          // rank-uniform by construction).
          local_report.skipped[key] = trial.info().tile_clamp_reason.empty()
                                          ? "tile clamped to untiled"
                                          : trial.info().tile_clamp_reason;
          continue;
        }
        // Key measured trials by the *effective* tile so partially
        // clamped requests that land on the same schedule dedupe.
        const AutotuneReport::TrialKey eff_key{
            mode, depth, eff_tiled ? eff_tile : std::vector<std::int64_t>{}};
        if (local_report.seconds_by_depth.count(eff_key) != 0) {
          local_report.skipped[key] = trial.info().tile_clamp_reason.empty()
                                          ? "duplicate of an earlier trial"
                                          : trial.info().tile_clamp_reason;
          continue;
        }
        comm.barrier();
        if (attributed) {
          // Quiescent point (behind the barrier): drop earlier events so
          // this trial's analysis sees only its own spans. Under
          // process_shm every process resets its own registry; under
          // threads the concurrent resets hit one mutex-guarded registry.
          obs::reset();
          comm.barrier();
        }
        const auto start = std::chrono::steady_clock::now();
        const RunSummary run = trial.apply({.time_m = time_m,
                                            .time_M = time_m + trial_steps - 1,
                                            .scalars = scalars,
                                            .trace = attributed});
        std::vector<double> elapsed{
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count()};
        // The slowest rank gates a synchronous time step.
        comm.allreduce(std::span<double>(elapsed), smpi::ReduceOp::Max);
        local_report.seconds_by_depth[eff_key] = elapsed[0];
        if (attributed) {
          local_report.scores[eff_key] = score_trial(run.trace, comm);
        }
        const auto mode_it = local_report.seconds.find(mode);
        if (mode_it == local_report.seconds.end() ||
            elapsed[0] < mode_it->second) {
          local_report.seconds[mode] = elapsed[0];
        }
        if (first || elapsed[0] < best_seconds) {
          first = false;
          best_seconds = elapsed[0];
          local_report.best = mode;
          local_report.best_depth = depth;
          local_report.best_tile = std::get<2>(eff_key);
        }
        restore();
      }
    }
  }
  if (attributed) {
    // Leave no trial events behind: the caller's next traced run starts
    // from a clean registry.
    comm.barrier();
    obs::reset();
    comm.barrier();
  }

  if (attributed && !local_report.scores.empty()) {
    const AttributedChoice choice =
        choose_attributed(local_report.scores, comm.size());
    local_report.best = std::get<0>(choice.best);
    local_report.best_depth = std::get<1>(choice.best);
    local_report.best_tile = std::get<2>(choice.best);
    local_report.why = choice.why;
    // Persistent imbalance: every scored trial crossed the threshold
    // and blamed the same rank — the skew is the domain's, not one
    // pattern's, so recommend a biased split.
    bool persistent = true;
    int stable_rank = local_report.scores.begin()->second.critical_rank;
    for (const auto& [key, sc] : local_report.scores) {
      if (sc.imbalance_ratio < local_report.rebalance_threshold ||
          sc.critical_rank != stable_rank || sc.critical_rank < 0) {
        persistent = false;
        break;
      }
    }
    if (persistent) {
      local_report.rebalance_recommended = true;
      local_report.rebalance_rank = stable_rank;
      local_report.why +=
          "; persistent imbalance on rank " + std::to_string(stable_rank) +
          " (rebalance recommended)";
    }
  } else {
    std::ostringstream os;
    os.precision(9);
    os << "wall objective: "
       << trial_text(
              {local_report.best, local_report.best_depth,
               local_report.best_tile})
       << " fastest at " << best_seconds << " s" << fallback_note;
    local_report.why = os.str();
  }

  opts.mode = local_report.best;
  opts.exchange_depth = local_report.best_depth;
  opts.tile = local_report.best_tile;
  if (report != nullptr) {
    *report = local_report;
  }
  return std::make_unique<Operator>(eqs, opts, std::move(sparse_ops));
}

}  // namespace jitfd::core
