#include "core/operator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "codegen/emit.h"
#include "core/env.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "symbolic/manip.h"

namespace jitfd::core {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::Interpret:
      return "interpret";
    case Backend::Jit:
      return "jit";
  }
  return "?";
}

namespace {

/// Context handed to the generated kernel's callback table.
struct JitCtx {
  runtime::HaloExchange* halo;
  std::vector<runtime::SparseOp*>* sparse;
  obs::health::Sink* health = nullptr;
  // Generated code refers to fields by their position in field_order so
  // identical operators emit identical (cache-shareable) source; the
  // trampoline maps that position back to the process-global field id.
  const std::vector<int>* field_order = nullptr;
};

void tramp_update(void* c, int spot, long time) {
  static_cast<JitCtx*>(c)->halo->update(spot, time);
}
void tramp_start(void* c, int spot, long time) {
  static_cast<JitCtx*>(c)->halo->start(spot, time);
}
void tramp_wait(void* c, int spot) {
  static_cast<JitCtx*>(c)->halo->wait(spot);
}
void tramp_progress(void* c) {
  auto* ctx = static_cast<JitCtx*>(c);
  if (ctx->halo != nullptr) {
    ctx->halo->progress();
  }
}
void tramp_sparse(void* c, int sparse_id, long time) {
  const obs::Span span("sparse.apply", obs::Cat::Sparse, time, sparse_id);
  static_cast<JitCtx*>(c)->sparse->at(static_cast<std::size_t>(sparse_id))
      ->apply(time);
}
void tramp_step(void* c, long time) {
  static_cast<JitCtx*>(c)->health->on_step(time);
}
void tramp_health(void* c, int field_pos, long time, long nan_count,
                  long inf_count, double min, double max, double l2sq) {
  auto* ctx = static_cast<JitCtx*>(c);
  obs::health::LocalStats stats;
  stats.nan_count = nan_count;
  stats.inf_count = inf_count;
  stats.min = min;
  stats.max = max;
  stats.l2sq = l2sq;
  const int field_id =
      ctx->field_order->at(static_cast<std::size_t>(field_pos));
  ctx->health->on_check(field_id, time, stats);
}

/// Fault-injection hook for the flight-recorder self-test:
/// JITFD_INJECT_NAN="rank:step" poisons one owned-interior point of the
/// first checked field on that rank at the top of that step, so the
/// step's compute propagates it into the written buffer and the next
/// health check detects it. Wraps the real monitor as the installed
/// Sink; injection happens at most once per apply.
class InjectNanSink : public obs::health::Sink {
 public:
  InjectNanSink(obs::health::Sink* inner, grid::Function* target, int rank,
                int inject_rank, std::int64_t inject_step)
      : inner_(inner),
        target_(target),
        rank_(rank),
        inject_rank_(inject_rank),
        inject_step_(inject_step) {}

  void on_step(std::int64_t time) override {
    inner_->on_step(time);
    if (!done_ && rank_ == inject_rank_ && time == inject_step_) {
      done_ = true;
      std::vector<std::int64_t> center;
      for (const std::int64_t s : target_->local_shape()) {
        center.push_back(s / 2);
      }
      // Poison the buffer read at this step (relative offset 0): the
      // stencil update spreads it into the written buffer before the
      // end-of-step check runs.
      target_->at_local(target_->buffer_index(0, time), center) =
          std::numeric_limits<float>::quiet_NaN();
    }
  }

  void on_check(int field_id, std::int64_t time,
                const obs::health::LocalStats& local) override {
    inner_->on_check(field_id, time, local);
  }

 private:
  obs::health::Sink* inner_;
  grid::Function* target_;
  int rank_;
  int inject_rank_;
  std::int64_t inject_step_;
  bool done_ = false;
};

}  // namespace

Operator::Operator(std::vector<ir::Eq> eqs, ir::CompileOptions opts,
                   std::vector<runtime::SparseOp*> sparse_ops)
    : eqs_(std::move(eqs)), opts_(opts), sparse_ops_(std::move(sparse_ops)) {
  if (eqs_.empty()) {
    throw std::invalid_argument("Operator: no equations");
  }
  // Resolve every referenced field through the registry.
  obs::Span resolve_span("compile.resolve_fields", obs::Cat::Compile,
                         static_cast<std::int64_t>(eqs_.size()));
  for (const ir::Eq& eq : eqs_) {
    for (const sym::Ex& e : {eq.lhs, eq.rhs}) {
      sym::walk(e, [&](const sym::Ex& sub) {
        if (sub.kind() == sym::Kind::FieldAccess) {
          grid::Function* f = grid::lookup_field(sub.node().field.id);
          if (f == nullptr) {
            throw std::invalid_argument("Operator: field '" +
                                        sub.node().field.name +
                                        "' is no longer alive");
          }
          fields_.add(f);
        }
      });
    }
  }
  resolve_span.close();
  grid_ = &fields_.all().front()->grid();
  for (const grid::Function* f : fields_.all()) {
    if (&f->grid() != grid_) {
      throw std::invalid_argument(
          "Operator: all fields must share one grid");
    }
  }

  if (grid_->distributed() && opts_.mode == ir::MpiMode::None) {
    // The Devito-style environment override (DEVITO_MPI=diag analogue):
    // JITFD_MPI selects the pattern without touching user code; Basic is
    // the default, as running distributed without exchanges would
    // silently compute garbage.
    // Strict: an unrecognized value is a hard error listing the accepted
    // spellings, never a silent fall-through to the default pattern.
    const std::string mode = env::get_enum(
        "JITFD_MPI", "basic",
        {"none", "0", "", "basic", "1", "diagonal", "diag", "diag2", "full"});
    opts_.mode = mode.empty() ? ir::MpiMode::None : ir::mode_from_string(mode);
    if (opts_.mode == ir::MpiMode::None) {
      opts_.mode = ir::MpiMode::Basic;
    }
  }

  if (opts_.tile.empty()) {
    // Like JITFD_MPI above: select tiling without touching user code.
    // Strict parse; infeasible entries are clamped and recorded by the
    // lowering pass.
    opts_.tile = env::get_int_list("JITFD_TILE");
  }

  std::vector<ir::SparseOpDesc> descs;
  for (std::size_t i = 0; i < sparse_ops_.size(); ++i) {
    descs.push_back(ir::SparseOpDesc{static_cast<int>(i)});
  }
  iet_ = ir::lower_to_iet(eqs_, *grid_, opts_, descs, info_);

  if (grid_->distributed() && opts_.mode != ir::MpiMode::None) {
    const obs::Span span("compile.register_spots", obs::Cat::Compile,
                         static_cast<std::int64_t>(info_.spots.size()));
    halo_ = std::make_unique<runtime::HaloExchange>(*grid_, opts_.mode);
    halo_->set_exchange_depth(info_.exchange_depth);
    for (const ir::SpotInfo& spot : info_.spots) {
      halo_->register_spot(spot, fields_);
    }
  }
}

const std::string& Operator::ccode() const {
  if (ccode_.empty()) {
    ccode_ = codegen::emit_c(iet_, info_, fields_, *grid_, opts_);
  }
  return ccode_;
}

std::string Operator::describe() const {
  std::ostringstream os;
  os << "Operator: " << eqs_.size() << " equation(s) on grid (";
  for (int d = 0; d < grid_->ndims(); ++d) {
    os << (d ? "," : "") << grid_->shape()[static_cast<std::size_t>(d)];
  }
  os << ")";
  if (grid_->distributed()) {
    os << ", " << grid_->cart()->size() << " ranks, topology (";
    for (std::size_t d = 0; d < grid_->topology().size(); ++d) {
      os << (d ? "," : "") << grid_->topology()[d];
    }
    os << "), mode " << ir::to_string(opts_.mode);
  } else {
    os << ", serial";
  }
  if (info_.exchange_depth > 1) {
    os << ", exchange depth " << info_.exchange_depth;
    if (!info_.exchange_depth_clamp_reason.empty()) {
      os << " (clamped: " << info_.exchange_depth_clamp_reason << ")";
    }
  } else if (!info_.exchange_depth_clamp_reason.empty()) {
    os << ", exchange depth 1 (clamped: "
       << info_.exchange_depth_clamp_reason << ")";
  }
  const bool tiled = std::any_of(info_.tile.begin(), info_.tile.end(),
                                 [](std::int64_t t) { return t > 0; });
  if (tiled || !info_.tile_clamp_reason.empty()) {
    os << ", tile (";
    for (std::size_t d = 0; d < info_.tile.size(); ++d) {
      os << (d ? "," : "") << info_.tile[d];
    }
    os << ")";
    if (!info_.tile_clamp_reason.empty()) {
      os << " (clamped: " << info_.tile_clamp_reason << ")";
    }
  }
  os << "\n  fields:";
  for (const grid::Function* f : fields_.all()) {
    os << ' ' << f->name() << (f->field_id().time_varying
                                   ? "[x" + std::to_string(f->time_buffers()) +
                                         (f->saved() ? " saved]" : "]")
                                   : "");
  }
  // Per-point flop count of the time-loop statements (remainder
  // duplicates excluded, as in models::analyze).
  int flops = 0;
  int nests = 0;
  std::set<std::size_t> seen;
  const std::function<void(const ir::NodePtr&, bool)> visit =
      [&](const ir::NodePtr& n, bool in_remainder) {
        if (n->type == ir::NodeType::Section) {
          const bool rem = n->name == "remainder";
          for (const auto& c : n->body) {
            visit(c, in_remainder || rem);
          }
          return;
        }
        if (n->type == ir::NodeType::Iteration && n->dim == 0 &&
            !in_remainder) {
          ++nests;
        }
        if (n->type == ir::NodeType::Expression && !in_remainder &&
            seen.insert(n->value.hash()).second) {
          flops += sym::count_flops(n->value);
        }
        for (const auto& c : n->body) {
          visit(c, in_remainder);
        }
      };
  for (const auto& top : iet_->body) {
    if (top->type == ir::NodeType::TimeLoop) {
      visit(top, false);
    }
  }
  os << "\n  clusters: " << nests << ", flops/point: " << flops
     << ", hoisted scalars: " << info_.invariants.size();
  os << "\n  halo spots: " << info_.spots.size();
  for (const auto& spot : info_.spots) {
    os << " [" << (spot.hoisted ? "hoisted" : "per-step") << ": "
       << spot.needs.size() << " field(s)]";
  }
  if (!sparse_ops_.empty()) {
    os << "\n  sparse ops/step: " << sparse_ops_.size();
  }
  return os.str();
}

runtime::HaloStats Operator::cumulative_halo_stats() const {
  return halo_ != nullptr ? halo_->stats() : runtime::HaloStats{};
}

namespace {

/// Per-run deltas of the counters; post-run snapshot of the gauges.
runtime::HaloStats halo_delta(const runtime::HaloStats& before,
                              const runtime::HaloStats& after) {
  runtime::HaloStats d = after;
  d.updates = after.updates - before.updates;
  d.starts = after.starts - before.starts;
  d.messages = after.messages - before.messages;
  d.bytes_sent = after.bytes_sent - before.bytes_sent;
  d.bytes_received = after.bytes_received - before.bytes_received;
  d.progress_calls = after.progress_calls - before.progress_calls;
  return d;
}

}  // namespace

RunSummary Operator::apply(const ApplyArgs& args) {
  const obs::EnableScope trace_scope(args.trace);

  std::map<std::string, double> scalars = args.scalars;
  // Bind grid spacings automatically (paper: users never pass h_*).
  for (int d = 0; d < grid_->ndims(); ++d) {
    scalars.emplace("h_" + grid::Grid::dim_name(d), grid_->spacing(d));
  }
  // The reserved health-interval scalar is bound by the runtime, never
  // by the user.
  scalars[ir::kHealthIntervalScalar] =
      static_cast<double>(args.health_interval);
  for (const std::string& name : info_.scalar_order) {
    if (scalars.find(name) == scalars.end()) {
      throw std::invalid_argument("Operator::apply: unbound symbol '" + name +
                                  "'");
    }
  }

  RunSummary out;
  out.backend = args.backend.value_or(backend_);
  out.steps = args.time_M - args.time_m + 1;
  out.trace = obs::TraceHandle(args.trace && obs::enabled());

  // Numerical-health monitor (only when the lowered IET carries health
  // kernels; JITFD_OBS=OFF builds never do).
  std::unique_ptr<obs::health::Monitor> monitor;
  std::unique_ptr<obs::health::Sink> inject;
  obs::health::Sink* sink = nullptr;
  const int rank = grid_->distributed() ? grid_->cart()->comm().rank() : 0;
  if (args.health_interval > 0 && !info_.health_checks.empty()) {
    obs::health::Monitor::Options mopts;
    mopts.on_nan = args.on_nan;
    mopts.comm = grid_->distributed() ? &grid_->cart()->comm() : nullptr;
    mopts.rank = rank;
    mopts.field_name = [this](int id) { return fields_.at(id).name(); };
    monitor = std::make_unique<obs::health::Monitor>(mopts);
    sink = monitor.get();
    const std::string inj = env::get_string("JITFD_INJECT_NAN", "");
    if (!inj.empty()) {
      int inj_rank = -1;
      long inj_step = -1;
      if (std::sscanf(inj.c_str(), "%d:%ld", &inj_rank, &inj_step) != 2) {
        throw std::invalid_argument("JITFD_INJECT_NAN='" + inj +
                                    "': expected \"rank:step\"");
      }
      inject = std::make_unique<InjectNanSink>(
          monitor.get(), &fields_.at(info_.health_checks.front().field_id),
          rank, inj_rank, inj_step);
      sink = inject.get();
    }
    // Run configuration for a potential post-mortem bundle.
    {
      std::ostringstream shape;
      shape << '[';
      for (int d = 0; d < grid_->ndims(); ++d) {
        shape << (d ? ", " : "") << grid_->shape()[static_cast<std::size_t>(d)];
      }
      shape << ']';
      obs::flight::set_config("grid_shape", shape.str());
      obs::flight::set_config("mode",
                              "\"" + std::string(ir::to_string(opts_.mode)) +
                                  "\"");
      obs::flight::set_config(
          "exchange_depth", std::to_string(info_.exchange_depth));
      obs::flight::set_config(
          "backend", "\"" + std::string(to_string(out.backend)) + "\"");
      obs::flight::set_config("health_interval",
                              std::to_string(args.health_interval));
      obs::flight::set_config(
          "on_nan",
          "\"" + std::string(obs::health::to_string(args.on_nan)) + "\"");
      obs::flight::set_config(
          "ranks",
          std::to_string(grid_->distributed() ? grid_->cart()->size() : 1));
    }
  }

  const runtime::HaloStats before = cumulative_halo_stats();
  const double jit_cc_before = jit_compile_seconds_;
  const bool had_kernel = jit_ != nullptr;

  const obs::Span span("apply", obs::Cat::Run, args.time_m,
                       static_cast<std::int32_t>(out.steps));
  const auto start = std::chrono::steady_clock::now();
  if (out.backend == Backend::Interpret) {
    runtime::Interpreter interp(iet_, fields_, halo_.get(), sparse_ops_);
    if (sink != nullptr) {
      interp.set_health(sink, args.health_interval);
    }
    interp.run(args.time_m, args.time_M, scalars);
  } else {
    run_jit(args.time_m, args.time_M, scalars, sink);
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  out.points_updated = grid_->points() * out.steps;
  if (out.seconds > 0.0) {
    out.gpts_per_s =
        static_cast<double>(out.points_updated) / out.seconds / 1e9;
  }
  out.halo = halo_delta(before, cumulative_halo_stats());
  if (!had_kernel && jit_ != nullptr) {
    out.jit_compile_seconds = jit_compile_seconds_ - jit_cc_before;
    out.jit_cache_hit = jit_cache_hit_;
  }
  static obs::metrics::Counter& applies = obs::metrics::counter("op.applies");
  static obs::metrics::Counter& steps = obs::metrics::counter("op.steps");
  applies.add(1);
  steps.add(static_cast<std::uint64_t>(out.steps));
  if (monitor != nullptr) {
    out.health = monitor->summary();
  }
  return out;
}

void Operator::run_jit(std::int64_t time_m, std::int64_t time_M,
                       const std::map<std::string, double>& scalars,
                       obs::health::Sink* health_sink) {
  if (jit_ == nullptr) {
    jit_ = std::make_unique<codegen::JitKernel>(
        ccode(), opts_.lang == ir::Lang::OpenMP && opts_.openmp);
    jit_compile_seconds_ = jit_->compile_seconds();
    jit_cache_hit_ = jit_->cache_hit();
  }
  std::vector<float*> field_ptrs;
  field_ptrs.reserve(info_.field_order.size());
  for (const int id : info_.field_order) {
    field_ptrs.push_back(fields_.at(id).buffer(0));
  }
  std::vector<double> scalar_vals;
  scalar_vals.reserve(info_.scalar_order.size());
  for (const std::string& name : info_.scalar_order) {
    scalar_vals.push_back(scalars.at(name));
  }
  JitCtx ctx{halo_.get(), &sparse_ops_, health_sink, &info_.field_order};
  codegen::JitHaloOps ops;
  ops.update = &tramp_update;
  ops.start = &tramp_start;
  ops.wait = &tramp_wait;
  ops.progress = &tramp_progress;
  ops.sparse = &tramp_sparse;
  if (health_sink != nullptr) {
    ops.step = &tramp_step;
    ops.health = &tramp_health;
  }
  // The generated loops carry no spans; obs derives compute time from
  // this umbrella minus the halo/sparse callbacks nested inside it.
  const obs::Span span("jit.run", obs::Cat::Run, time_m,
                       static_cast<std::int32_t>(time_M - time_m + 1));
  const int rc = jit_->run(field_ptrs.data(), scalar_vals.data(), time_m,
                           time_M, &ctx, &ops);
  if (rc != 0) {
    throw std::runtime_error("Operator: generated kernel returned " +
                             std::to_string(rc));
  }
}

}  // namespace jitfd::core
