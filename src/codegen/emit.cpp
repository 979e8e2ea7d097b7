#include "codegen/emit.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "symbolic/manip.h"

namespace jitfd::codegen {

namespace {

const char* dim_var(int d) {
  static constexpr const char* kNames[] = {"x", "y", "z"};
  return kNames[d];
}

std::string float_literal(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e9) {
    os << static_cast<long long>(v) << ".0F";
  } else {
    os.precision(9);
    os << v << "F";
  }
  return os.str();
}

/// Time-buffer variable name for a field with `nb` buffers at relative
/// offset `k` (e.g. t3_p1 = "(time + 1) % 3"); saved (non-cycling)
/// fields use the absolute index ts_p1 = "time + 1".
std::string time_var(int nb, int k, bool saved) {
  std::ostringstream os;
  if (saved) {
    os << "ts";
  } else {
    os << 't' << nb;
  }
  os << '_' << (k < 0 ? 'm' : 'p') << std::abs(k);
  return os.str();
}

class Emitter {
 public:
  Emitter(const ir::LoweringInfo& info, const ir::FieldTable& fields,
          const grid::Grid& grid, const ir::CompileOptions& opts)
      : info_(&info), fields_(&fields), grid_(&grid), opts_(&opts) {}

  std::string run(const ir::NodePtr& iet);

 private:
  // --- Expression printing -------------------------------------------------

  std::string field_access(const sym::ExprNode& n) const {
    const grid::Function& fn = fields_->at(n.field.id);
    std::ostringstream os;
    os << n.field.name;
    if (n.field.time_varying) {
      os << '[' << time_var(fn.time_buffers(), n.time_offset, fn.saved())
         << ']';
    }
    for (int d = 0; d < n.field.ndims; ++d) {
      const int shift =
          n.space_offsets[static_cast<std::size_t>(d)] + fn.lpad();
      os << '[' << dim_var(d);
      if (shift > 0) {
        os << " + " << shift;
      } else if (shift < 0) {
        os << " - " << -shift;
      }
      os << ']';
    }
    return os.str();
  }

  // Precedence: Add=1, Mul=2, unary/pow-as-call=3, leaf=4.
  std::string expr(const sym::Ex& e, int parent_prec) const {
    const sym::ExprNode& n = e.node();
    switch (n.kind) {
      case sym::Kind::Number:
        return n.value < 0 ? "(" + float_literal(n.value) + ")"
                           : float_literal(n.value);
      case sym::Kind::Symbol:
        return n.name;
      case sym::Kind::FieldAccess:
        return field_access(n);
      case sym::Kind::Add: {
        std::ostringstream os;
        const bool parens = parent_prec > 1;
        if (parens) {
          os << '(';
        }
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i > 0) {
            os << " + ";
          }
          os << expr(n.args[i], 1);
        }
        if (parens) {
          os << ')';
        }
        return os.str();
      }
      case sym::Kind::Mul: {
        std::ostringstream os;
        const bool parens = parent_prec > 2;
        if (parens) {
          os << '(';
        }
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i > 0) {
            os << '*';
          }
          os << expr(n.args[i], 3);
        }
        if (parens) {
          os << ')';
        }
        return os.str();
      }
      case sym::Kind::Pow: {
        const sym::Ex& base = n.args[0];
        const sym::Ex& e2 = n.args[1];
        if (e2.is_number()) {
          const double v = e2.number();
          if (v == std::floor(v) && std::abs(v) <= 4.0 && v != 0.0) {
            // Expand small integer powers into multiplications/divisions.
            const std::string b = expr(base, 4);
            std::ostringstream os;
            if (v < 0) {
              os << "(1.0F/";
            }
            os << '(' << b;
            for (int i = 1; i < static_cast<int>(std::abs(v)); ++i) {
              os << '*' << b;
            }
            os << ')';
            if (v < 0) {
              os << ')';
            }
            return os.str();
          }
        }
        return "powf(" + expr(base, 1) + ", " + expr(e2, 1) + ")";
      }
      case sym::Kind::Call:
        return n.name + "f(" + expr(n.args[0], 1) + ")";
    }
    return "0.0F";
  }

  // --- Statement emission ---------------------------------------------------

  void line(const std::string& s) {
    out_ << std::string(static_cast<std::size_t>(indent_) * 2, ' ') << s
         << '\n';
  }

  void emit_expression(const ir::Node& n) {
    if (n.target.kind() == sym::Kind::Symbol) {
      line("const float " + n.target.node().name + " = " +
           expr(n.value, 0) + ";");
    } else {
      line(field_access(n.target.node()) + " = " + expr(n.value, 0) + ";");
    }
  }

  void emit_halo_comm(const ir::Node& n) {
    switch (n.comm_kind) {
      case ir::HaloCommKind::Update:
        line("ops->update(hctx, " + std::to_string(n.spot_id) + ", time);");
        break;
      case ir::HaloCommKind::Start:
        line("ops->start(hctx, " + std::to_string(n.spot_id) + ", time);");
        break;
      case ir::HaloCommKind::Wait:
        line("ops->wait(hctx, " + std::to_string(n.spot_id) + ");");
        break;
    }
  }

  /// SIMD legality clauses for a vector (innermost) loop. The aligned
  /// claim is provable: every fields[i] the kernel receives is the start
  /// of a 64-byte-aligned Function allocation (grid/function.cpp). The
  /// safelen bound comes from the cluster fission rules: an equation
  /// reading its own cluster's written (field, time) at a nonzero space
  /// offset is fissioned into a separate nest, so innermost loop-carried
  /// dependences cannot normally occur — the scan below is a defensive
  /// proof, emitting safelen(min distance) if one ever appears.
  std::string simd_clauses(const ir::Node& loop) const {
    std::set<std::string> names;
    std::set<std::pair<int, int>> writes;
    std::int64_t min_dist = 0;  // 0 = unbounded (no carried dependence).
    const std::function<void(const ir::Node&)> scan =
        [&](const ir::Node& n) {
          if (n.type == ir::NodeType::Expression) {
            if (n.target.kind() == sym::Kind::FieldAccess) {
              writes.emplace(n.target.node().field.id,
                             n.target.node().time_offset);
            }
            for (const sym::Ex& e : {n.target, n.value}) {
              sym::walk(e, [&](const sym::Ex& sub) {
                if (sub.kind() == sym::Kind::FieldAccess) {
                  names.insert(sub.node().field.name);
                }
              });
            }
          }
          for (const ir::NodePtr& c : n.body) {
            scan(*c);
          }
        };
    scan(loop);
    const std::function<void(const ir::Node&)> dep_scan =
        [&](const ir::Node& n) {
          if (n.type == ir::NodeType::Expression) {
            sym::walk(n.value, [&](const sym::Ex& sub) {
              if (sub.kind() != sym::Kind::FieldAccess) {
                return;
              }
              const sym::ExprNode& a = sub.node();
              if (writes.count({a.field.id, a.time_offset}) == 0) {
                return;
              }
              const int off = a.space_offsets[static_cast<std::size_t>(
                  a.field.ndims - 1)];
              if (off != 0) {
                const std::int64_t dist = std::abs(off);
                min_dist = min_dist == 0 ? dist : std::min(min_dist, dist);
              }
            });
          }
          for (const ir::NodePtr& c : n.body) {
            dep_scan(*c);
          }
        };
    dep_scan(loop);
    std::string clauses;
    if (!names.empty()) {
      clauses += " aligned(";
      bool first = true;
      for (const std::string& name : names) {
        if (!first) {
          clauses += ',';
        }
        clauses += name;
        first = false;
      }
      clauses += ":64)";
    }
    if (min_dist > 0) {
      clauses += " safelen(" + std::to_string(min_dist) + ")";
    }
    return clauses;
  }

  void emit_loop(const ir::Node& n, bool in_core) {
    const auto d = static_cast<std::size_t>(n.dim);
    const std::int64_t size = grid_->local_shape()[d];
    // Bounds are baked per rank (each rank emits its own kernel), so the
    // per-side ghost extension of communication-avoiding stepping resolves
    // here against this rank's neighbour topology.
    const std::int64_t lo =
        n.lo.resolve_lo(size, grid_->has_neighbor_low(n.dim));
    const std::int64_t hi =
        n.hi.resolve_hi(size, grid_->has_neighbor_high(n.dim));
    const std::string v = dim_var(n.dim);

    if (n.props.parallel && opts_->openmp) {
      if (opts_->lang == ir::Lang::OpenMP) {
        line(n.props.vector ? "#pragma omp parallel for simd schedule(static)" +
                                  simd_clauses(n)
                            : "#pragma omp parallel for schedule(static)");
      } else {
        line("#pragma acc parallel loop collapse(" +
             std::to_string(grid_->ndims()) + ") present(" + acc_present_ +
             ")");
      }
    } else if (n.props.vector && opts_->lang == ir::Lang::OpenMP) {
      line("#pragma omp simd" + simd_clauses(n));
    }

    // Inside an enclosing tile loop over the same dimension, execute the
    // intersection of this loop's bounds with the active tile window.
    // Tile loops carry the same bounds as the nest, so the window start
    // needs no lower clamp.
    std::string lo_s = std::to_string(lo);
    std::string hi_s = std::to_string(hi);
    const auto win = block_win_.find(n.dim);
    if (win != block_win_.end()) {
      const std::string& bv = win->second.first;
      const std::string end = bv + " + " + std::to_string(win->second.second);
      lo_s = bv;
      hi_s = "(" + end + " < " + hi_s + " ? " + end + " : " + hi_s + ")";
    }
    line("for (long " + v + " = " + lo_s + "; " + v + " < " + hi_s + "; " +
         v + " += 1)");
    line("{");
    ++indent_;
    for (const ir::NodePtr& child : n.body) {
      emit_node(*child, in_core);
    }
    --indent_;
    line("}");
  }

  void emit_block_loop(const ir::Node& n, bool in_core) {
    const auto d = static_cast<std::size_t>(n.dim);
    const std::int64_t size = grid_->local_shape()[d];
    const std::int64_t lo =
        n.lo.resolve_lo(size, grid_->has_neighbor_low(n.dim));
    const std::int64_t hi =
        n.hi.resolve_hi(size, grid_->has_neighbor_high(n.dim));
    const std::string bv = std::string(dim_var(n.dim)) + "b";
    if (n.props.parallel && opts_->openmp) {
      if (opts_->lang == ir::Lang::OpenMP) {
        line("#pragma omp parallel for schedule(static)");
      } else {
        line("#pragma acc parallel loop present(" + acc_present_ + ")");
      }
    }
    line("for (long " + bv + " = " + std::to_string(lo) + "; " + bv + " < " +
         std::to_string(hi) + "; " + bv + " += " + std::to_string(n.tile) +
         ")");
    line("{");
    ++indent_;
    if (in_core && opts_->mode == ir::MpiMode::Full) {
      // Prod the asynchronous progress engine once per tile block
      // (paper Section III-h: a call to MPI_Test before each new block).
      line("ops->progress(hctx);");
    }
    block_win_[n.dim] = {bv, n.tile};
    for (const ir::NodePtr& child : n.body) {
      emit_node(*child, in_core);
    }
    block_win_.erase(n.dim);
    --indent_;
    line("}");
  }

  /// In-situ numerical-health reductions (paper-style generated
  /// diagnostics): per checked field, NaN/Inf counts, finite min/max and
  /// the sum of squares over the owned interior — ghosts excluded, so
  /// stale or redundantly-computed halo points never pollute the stats.
  void emit_health_check(const ir::Node& n) {
    line("if (jitfd_health_every > 0 && (time % jitfd_health_every) == 0 && "
         "ops->health)");
    line("{");
    ++indent_;
    const int nd = grid_->ndims();
    for (const ir::HaloNeed& need : n.needs) {
      const grid::Function& fn = fields_->at(need.field_id);
      line("{");
      ++indent_;
      line("long jitfd_hc_nan = 0;");
      line("long jitfd_hc_inf = 0;");
      line("float jitfd_hc_min = INFINITY;");
      line("float jitfd_hc_max = -INFINITY;");
      line("double jitfd_hc_l2 = 0.0;");
      // Shapes are baked, so the owned-interior size is known here:
      // skip the parallel region when it is too small to amortize the
      // fork/join (the inner simd sweep still runs).
      std::int64_t interior_points = 1;
      for (int d = 0; d < nd; ++d) {
        interior_points *= grid_->local_shape()[static_cast<std::size_t>(d)];
      }
      const bool omp = opts_->openmp && opts_->lang == ir::Lang::OpenMP;
      if (omp && nd > 1 && interior_points >= 32768) {
        line("#pragma omp parallel for "
             "reduction(+:jitfd_hc_nan,jitfd_hc_inf,jitfd_hc_l2) "
             "reduction(min:jitfd_hc_min) reduction(max:jitfd_hc_max) "
             "schedule(static)");
      }
      for (int d = 0; d + 1 < nd; ++d) {
        const std::string v = dim_var(d);
        line("for (long " + v + " = 0; " + v + " < " +
             std::to_string(
                 grid_->local_shape()[static_cast<std::size_t>(d)]) +
             "; " + v + " += 1)");
        line("{");
        ++indent_;
      }
      // Innermost dimension: narrow row accumulators (int counts,
      // float min/max/l2) with an explicit simd reduction — the
      // reassociation license FP reductions need to vectorize without
      // fast-math (which would fold the NaN tests away). Row partials
      // fold into the wide accumulators, so l2 keeps double accuracy
      // across rows.
      line("int jitfd_hc_rnan = 0;");
      line("int jitfd_hc_rinf = 0;");
      line("float jitfd_hc_rmin = INFINITY;");
      line("float jitfd_hc_rmax = -INFINITY;");
      line("float jitfd_hc_rl2 = 0.0f;");
      if (omp) {
        line("#pragma omp simd "
             "reduction(+:jitfd_hc_rnan,jitfd_hc_rinf,jitfd_hc_rl2) "
             "reduction(min:jitfd_hc_rmin) reduction(max:jitfd_hc_rmax)");
      }
      {
        const std::string v = dim_var(nd - 1);
        line("for (long " + v + " = 0; " + v + " < " +
             std::to_string(
                 grid_->local_shape()[static_cast<std::size_t>(nd - 1)]) +
             "; " + v + " += 1)");
        line("{");
        ++indent_;
      }
      {
        std::ostringstream access;
        access << fn.name();
        if (fn.field_id().time_varying) {
          access << '['
                 << time_var(fn.time_buffers(), need.time_offset, fn.saved())
                 << ']';
        }
        for (int d = 0; d < nd; ++d) {
          access << '[' << dim_var(d) << " + " << fn.lpad() << ']';
        }
        line("const float jitfd_hc_v = " + access.str() + ";");
      }
      // Branchless float-native classification (v != v spots NaN,
      // v - v != 0 spots Inf among non-NaNs) so every lane blends
      // instead of branching.
      line("const int jitfd_hc_isn = (jitfd_hc_v != jitfd_hc_v);");
      line("const int jitfd_hc_isi = !jitfd_hc_isn && "
           "(jitfd_hc_v - jitfd_hc_v != 0.0f);");
      line("const int jitfd_hc_fin = !(jitfd_hc_isn || jitfd_hc_isi);");
      line("jitfd_hc_rnan += jitfd_hc_isn;");
      line("jitfd_hc_rinf += jitfd_hc_isi;");
      line("const float jitfd_hc_lo = jitfd_hc_fin ? jitfd_hc_v : "
           "INFINITY;");
      line("const float jitfd_hc_hi = jitfd_hc_fin ? jitfd_hc_v : "
           "-INFINITY;");
      line("jitfd_hc_rmin = jitfd_hc_lo < jitfd_hc_rmin ? jitfd_hc_lo : "
           "jitfd_hc_rmin;");
      line("jitfd_hc_rmax = jitfd_hc_hi > jitfd_hc_rmax ? jitfd_hc_hi : "
           "jitfd_hc_rmax;");
      line("jitfd_hc_rl2 += jitfd_hc_fin ? jitfd_hc_v*jitfd_hc_v : 0.0f;");
      --indent_;
      line("}");
      line("jitfd_hc_nan += jitfd_hc_rnan;");
      line("jitfd_hc_inf += jitfd_hc_rinf;");
      line("jitfd_hc_min = jitfd_hc_rmin < jitfd_hc_min ? jitfd_hc_rmin : "
           "jitfd_hc_min;");
      line("jitfd_hc_max = jitfd_hc_rmax > jitfd_hc_max ? jitfd_hc_rmax : "
           "jitfd_hc_max;");
      line("jitfd_hc_l2 += (double)jitfd_hc_rl2;");
      for (int d = 0; d + 1 < nd; ++d) {
        --indent_;
        line("}");
      }
      // The positional index in field_order, not the global field id:
      // ids are process-unique, and baking one in would make otherwise
      // identical kernels hash differently in the JIT compile cache.
      std::size_t field_pos = 0;
      while (field_pos < info_->field_order.size() &&
             info_->field_order[field_pos] != need.field_id) {
        ++field_pos;
      }
      line("ops->health(hctx, " + std::to_string(field_pos) +
           ", time, jitfd_hc_nan, jitfd_hc_inf, jitfd_hc_min, jitfd_hc_max, "
           "jitfd_hc_l2);");
      --indent_;
      line("}");
    }
    --indent_;
    line("}");
  }

  void emit_node(const ir::Node& n, bool in_core) {
    switch (n.type) {
      case ir::NodeType::Expression:
        emit_expression(n);
        return;
      case ir::NodeType::Iteration:
        emit_loop(n, in_core);
        return;
      case ir::NodeType::BlockLoop:
        emit_block_loop(n, in_core);
        return;
      case ir::NodeType::HaloComm:
        emit_halo_comm(n);
        return;
      case ir::NodeType::HealthCheck:
        emit_health_check(n);
        return;
      case ir::NodeType::SparseOp:
        line("ops->sparse(hctx, " + std::to_string(n.sparse_id) + ", time);");
        return;
      case ir::NodeType::Section: {
        line("/* section: " + n.name + " */");
        const bool core = n.name == "core";
        for (const ir::NodePtr& child : n.body) {
          emit_node(*child, core);
        }
        return;
      }
      default:
        return;  // Callable/TimeLoop handled by run(); HaloSpot never here.
    }
  }

  const ir::LoweringInfo* info_;
  const ir::FieldTable* fields_;
  const grid::Grid* grid_;
  const ir::CompileOptions* opts_;
  std::ostringstream out_;
  int indent_ = 0;
  std::string acc_present_;
  /// Active tile windows: dim -> (block variable name, tile size).
  std::map<int, std::pair<std::string, std::int64_t>> block_win_;
};

std::string Emitter::run(const ir::NodePtr& iet) {
  out_ << "/* Generated by jitfd (" << to_string(opts_->mode)
       << " mode). Do not edit. */\n";
  out_ << "#include <math.h>\n\n";
  out_ << "typedef struct jitfd_halo_ops {\n"
          "  void (*update)(void* ctx, int spot, long time);\n"
          "  void (*start)(void* ctx, int spot, long time);\n"
          "  void (*wait)(void* ctx, int spot);\n"
          "  void (*progress)(void* ctx);\n"
          "  void (*sparse)(void* ctx, int sparse_id, long time);\n"
          "  void (*step)(void* ctx, long time);\n"
          "  void (*health)(void* ctx, int field, long time, long nan_count,\n"
          "                 long inf_count, double min, double max,\n"
          "                 double l2sq);\n"
          "} jitfd_halo_ops;\n\n";
  // Subnormal flushing: every thread of the kernel's OpenMP team (just
  // the calling thread when built without -fopenmp) runs it with MXCSR
  // FTZ|DAZ (0x8040) and gets its own MXCSR back at the epilogue. The
  // saved value is per thread; bit 31 (reserved in MXCSR) marks it live,
  // so a thread that joins only the epilogue team is left alone and a
  // save orphaned by a callback that threw is restored by the next call.
  // The builtins are what _mm_getcsr/_mm_setcsr expand to; calling them
  // directly spares every kernel's cc the <xmmintrin.h> parse.
  const bool flush = opts_->lang == ir::Lang::OpenMP;
  if (flush) {
    out_ << "#if defined(__SSE__)\n"
            "static _Thread_local unsigned int jitfd_saved_csr;\n"
            "#endif\n\n";
  }
  out_ << "int " << kKernelSymbol
       << "(float** restrict fields, const double* restrict scalars,\n"
          "           long time_m, long time_M, void* hctx,\n"
          "           const jitfd_halo_ops* ops)\n{\n";
  indent_ = 1;
  if (flush) {
    out_ << "#if defined(__SSE__)\n";
    line("#pragma omp parallel");
    line("{");
    line("  if (jitfd_saved_csr == 0) {");
    line("    jitfd_saved_csr = __builtin_ia32_stmxcsr() | 0x80000000u;");
    line("  }");
    line("  __builtin_ia32_ldmxcsr(__builtin_ia32_stmxcsr() | 0x8040u);");
    line("}");
    out_ << "#endif\n";
  }

  // Field pointer casts with baked padded shapes (the VLA-pointer idiom of
  // the paper's Listing 11 context).
  {
    std::ostringstream present;
    for (std::size_t i = 0; i < info_->field_order.size(); ++i) {
      const grid::Function& fn = fields_->at(info_->field_order[i]);
      std::ostringstream decl;
      decl << "float (*restrict " << fn.name() << ")";
      std::ostringstream dims;
      const auto& ps = fn.padded_shape();
      // Leading dimension (time buffer or first space dim) is unsized.
      for (std::size_t d = 1; d < ps.size(); ++d) {
        dims << '[' << ps[d] << ']';
      }
      if (fn.field_id().time_varying) {
        // u[t][x]...[z]: all space dims sized.
        dims.str("");
        for (const std::int64_t p : ps) {
          dims << '[' << p << ']';
        }
      }
      decl << dims.str() << " = (float (*restrict)" << dims.str()
           << ") fields[" << i << "];";
      line(decl.str());
      if (i > 0) {
        present << ", ";
      }
      present << fn.name();
    }
    acc_present_ = present.str();
  }
  out_ << '\n';

  // Scalar bindings. The reserved health-interval scalar stays integral:
  // it feeds the `time % jitfd_health_every` guard, not arithmetic.
  for (std::size_t i = 0; i < info_->scalar_order.size(); ++i) {
    if (info_->scalar_order[i] == ir::kHealthIntervalScalar) {
      line("const long " + info_->scalar_order[i] + " = (long)scalars[" +
           std::to_string(i) + "];");
    } else {
      line("const float " + info_->scalar_order[i] + " = (float)scalars[" +
           std::to_string(i) + "];");
    }
  }
  out_ << '\n';

  // Which (nb, k, saved) time indices are needed anywhere in the tree.
  std::set<std::tuple<int, int, bool>> tvars;
  const std::function<void(const ir::Node&)> scan = [&](const ir::Node& n) {
    if (n.type == ir::NodeType::Expression) {
      for (const sym::Ex& e : {n.target, n.value}) {
        sym::walk(e, [&](const sym::Ex& sub) {
          if (sub.kind() == sym::Kind::FieldAccess &&
              sub.node().field.time_varying) {
            const grid::Function& fn = fields_->at(sub.node().field.id);
            tvars.emplace(fn.time_buffers(), sub.node().time_offset,
                          fn.saved());
          }
        });
      }
    }
    for (const ir::NodePtr& c : n.body) {
      scan(*c);
    }
  };
  scan(*iet);

  // Prologue (invariants + hoisted exchanges), then the time loop.
  for (const ir::NodePtr& top : iet->body) {
    if (top->type != ir::NodeType::TimeLoop) {
      if (top->type == ir::NodeType::HaloComm) {
        // Hoisted exchange of parameter fields: time index is irrelevant.
        line("ops->update(hctx, " + std::to_string(top->spot_id) + ", 0);");
      } else {
        emit_node(*top, /*in_core=*/false);
      }
      continue;
    }
    const auto emit_tvars = [&] {
      for (const auto& [nb, k, is_saved] : tvars) {
        if (is_saved) {
          line("const long " + time_var(nb, k, true) + " = time + " +
               std::to_string(k) + ";");
        } else {
          line("const long " + time_var(nb, k, false) + " = (time + " +
               std::to_string(nb + k) + ") % " + std::to_string(nb) + ";");
        }
      }
    };
    // Per-step observability hook (flight recorder step tracking); one
    // null check when the monitor is not installed.
    const auto emit_step_hook = [&] {
      if (!info_->health_checks.empty()) {
        line("if (ops->step) { ops->step(hctx, time); }");
      }
    };
    if (top->time_stride <= 1) {
      line("for (long time = time_m; time <= time_M; time += 1)");
      line("{");
      ++indent_;
      emit_tvars();
      emit_step_hook();
      for (const ir::NodePtr& child : top->body) {
        emit_node(*child, /*in_core=*/false);
      }
      --indent_;
      line("}");
      continue;
    }
    // Communication-avoiding strips: one exchange per strip of
    // time_stride sub-steps; shifted sub-steps are guarded against
    // running past time_M on the final (partial) strip.
    line("for (long strip_t = time_m; strip_t <= time_M; strip_t += " +
         std::to_string(top->time_stride) + ")");
    line("{");
    ++indent_;
    for (const ir::NodePtr& child : top->body) {
      if (child->type == ir::NodeType::HaloComm) {
        line("{");
        ++indent_;
        line("const long time = strip_t;");
        emit_node(*child, /*in_core=*/false);
        --indent_;
        line("}");
        continue;
      }
      line("/* sub-step " + std::to_string(child->time_shift) + " */");
      if (child->time_shift > 0) {
        line("if (strip_t + " + std::to_string(child->time_shift) +
             " <= time_M)");
      }
      line("{");
      ++indent_;
      line(child->time_shift > 0
               ? "const long time = strip_t + " +
                     std::to_string(child->time_shift) + ";"
               : "const long time = strip_t;");
      emit_tvars();
      emit_step_hook();
      for (const ir::NodePtr& inner : child->body) {
        emit_node(*inner, /*in_core=*/false);
      }
      --indent_;
      line("}");
    }
    --indent_;
    line("}");
  }

  if (flush) {
    out_ << "#if defined(__SSE__)\n";
    line("#pragma omp parallel");
    line("{");
    line("  if (jitfd_saved_csr != 0) {");
    line("    __builtin_ia32_ldmxcsr(jitfd_saved_csr & 0xffffu);");
    line("    jitfd_saved_csr = 0;");
    line("  }");
    line("}");
    out_ << "#endif\n";
  }
  out_ << "  return 0;\n}\n";
  return out_.str();
}

}  // namespace

std::string emit_c(const ir::NodePtr& iet, const ir::LoweringInfo& info,
                   const ir::FieldTable& fields, const grid::Grid& grid,
                   const ir::CompileOptions& opts) {
  Emitter emitter(info, fields, grid, opts);
  return emitter.run(iet);
}

}  // namespace jitfd::codegen
