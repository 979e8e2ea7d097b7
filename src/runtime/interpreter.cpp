#include "runtime/interpreter.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/env.h"
#include "obs/trace.h"

namespace jitfd::runtime {

namespace {

enum class OpCode : std::uint8_t {
  Const,     ///< push immediate
  Scalar,    ///< push scalar binding [a]
  Temp,      ///< push temp slot [a]
  Field,     ///< push field value (descriptor [a])
  Add,       ///< pop a operands, push sum
  Mul,       ///< pop a operands, push product
  PowConst,  ///< pop base, push base^imm
  Pow,       ///< pop exponent then base, push base^exp
  Call,      ///< pop arg, apply builtin [a]
};

enum class Builtin : int { Sqrt, Sin, Cos, Exp, Fabs };

struct Instr {
  OpCode op;
  int a = 0;
  double imm = 0.0;
};

struct FieldRef {
  const grid::Function* fn = nullptr;
  grid::Function* mutable_fn = nullptr;
  int time_offset = 0;
  std::vector<std::int64_t> addend_offsets;  ///< space offset + lpad per dim.
  std::vector<std::int64_t> strides;
};

}  // namespace

struct Interpreter::Compiled {
  std::vector<Instr> code;
  std::vector<FieldRef> field_refs;
  // Store target: exactly one of these is set.
  int store_temp_slot = -1;
  int store_field_ref = -1;  ///< Index into field_refs.
};

namespace {

std::vector<std::int64_t> strides_of(const grid::Function& fn) {
  const auto& ps = fn.padded_shape();
  std::vector<std::int64_t> s(ps.size(), 1);
  for (std::size_t d = ps.size() - 1; d-- > 0;) {
    s[d] = s[d + 1] * ps[d + 1];
  }
  return s;
}

int builtin_id(const std::string& name) {
  if (name == "sqrt") return static_cast<int>(Builtin::Sqrt);
  if (name == "sin") return static_cast<int>(Builtin::Sin);
  if (name == "cos") return static_cast<int>(Builtin::Cos);
  if (name == "exp") return static_cast<int>(Builtin::Exp);
  if (name == "fabs") return static_cast<int>(Builtin::Fabs);
  throw std::invalid_argument("interpreter: unknown builtin " + name);
}

}  // namespace

Interpreter::Interpreter(ir::NodePtr iet, const ir::FieldTable& fields,
                         HaloExchange* halo, std::vector<SparseOp*> sparse_ops)
    : root_(std::move(iet)),
      fields_(&fields),
      halo_(halo),
      sparse_ops_(std::move(sparse_ops)) {}

std::shared_ptr<Interpreter::Compiled> Interpreter::compile(
    const ir::Node& expr_node) {
  auto it = programs_.find(&expr_node);
  if (it != programs_.end()) {
    return it->second;
  }
  auto prog = std::make_shared<Compiled>();

  // Recursive postfix emission.
  const std::function<void(const sym::Ex&)> emit = [&](const sym::Ex& e) {
    const sym::ExprNode& n = e.node();
    switch (n.kind) {
      case sym::Kind::Number:
        prog->code.push_back({OpCode::Const, 0, n.value});
        return;
      case sym::Kind::Symbol: {
        // Temps shadow nothing: scalar bindings and temps use disjoint
        // name sets (temps are compiler-generated "rN").
        auto t = temp_slots_.find(n.name);
        if (t != temp_slots_.end()) {
          prog->code.push_back({OpCode::Temp, t->second, 0.0});
          return;
        }
        auto s = scalar_slots_.find(n.name);
        if (s == scalar_slots_.end()) {
          const int slot = static_cast<int>(scalar_slots_.size());
          s = scalar_slots_.emplace(n.name, slot).first;
          scalar_values_.resize(scalar_slots_.size(), 0.0);
        }
        prog->code.push_back({OpCode::Scalar, s->second, 0.0});
        return;
      }
      case sym::Kind::FieldAccess: {
        FieldRef ref;
        grid::Function& fn = fields_->at(n.field.id);
        ref.fn = &fn;
        ref.mutable_fn = &fn;
        ref.time_offset = n.time_offset;
        ref.strides = strides_of(fn);
        ref.addend_offsets.resize(n.space_offsets.size());
        for (std::size_t d = 0; d < n.space_offsets.size(); ++d) {
          ref.addend_offsets[d] = n.space_offsets[d] + fn.lpad();
        }
        prog->field_refs.push_back(std::move(ref));
        prog->code.push_back(
            {OpCode::Field, static_cast<int>(prog->field_refs.size()) - 1,
             0.0});
        return;
      }
      case sym::Kind::Add:
      case sym::Kind::Mul: {
        for (const sym::Ex& a : n.args) {
          emit(a);
        }
        prog->code.push_back({n.kind == sym::Kind::Add ? OpCode::Add
                                                       : OpCode::Mul,
                              static_cast<int>(n.args.size()), 0.0});
        return;
      }
      case sym::Kind::Pow: {
        emit(n.args[0]);
        if (n.args[1].is_number()) {
          prog->code.push_back({OpCode::PowConst, 0, n.args[1].number()});
        } else {
          emit(n.args[1]);
          prog->code.push_back({OpCode::Pow, 0, 0.0});
        }
        return;
      }
      case sym::Kind::Call:
        emit(n.args[0]);
        prog->code.push_back({OpCode::Call, builtin_id(n.name), 0.0});
        return;
    }
  };
  emit(expr_node.value);

  // Store target.
  if (expr_node.target.kind() == sym::Kind::Symbol) {
    const std::string& name = expr_node.target.node().name;
    auto t = temp_slots_.find(name);
    if (t == temp_slots_.end()) {
      const int slot = static_cast<int>(temp_slots_.size());
      t = temp_slots_.emplace(name, slot).first;
      temp_values_.resize(temp_slots_.size(), 0.0);
    }
    prog->store_temp_slot = t->second;
  } else {
    const sym::ExprNode& n = expr_node.target.node();
    FieldRef ref;
    grid::Function& fn = fields_->at(n.field.id);
    ref.fn = &fn;
    ref.mutable_fn = &fn;
    ref.time_offset = n.time_offset;
    ref.strides = strides_of(fn);
    ref.addend_offsets.resize(n.space_offsets.size());
    for (std::size_t d = 0; d < n.space_offsets.size(); ++d) {
      ref.addend_offsets[d] = n.space_offsets[d] + fn.lpad();
    }
    prog->field_refs.push_back(std::move(ref));
    prog->store_field_ref = static_cast<int>(prog->field_refs.size()) - 1;
  }

  programs_.emplace(&expr_node, prog);
  return prog;
}

namespace {

std::int64_t field_linear(const FieldRef& ref,
                          std::span<const std::int64_t> idx) {
  std::int64_t lin = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    lin += (idx[d] + ref.addend_offsets[d]) * ref.strides[d];
  }
  return lin;
}

int buffer_of(const FieldRef& ref, std::int64_t time) {
  return ref.fn->buffer_index(ref.time_offset, time);
}

}  // namespace

double Interpreter::eval(const Compiled& prog) const {
  double stack[64];
  int sp = 0;
  for (const Instr& ins : prog.code) {
    switch (ins.op) {
      case OpCode::Const:
        stack[sp++] = ins.imm;
        break;
      case OpCode::Scalar:
        stack[sp++] = scalar_values_[static_cast<std::size_t>(ins.a)];
        break;
      case OpCode::Temp:
        stack[sp++] = temp_values_[static_cast<std::size_t>(ins.a)];
        break;
      case OpCode::Field: {
        const FieldRef& ref =
            prog.field_refs[static_cast<std::size_t>(ins.a)];
        const float* buf = ref.fn->buffer(buffer_of(ref, time_));
        stack[sp++] = buf[field_linear(ref, idx_)];
        break;
      }
      case OpCode::Add: {
        double acc = 0.0;
        for (int i = 0; i < ins.a; ++i) {
          acc += stack[--sp];
        }
        stack[sp++] = acc;
        break;
      }
      case OpCode::Mul: {
        double acc = 1.0;
        for (int i = 0; i < ins.a; ++i) {
          acc *= stack[--sp];
        }
        stack[sp++] = acc;
        break;
      }
      case OpCode::PowConst: {
        const double base = stack[--sp];
        const double e = ins.imm;
        double v;
        if (e == -1.0) {
          v = 1.0 / base;
        } else if (e == 2.0) {
          v = base * base;
        } else if (e == -2.0) {
          v = 1.0 / (base * base);
        } else {
          v = std::pow(base, e);
        }
        stack[sp++] = v;
        break;
      }
      case OpCode::Pow: {
        const double e = stack[--sp];
        const double base = stack[--sp];
        stack[sp++] = std::pow(base, e);
        break;
      }
      case OpCode::Call: {
        const double a = stack[sp - 1];
        switch (static_cast<Builtin>(ins.a)) {
          case Builtin::Sqrt:
            stack[sp - 1] = std::sqrt(a);
            break;
          case Builtin::Sin:
            stack[sp - 1] = std::sin(a);
            break;
          case Builtin::Cos:
            stack[sp - 1] = std::cos(a);
            break;
          case Builtin::Exp:
            stack[sp - 1] = std::exp(a);
            break;
          case Builtin::Fabs:
            stack[sp - 1] = std::fabs(a);
            break;
        }
        break;
      }
    }
    assert(sp > 0 && sp < 64);
  }
  assert(sp == 1);
  return stack[0];
}

void Interpreter::run_statement(const ir::Node& stmt) {
  assert(stmt.type == ir::NodeType::Expression);
  const auto prog = compile(stmt);
  // Generated C computes in float; mirror that by rounding through float
  // at every store so JIT and interpreter agree closely.
  const float v = static_cast<float>(eval(*prog));
  if (prog->store_temp_slot >= 0) {
    temp_values_[static_cast<std::size_t>(prog->store_temp_slot)] = v;
  } else {
    const FieldRef& ref =
        prog->field_refs[static_cast<std::size_t>(prog->store_field_ref)];
    float* buf = ref.mutable_fn->buffer(buffer_of(ref, time_));
    buf[field_linear(ref, idx_)] = v;
  }
}

void Interpreter::execute_statements(const std::vector<ir::NodePtr>& body) {
  for (const ir::NodePtr& stmt : body) {
    run_statement(*stmt);
  }
}

void Interpreter::execute_loop(const ir::Node& node) {
  const grid::Grid& grid = fields_->all().front()->grid();
  const auto& shape = grid.local_shape();
  const std::int64_t size = shape[static_cast<std::size_t>(node.dim)];
  // Ghost extensions (communication-avoiding stepping) apply per side,
  // and only toward ranks that exist: ghosts at physical boundaries hold
  // boundary-condition data and must not be touched.
  std::int64_t lo = node.lo.resolve_lo(size, grid.has_neighbor_low(node.dim));
  std::int64_t hi = node.hi.resolve_hi(size, grid.has_neighbor_high(node.dim));
  // Inside an enclosing tile loop over the same dimension: execute the
  // intersection of the bounds with the active window.
  const auto win = block_win_.find(node.dim);
  if (win != block_win_.end()) {
    lo = std::max(lo, win->second.first);
    hi = std::min(hi, win->second.second);
  }

  const bool leaf = !node.body.empty() &&
                    node.body.front()->type == ir::NodeType::Expression;
  for (std::int64_t i = lo; i < hi; ++i) {
    idx_[static_cast<std::size_t>(node.dim)] = i;
    if (leaf) {
      execute_statements(node.body);
    } else {
      for (const ir::NodePtr& child : node.body) {
        execute(*child);
      }
    }
  }
}

void Interpreter::execute_block_loop(const ir::Node& node) {
  const grid::Grid& grid = fields_->all().front()->grid();
  const std::int64_t size = grid.local_shape()[static_cast<std::size_t>(node.dim)];
  const std::int64_t lo =
      node.lo.resolve_lo(size, grid.has_neighbor_low(node.dim));
  const std::int64_t hi =
      node.hi.resolve_hi(size, grid.has_neighbor_high(node.dim));
  for (std::int64_t b = lo; b < hi; b += node.tile) {
    block_win_[node.dim] = {b, b + node.tile};
    for (const ir::NodePtr& child : node.body) {
      execute(*child);
    }
  }
  block_win_.erase(node.dim);
  // Parity with the generated full-mode code, which prods the progress
  // engine once per CORE tile: the interpreter ticks per core Section
  // instead (progress frequency is a perf detail, not a semantic one).
}

void Interpreter::execute(const ir::Node& node) {
  switch (node.type) {
    case ir::NodeType::Callable:
    case ir::NodeType::Section:
      for (const ir::NodePtr& child : node.body) {
        execute(*child);
      }
      // The generated full-mode code calls the progress hook while
      // computing CORE; tick it here for parity.
      if (node.type == ir::NodeType::Section && node.name == "core" &&
          halo_ != nullptr && halo_->mode() == ir::MpiMode::Full) {
        halo_->progress();
      }
      return;
    case ir::NodeType::Expression:
      run_statement(node);
      return;
    case ir::NodeType::TimeLoop:
      throw std::logic_error("interpreter: nested time loop");
    case ir::NodeType::Iteration:
      execute_loop(node);
      return;
    case ir::NodeType::BlockLoop:
      execute_block_loop(node);
      return;
    case ir::NodeType::HaloSpot:
      throw std::logic_error("interpreter: un-lowered HaloSpot in final IET");
    case ir::NodeType::HaloComm:
      assert(halo_ != nullptr);
      switch (node.comm_kind) {
        case ir::HaloCommKind::Update:
          halo_->update(node.spot_id, time_);
          break;
        case ir::HaloCommKind::Start:
          halo_->start(node.spot_id, time_);
          break;
        case ir::HaloCommKind::Wait:
          halo_->wait(node.spot_id);
          break;
      }
      return;
    case ir::NodeType::SparseOp: {
      const obs::Span span("sparse.apply", obs::Cat::Sparse, time_,
                           node.sparse_id);
      sparse_ops_.at(static_cast<std::size_t>(node.sparse_id))->apply(time_);
      return;
    }
    case ir::NodeType::HealthCheck:
      execute_health_check(node);
      return;
  }
}

void Interpreter::execute_health_check(const ir::Node& node) {
  // Same guard the generated kernel bakes in: identical on every rank,
  // so the monitor's collectives stay in lockstep.
  if (health_sink_ == nullptr || health_every_ <= 0 ||
      time_ % health_every_ != 0) {
    return;
  }
  for (const ir::HaloNeed& need : node.needs) {
    const grid::Function& fn = fields_->at(need.field_id);
    const float* buf = fn.buffer(fn.buffer_index(need.time_offset, time_));
    const std::vector<std::int64_t> strides = strides_of(fn);
    const auto& shape = fn.grid().local_shape();
    const auto nd = shape.size();

    obs::health::LocalStats stats;
    stats.min = std::numeric_limits<double>::infinity();
    stats.max = -std::numeric_limits<double>::infinity();

    // Odometer over the owned interior; ghosts are never read (they may
    // hold stale or redundantly-computed values).
    std::vector<std::int64_t> ix(nd, 0);
    bool done = false;
    while (!done) {
      std::int64_t lin = 0;
      for (std::size_t d = 0; d < nd; ++d) {
        lin += (ix[d] + fn.lpad()) * strides[d];
      }
      const double v = static_cast<double>(buf[lin]);
      if (std::isnan(v)) {
        ++stats.nan_count;
      } else if (std::isinf(v)) {
        ++stats.inf_count;
      } else {
        if (v < stats.min) {
          stats.min = v;
        }
        if (v > stats.max) {
          stats.max = v;
        }
        stats.l2sq += v * v;
      }
      std::size_t d = nd;
      for (;;) {
        if (d == 0) {
          done = true;
          break;
        }
        --d;
        if (++ix[d] < shape[d]) {
          break;
        }
        ix[d] = 0;
      }
    }
    health_sink_->on_check(need.field_id, time_, stats);
  }
}

void Interpreter::run(std::int64_t time_m, std::int64_t time_M,
                      const std::map<std::string, double>& scalars) {
  assert(root_->type == ir::NodeType::Callable);
  idx_.assign(
      static_cast<std::size_t>(fields_->all().front()->grid().ndims()), 0);

  // Pre-compile every Expression so scalar slots exist before binding.
  const std::function<void(const ir::Node&)> precompile =
      [&](const ir::Node& n) {
        if (n.type == ir::NodeType::Expression) {
          compile(n);
          return;
        }
        for (const ir::NodePtr& c : n.body) {
          precompile(*c);
        }
      };
  precompile(*root_);

  for (const auto& [name, slot] : scalar_slots_) {
    const auto it = scalars.find(name);
    if (it == scalars.end()) {
      throw std::invalid_argument("interpreter: unbound scalar " + name);
    }
    scalar_values_[static_cast<std::size_t>(slot)] = it->second;
  }

  // Constructed-imbalance hook for the wait-state analyzer: when
  // JITFD_DELAY_RANK names this rank, every timestep's compute is
  // padded by JITFD_DELAY_US microseconds. Re-read per run (not cached)
  // so tests can retarget the slow rank between runs.
  std::int64_t delay_us = 0;
  if (env::is_set("JITFD_DELAY_RANK") && env::is_set("JITFD_DELAY_US")) {
    const grid::Grid& g = fields_->all().front()->grid();
    const int rank = g.distributed() ? g.cart()->comm().rank() : 0;
    if (env::get_int("JITFD_DELAY_RANK", -1) == rank) {
      delay_us = env::get_int("JITFD_DELAY_US", 0);
    }
  }
  const auto step_delay = [&](std::int64_t t) {
    if (delay_us > 0) {
      const obs::Span span("compute.delay", obs::Cat::Compute, t);
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
  };

  // Execute: prologue statements and hoisted exchanges, then the time loop.
  time_ = time_m;
  // Halo and sparse nodes trace themselves; everything else in a step
  // body is stencil computation.
  const auto run_step_children = [&](const std::vector<ir::NodePtr>& children,
                                     std::int64_t t) {
    for (const ir::NodePtr& child : children) {
      if (child->type == ir::NodeType::HaloComm ||
          child->type == ir::NodeType::SparseOp ||
          child->type == ir::NodeType::HealthCheck) {
        execute(*child);
        continue;
      }
      const char* name = "compute";
      if (child->type == ir::NodeType::Section) {
        if (child->name == "core") {
          name = "compute.core";
        } else if (child->name == "remainder") {
          name = "compute.remainder";
        }
      }
      const obs::Span span(name, obs::Cat::Compute, t);
      execute(*child);
    }
  };

  for (const ir::NodePtr& top : root_->body) {
    if (top->type != ir::NodeType::TimeLoop) {
      execute(*top);
      continue;
    }
    if (top->time_stride <= 1) {
      for (std::int64_t t = time_m; t <= time_M; ++t) {
        time_ = t;
        if (health_sink_ != nullptr) {
          health_sink_->on_step(t);
        }
        const obs::Span step("step", obs::Cat::Run, t);
        step_delay(t);
        run_step_children(top->body, t);
      }
      continue;
    }
    // Communication-avoiding strips: one exchange per strip, then the
    // sub-steps; shifted sub-steps are skipped when the final strip runs
    // past time_M (their full-depth redundancy makes that safe).
    for (std::int64_t strip = time_m; strip <= time_M;
         strip += top->time_stride) {
      const obs::Span strip_span("strip", obs::Cat::Run, strip);
      for (const ir::NodePtr& child : top->body) {
        if (child->type == ir::NodeType::HaloComm) {
          time_ = strip;
          execute(*child);
          continue;
        }
        if (strip + child->time_shift > time_M) {
          continue;
        }
        time_ = strip + child->time_shift;
        if (health_sink_ != nullptr) {
          health_sink_->on_step(time_);
        }
        const obs::Span step("step", obs::Cat::Run, time_);
        step_delay(time_);
        run_step_children(child->body, time_);
      }
    }
  }
}

}  // namespace jitfd::runtime
