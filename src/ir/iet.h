// The Iteration/Expression Tree (IET) — the paper's second IR.
//
// An immutable AST of loops and expressions, built from scheduled
// clusters, on which loop-level passes operate: halo-spot optimization,
// loop blocking, OpenMP/SIMD annotation, and communication-pattern
// lowering. Both the reference interpreter and the C code generator
// consume the final IET, so every pass is exercised by functional tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/eq.h"
#include "symbolic/cse.h"
#include "symbolic/expr.h"

namespace jitfd::ir {

// --- Loop bounds -------------------------------------------------------------

/// A loop bound of the form  (size_of(dim) if relative else 0) + offset,
/// where size_of(dim) is the rank-local owned extent of the dimension.
/// Examples: DOMAIN is [A(0), S(0)); CORE is [A(w), S(-w)); the high-side
/// remainder slab is [S(-w), S(0)).
///
/// `ghost` is the communication-avoiding extension (exchange_depth > 1):
/// the bound grows into the ghost zone by `ghost` points, but only on
/// sides that have a Cartesian neighbour — extending past a physical
/// boundary would compute (and later read back) garbage ghost values.
/// Lower bounds subtract the extension, upper bounds add it; consumers
/// resolve via resolve_lo()/resolve_hi() with the per-side neighbour
/// predicate of the executing rank.
struct Bound {
  bool relative_to_size = false;
  std::int64_t offset = 0;
  std::int64_t ghost = 0;

  static Bound absolute(std::int64_t off) { return {false, off, 0}; }
  static Bound from_size(std::int64_t off) { return {true, off, 0}; }

  std::int64_t resolve(std::int64_t size) const {
    return (relative_to_size ? size : 0) + offset;
  }
  std::int64_t resolve_lo(std::int64_t size, bool has_neighbor) const {
    return resolve(size) - (has_neighbor ? ghost : 0);
  }
  std::int64_t resolve_hi(std::int64_t size, bool has_neighbor) const {
    return resolve(size) + (has_neighbor ? ghost : 0);
  }
  friend bool operator==(const Bound&, const Bound&) = default;
};

// --- Nodes ---------------------------------------------------------------------

enum class NodeType {
  Callable,    ///< Root: the generated kernel.
  Expression,  ///< Scalar-temp definition or field assignment.
  Iteration,   ///< A space loop.
  BlockLoop,   ///< A cache-tile loop: walks dimension `dim` in `tile` steps.
  TimeLoop,    ///< The sequential time loop.
  HaloSpot,    ///< Placeholder for a required halo exchange (pre-lowering).
  HaloComm,    ///< Lowered communication call (update/start/wait).
  SparseOp,    ///< Off-grid source injection / receiver interpolation.
  Section,     ///< Named grouping (e.g. "core", "remainder-x-low").
  HealthCheck,  ///< In-situ numerical-health reductions (per written field).
};

struct Node;
using NodePtr = std::shared_ptr<const Node>;

/// Properties a space loop can carry (paper Listing 6 annotations).
struct LoopProps {
  bool parallel = false;   ///< OpenMP-parallelizable.
  bool vector = false;     ///< Innermost, SIMD-friendly.

  friend bool operator==(const LoopProps&, const LoopProps&) = default;
};

/// What a HaloSpot (or lowered HaloComm) must exchange.
struct HaloNeed {
  int field_id = -1;
  int time_offset = 0;        ///< Which time buffer (relative) to exchange.
  std::vector<int> widths;    ///< Per-dimension exchange width.

  friend bool operator==(const HaloNeed&, const HaloNeed&) = default;
};

enum class HaloCommKind {
  Update,  ///< Blocking exchange (basic/diagonal modes).
  Start,   ///< Post asynchronous exchange (full mode).
  Wait,    ///< Complete asynchronous exchange (full mode).
};

/// A single IET node. One struct with per-type fields keeps tree rewrites
/// simple (passes copy-and-modify; unused fields stay empty).
struct Node {
  NodeType type = NodeType::Section;

  // Callable:
  std::string name;

  // Expression: `target = value`. A Symbol target defines a scalar temp;
  // a FieldAccess target stores to the field.
  sym::Ex target;
  sym::Ex value;

  // Iteration / BlockLoop:
  int dim = -1;        ///< Space dimension index.
  Bound lo;            ///< Inclusive lower bound.
  Bound hi;            ///< Exclusive upper bound.
  LoopProps props;
  // BlockLoop: tile extent along `dim` (always > 0). The loop walks
  // [lo, hi) in `tile`-sized windows; enclosed Iterations over the same
  // dimension are clipped to the active window.
  std::int64_t tile = 0;

  // HaloSpot / HaloComm:
  std::vector<HaloNeed> needs;
  HaloCommKind comm_kind = HaloCommKind::Update;
  int spot_id = -1;    ///< Runtime registration handle (set at lowering).

  // SparseOp:
  int sparse_id = -1;  ///< Runtime registration handle.

  // TimeLoop: steps per iteration (exchange_depth; 1 = plain stepping).
  std::int64_t time_stride = 1;
  // Section "substep": time shift of this sub-step within a strip.
  // Sub-steps with shift > 0 are guarded (skipped when the last strip is
  // partial, i.e. strip_t + shift > time_M).
  std::int64_t time_shift = 0;

  // Children (Callable, TimeLoop, Iteration, Section bodies).
  std::vector<NodePtr> body;
};

// --- Constructors ----------------------------------------------------------------

NodePtr make_callable(std::string name, std::vector<NodePtr> body);
NodePtr make_expression(sym::Ex target, sym::Ex value);
NodePtr make_iteration(int dim, Bound lo, Bound hi, LoopProps props,
                       std::vector<NodePtr> body);
/// A cache-tile loop over dimension `dim`: walks [lo, hi) in `tile`-point
/// windows; Iterations over `dim` inside `body` execute clipped to the
/// active window.
NodePtr make_block_loop(int dim, Bound lo, Bound hi, std::int64_t tile,
                        LoopProps props, std::vector<NodePtr> body);
NodePtr make_time_loop(std::vector<NodePtr> body);
NodePtr make_time_loop(std::vector<NodePtr> body, std::int64_t stride);
/// One sub-step of a communication-avoiding strip (Section "substep").
NodePtr make_substep(std::int64_t shift, std::vector<NodePtr> body);
NodePtr make_halo_spot(std::vector<HaloNeed> needs);
NodePtr make_halo_comm(HaloCommKind kind, std::vector<HaloNeed> needs,
                       int spot_id);
NodePtr make_sparse_op(int sparse_id);
NodePtr make_section(std::string name, std::vector<NodePtr> body);
/// Health reductions over the owned interior of each (field, time
/// offset) in `needs` (widths unused — health never reads ghosts).
/// Guarded at runtime by the reserved `jitfd_health_every` scalar.
NodePtr make_health_check(std::vector<HaloNeed> needs);

/// Shallow-copy `n` with a replaced body (the rewrite primitive).
NodePtr with_body(const Node& n, std::vector<NodePtr> body);

/// Render the tree in the abbreviated angle-bracket style of the paper's
/// Listings 4-6 (used by golden tests and --dump-iet debugging output).
std::string to_debug_string(const NodePtr& root);

}  // namespace jitfd::ir
