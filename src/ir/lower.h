// The compiler pipeline: equations -> clusters -> scheduled IET ->
// pattern-lowered IET (paper Section III).
//
// Stages, mirroring the paper:
//  1. Clustering + data-dependence analysis: consecutive equations fuse
//     into one loop nest unless a cross-point flow/anti dependence forces
//     loop fission (e.g. elastic tau reads v.forward at offsets).
//  2. Flop-reducing arithmetic (Cluster level): factorization,
//     loop-invariant extraction, CSE.
//  3. Halo-exchange detection (Cluster level): reads of distributed
//     fields at nonzero space offsets require exchanges; a clean-set
//     analysis drops redundant spots and hoists exchanges of
//     time-invariant parameter fields out of the time loop.
//  4. Schedule: build the IET (time loop, halo spots, loop nests).
//  5. Pattern lowering (IET level): HaloSpots become blocking update
//     calls (basic/diagonal) or start/wait pairs with CORE/remainder loop
//     splitting (full), plus OpenMP/SIMD annotation and cache blocking.
#pragma once

#include <string>
#include <vector>

#include "grid/grid.h"
#include "ir/eq.h"
#include "ir/iet.h"

namespace jitfd::ir {

/// Communication/computation pattern (paper Table I).
enum class MpiMode {
  None,      ///< Serial / single rank: halo spots are dropped.
  Basic,     ///< Blocking face exchanges, multi-step, runtime buffers.
  Diagonal,  ///< Single-step 26-neighbour exchanges, preallocated buffers.
  Full,      ///< Asynchronous exchange overlapped with CORE computation.
};

const char* to_string(MpiMode mode);

/// Parse a mode name ("basic", "diagonal"/"diag", "full", "none", or the
/// Devito-style "1" meaning basic). Throws std::invalid_argument on
/// anything else.
MpiMode mode_from_string(const std::string& name);

/// Target language for the generated code.
enum class Lang {
  OpenMP,   ///< C + OpenMP pragmas (CPU path).
  OpenAcc,  ///< C + OpenACC pragmas (GPU path; emitted, not executed here).
};

struct CompileOptions {
  MpiMode mode = MpiMode::None;
  Lang lang = Lang::OpenMP;
  bool flop_reduce = true;   ///< Factorization + invariants + CSE.
  bool halo_opt = true;      ///< HaloSpot drop/merge/hoist analysis.
  /// Per-dimension cache-tile sizes, outermost first ({tz, ty, tx} in 3D;
  /// 0 = untiled along that dimension). Missing trailing entries mean
  /// untiled; the innermost dimension is never tiled (it stays contiguous
  /// for SIMD) — a nonzero innermost request is clamped and recorded in
  /// LoweringInfo::tile_clamp_reason, as are tiles that cannot fit the
  /// smallest rank-local extent (clamping must be rank-uniform or
  /// collective trial grids would diverge across ranks).
  std::vector<std::int64_t> tile = {};
  bool openmp = true;        ///< Annotate parallel loops.
  /// Communication-avoiding exchange depth k: one halo exchange (of depth
  /// up to k stencil radii per dependent cluster) is amortized over k
  /// timesteps, with the skipped exchanges replaced by redundant
  /// ghost-zone compute. 1 = classic per-step exchanges. Requests are
  /// clamped (see LoweringInfo::exchange_depth) when the allocated halos
  /// are too shallow, when sparse operations or saved fields are present,
  /// or on serial grids.
  int exchange_depth = 1;
  /// Emit per-written-field numerical-health reduction kernels
  /// (NaN/Inf counts, finite min/max, L2 over the owned interior) at
  /// the end of every time step, guarded by the reserved
  /// `jitfd_health_every` scalar — a zero interval skips the kernels
  /// entirely at runtime. Defaults to off when the observability layer
  /// is compiled out (JITFD_OBS=OFF): nothing could consume the stats.
#ifndef JITFD_OBS_DISABLED
  bool health = true;
#else
  bool health = false;
#endif
};

/// Reserved scalar (rejected as a user symbol name, like the rN
/// reduction temps): the health-check interval, bound automatically by
/// Operator::apply from ApplyArgs::health_interval.
inline constexpr const char* kHealthIntervalScalar = "jitfd_health_every";

/// A halo spot registration the runtime must be told about.
struct SpotInfo {
  int id = -1;
  std::vector<HaloNeed> needs;
  bool hoisted = false;  ///< Executed once before the time loop.
};

/// Metadata produced by lowering, consumed by the Operator, the
/// interpreter and the code generator.
struct LoweringInfo {
  std::vector<sym::Temp> invariants;      ///< Hoisted scalar temps.
  std::vector<int> field_order;           ///< Field ids in argument order.
  std::vector<std::string> scalar_order;  ///< Symbol names in arg order.
  std::vector<SpotInfo> spots;
  std::string schedule_dump;  ///< Pre-lowering IET (Listings 4-5 analogue).
  int sparse_op_count = 0;
  /// Effective exchange depth after clamping (1 when the request could
  /// not be honoured; exchange_depth_clamp_reason says why).
  int exchange_depth = 1;
  std::string exchange_depth_clamp_reason;
  /// Effective per-dimension tile sizes after clamping (size ndims; all
  /// zeros when untiled). tile_clamp_reason says why a requested tile was
  /// dropped or shrunk.
  std::vector<std::int64_t> tile;
  std::string tile_clamp_reason;
  /// The (field, time offset) pairs each step's HealthCheck reduces
  /// (empty when CompileOptions::health was off or nothing is written).
  std::vector<HaloNeed> health_checks;
};

/// One off-grid operation appended to every timestep (see sparse/).
struct SparseOpDesc {
  int id = -1;
};

/// Run stages 1-5. Returns the final lowered IET (root Callable).
/// `sparse_ops` are appended, in order, to the end of each timestep.
NodePtr lower_to_iet(const std::vector<Eq>& eqs, const grid::Grid& grid,
                     const CompileOptions& opts,
                     const std::vector<SparseOpDesc>& sparse_ops,
                     LoweringInfo& info);

}  // namespace jitfd::ir
