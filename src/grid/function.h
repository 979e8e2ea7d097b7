// Discrete functions on a Grid: the DSL's Function / TimeFunction objects.
//
// Storage of each rank follows the paper's three-region layout
// (Section III-d): an owned *data* region aligned with the grid block,
// surrounded by a *halo* ring of space_order points per side (ghost cells
// exchanged between ranks or read-only at physical boundaries), optionally
// surrounded by *padding* for alignment. Array accesses in user equations
// are written relative to the data region; the compiler's access-alignment
// pass adds the halo+padding offset.
//
// The data() view provides the "logically centralized, physically
// distributed" NumPy-style access of Section III-b: global indices and
// slices are converted to rank-local ones and applied only where owned.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "grid/grid.h"
#include "symbolic/expr.h"

namespace jitfd::grid {

/// 64-byte-aligned allocator for field storage. Generated kernels receive
/// each field's storage start as its base pointer, so this is what makes
/// the emitter's `aligned(field:64)` simd clauses provable.
template <typename T>
struct AlignedAlloc {
  using value_type = T;
  static constexpr std::size_t kAlignment = 64;

  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U>&) {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }
  template <typename U>
  bool operator==(const AlignedAlloc<U>&) const {
    return true;
  }
};

/// A (possibly time-varying) discrete function over a Grid.
class Function {
 public:
  /// A plain (time-invariant) function, e.g. a velocity model.
  /// `padding` adds extra allocated-but-never-communicated points per side.
  Function(std::string name, const Grid& grid, int space_order,
           int padding = 0);

  virtual ~Function();
  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  // --- Metadata -----------------------------------------------------------

  const std::string& name() const { return id_.name; }
  const sym::FieldId& field_id() const { return id_; }
  const Grid& grid() const { return *grid_; }
  int space_order() const { return space_order_; }
  /// Halo width per side. space_order (the Devito default the paper's
  /// alignment example relies on) when the process-wide exchange-depth
  /// capacity is 1; space_order * capacity when a deeper default was set
  /// (communication-avoiding stepping needs k stencil radii per fused
  /// step chain — see default_exchange_depth()).
  int halo() const { return halo_; }
  int padding() const { return padding_; }
  /// Total left offset from the raw allocation to the data region.
  int lpad() const { return halo_ + padding_; }

  /// Process-wide default halo capacity for communication-avoiding
  /// (exchange_depth > 1) stepping, read at construction time: fields
  /// allocate halo = space_order * depth per side. Initialized from the
  /// JITFD_EXCHANGE_DEPTH environment variable (default 1); the setter
  /// affects only Functions constructed afterwards.
  static void set_default_exchange_depth(int depth);
  static int default_exchange_depth();

  /// Number of time buffers (1 for plain Functions).
  virtual int time_buffers() const { return 1; }

  /// Saved fields (TimeFunction with save=N) store every time step
  /// instead of cycling a modulo window.
  bool saved() const { return saved_; }

  /// Map an absolute time step plus relative offset to the storage
  /// buffer: identity for saved fields, modulo time_buffers() for
  /// cycling fields, 0 for plain Functions. The single source of truth
  /// used by the interpreter, the halo runtime, the sparse operations
  /// and (in emitted form) the generated code.
  int buffer_index(int time_offset, std::int64_t time) const;

  /// Rank-local owned sizes (the data region, no ghosts).
  const std::vector<std::int64_t>& local_shape() const {
    return grid_->local_shape();
  }
  /// Rank-local allocated sizes including halo and padding.
  const std::vector<std::int64_t>& padded_shape() const {
    return padded_shape_;
  }
  /// Points in one time buffer (allocated, including ghosts).
  std::int64_t buffer_points() const { return buffer_points_; }

  // --- Raw storage ----------------------------------------------------------

  /// Pointer to time buffer `t` (0 for plain Functions).
  float* buffer(int t);
  const float* buffer(int t) const;

  /// The whole allocation (every buffer, ghosts included) — used for
  /// checkpoint/restore (e.g. the communication-pattern autotuner).
  std::span<float> raw_storage() { return {storage_.data(), storage_.size()}; }
  std::span<const float> raw_storage() const {
    return {storage_.data(), storage_.size()};
  }

  /// Element access with *data-region-relative* local indices
  /// (idx[d] == 0 is the first owned point; negative indices reach into
  /// the halo).
  float& at_local(int t, std::span<const std::int64_t> idx);
  float at_local(int t, std::span<const std::int64_t> idx) const;

  // --- Distributed (global-view) data access ---------------------------------

  /// Set every owned point (and ghost point) of every buffer to `v`.
  void fill(float v);

  /// Assign `v` over the global half-open box [lo, hi) — each rank writes
  /// only its owned intersection (the Listing 1 / Listing 2 semantics).
  void fill_global_box(int t, std::span<const std::int64_t> lo,
                       std::span<const std::int64_t> hi, float v);

  /// Write one global point if owned by this rank; returns whether it was.
  bool set_global(int t, std::span<const std::int64_t> g, float v);

  /// Read one global point; returns `fallback` when not owned locally.
  float get_global_or(int t, std::span<const std::int64_t> g,
                      float fallback) const;

  /// Initialize owned points (and surrounding ghosts, clamped to the
  /// domain) from a callback over *global* coordinates. Intended for
  /// parameter fields (velocity/density models).
  void init(const std::function<float(std::span<const std::int64_t>)>& fn);

  /// Collect the full global data region of buffer `t` on rank 0 (other
  /// ranks get an empty vector). Collective over the grid's communicator
  /// when distributed.
  std::vector<float> gather(int t) const;

  /// Sum of squares over owned points of buffer `t`, reduced across ranks
  /// when distributed (collective in that case).
  double norm2(int t) const;

  // --- Symbolic accessors ------------------------------------------------------

  /// Access at the iteration point shifted by `offsets` (size == ndims).
  sym::Ex at(std::vector<int> offsets) const;
  /// Access at the iteration point.
  sym::Ex operator()() const;

  /// Central first derivative along dimension `d` (accuracy space_order).
  sym::Ex dx(int d) const;
  /// Central second derivative along dimension `d`.
  sym::Ex dx2(int d) const;
  /// Sum of second derivatives over all space dimensions (u.laplace).
  sym::Ex laplace() const;
  /// Staggered first derivative along `d` evaluated half a cell toward
  /// `side` (+1/-1) relative to this function's sample points.
  sym::Ex dx_stag(int d, int side) const;

 protected:
  Function(std::string name, const Grid& grid, int space_order, int padding,
           bool time_varying, int buffers, bool saved = false);

  /// Time offset used by symbolic accessors of subclasses.
  sym::Ex at_time(int time_offset, std::vector<int> offsets) const;

 private:
  std::int64_t raw_linear(int t, std::span<const std::int64_t> raw) const;

  sym::FieldId id_;
  const Grid* grid_;
  int space_order_;
  int halo_;
  int padding_;
  int buffers_;
  bool saved_ = false;
  std::vector<std::int64_t> padded_shape_;
  std::vector<std::int64_t> strides_;
  std::int64_t buffer_points_ = 0;
  std::vector<float, AlignedAlloc<float>> storage_;
};

/// A time-varying function with modulo-buffered time storage:
/// time_order+1 buffers, so a second-order-in-time field u keeps
/// {t-1, t, t+1} live (paper Section IV-B).
class TimeFunction : public Function {
 public:
  /// `save` == 0 (default): modulo-buffered with time_order+1 buffers.
  /// `save` > 0: store every time step 0..save-1 explicitly (Devito's
  /// `save=` argument, used by adjoint/FWI workflows); apply() may then
  /// only run steps whose accesses stay within [0, save).
  TimeFunction(std::string name, const Grid& grid, int space_order,
               int time_order, int padding = 0, int save = 0);

  int time_order() const { return time_order_; }
  int time_buffers() const override {
    return saved() ? save_ : time_order_ + 1;
  }
  int save_steps() const { return save_; }

  /// u[t + k, x + offsets...] for explicit k.
  sym::Ex at_shifted(int time_offset, std::vector<int> offsets) const {
    return at_time(time_offset, std::move(offsets));
  }
  /// u[t+1] at the iteration point (the usual write target).
  sym::Ex forward() const;
  /// u[t-1] at the iteration point.
  sym::Ex backward() const;
  /// u[t] at the iteration point.
  sym::Ex now() const;

  /// First time derivative: forward difference (u[t+1]-u[t])/dt for
  /// time_order 1, centred for time_order >= 2.
  sym::Ex dt() const;
  /// Second time derivative (requires time_order >= 2).
  sym::Ex dt2() const;

 private:
  int time_order_;
  int save_ = 0;
};

/// The symbolic time-step size, shared by all TimeFunctions.
sym::Ex dt_symbol();

/// Process-wide registry resolving a symbolic field id back to the live
/// Function that owns the data (thread-safe; Functions register on
/// construction and deregister on destruction). This is what lets an
/// Operator be constructed from equations alone, Devito-style.
Function* lookup_field(int field_id);

}  // namespace jitfd::grid
