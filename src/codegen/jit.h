// JIT compilation of generated C: write source to a cache directory,
// invoke the system C compiler to build a shared object, dlopen it and
// resolve the kernel entry point — the same architecture Devito uses.
//
// Compiled objects are content-addressed by the SHA-256 of (compiler,
// flags, source), so recompiling an identical kernel — the autotuner
// rebuilding its winning mode, every rank of a symmetric decomposition,
// or a rerun of the same script — reuses the cached .so instead of
// paying the external-compiler round trip. The cache lives in
// $JITFD_CACHE_DIR when set (persistent across processes); otherwise in
// a per-process scratch directory removed at exit (set JITFD_CACHE_DIR
// to keep the generated sources for inspection).
#pragma once

#include <cstdint>
#include <string>

namespace jitfd::codegen {

/// Function-pointer table handed to the generated kernel for
/// communication and sparse-operation callbacks. Layout must match the
/// `jitfd_halo_ops` struct emitted into every kernel.
struct JitHaloOps {
  void (*update)(void* ctx, int spot, long time) = nullptr;
  void (*start)(void* ctx, int spot, long time) = nullptr;
  void (*wait)(void* ctx, int spot) = nullptr;
  void (*progress)(void* ctx) = nullptr;
  void (*sparse)(void* ctx, int sparse_id, long time) = nullptr;
  /// Observability hooks (null when health monitoring is off): `step` is
  /// called at the top of every time step; `health` receives the
  /// rank-local reductions of one field's owned interior.
  void (*step)(void* ctx, long time) = nullptr;
  void (*health)(void* ctx, int field, long time, long nan_count,
                 long inf_count, double min, double max, double l2sq) =
      nullptr;
};

/// A compiled-and-loaded kernel. Movable, not copyable; unloads the
/// shared object on destruction (the cached .so stays on disk).
class JitKernel {
 public:
  /// Compile `source` (a C translation unit), or reuse a cached build of
  /// the identical (compiler, flags, source) triple. `openmp` adds
  /// -fopenmp. Throws std::runtime_error with the compiler diagnostics
  /// on failure.
  explicit JitKernel(const std::string& source, bool openmp = true);
  ~JitKernel();

  JitKernel(JitKernel&& other) noexcept;
  JitKernel& operator=(JitKernel&& other) noexcept;
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  /// Invoke the kernel. A kernel emitted for Lang::OpenMP flushes
  /// subnormals to zero (MXCSR FTZ|DAZ on x86) on every thread that runs
  /// it and hands each its mode back when it returns; the caller's mode
  /// is also restored when a callback throws out of the kernel.
  int run(float** fields, const double* scalars, std::int64_t time_m,
          std::int64_t time_M, void* hctx, const JitHaloOps* ops) const;

  /// Wall time spent in the external compiler for THIS construction;
  /// 0.0 when the kernel came from the cache (for bench_compiler).
  double compile_seconds() const { return compile_seconds_; }

  /// Whether this construction was served from the compile cache
  /// (in-memory or on-disk) without invoking the compiler.
  bool cache_hit() const { return cache_hit_; }

  /// Process-wide cache counters (constructions served with/without an
  /// external compiler invocation).
  static std::uint64_t cache_hits();
  static std::uint64_t cache_misses();

 private:
  using KernelFn = int (*)(float**, const double*, long, long, void*,
                           const JitHaloOps*);
  void* handle_ = nullptr;
  KernelFn fn_ = nullptr;
  double compile_seconds_ = 0.0;
  bool cache_hit_ = false;
};

}  // namespace jitfd::codegen
