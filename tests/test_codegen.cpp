// Code-generation tests: structure of the emitted C (the paper's
// Listing 11 analogue), OpenACC variant, JIT-vs-interpreter functional
// equivalence, and the floating-point mode of generated kernels.
#include <gtest/gtest.h>

#include <unistd.h>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "codegen/jit.h"
#include "core/operator.h"
#include "grid/function.h"
#include "models/tti.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"
#include "scoped_env.h"

namespace {

using jitfd::core::Operator;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
using jitfd::test::ScopedEnv;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

bool have_cc() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

Operator diffusion_operator(const Grid& /*grid*/, TimeFunction& u,
                            ir::CompileOptions opts = {}) {
  return Operator({ir::Eq(
      u.forward(), sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()))},
                  opts);
}

TEST(Codegen, DiffusionKernelStructureMatchesListing11) {
  // The paper's Listing 11: hoisted reciprocal temps, a modulo-indexed
  // time loop, aligned accesses u[t][x + halo][y + halo], and the stencil
  // assignment built from r-temps.
  const Grid g({4, 4}, {2.0, 2.0});
  TimeFunction u("u", g, 2, 1);
  Operator op = diffusion_operator(g, u);
  const std::string& code = op.ccode();

  // Hoisted invariants (r0 = 1/dt-like and the 1/h^2 factors).
  EXPECT_NE(code.find("const float r0"), std::string::npos) << code;
  // Time loop and modulo buffer indices for a 2-buffer field.
  EXPECT_NE(code.find("for (long time = time_m; time <= time_M; time += 1)"),
            std::string::npos);
  EXPECT_NE(code.find("(time + 2) % 2"), std::string::npos);
  EXPECT_NE(code.find("(time + 3) % 2"), std::string::npos);
  // Access alignment: SDO 2 => halo 2, so the write is u[...][x + 2][y + 2].
  EXPECT_NE(code.find("[x + 2][y + 2] ="), std::string::npos) << code;
  // OpenMP annotations on the loop nest.
  EXPECT_NE(code.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_NE(code.find("#pragma omp simd"), std::string::npos);
  // No communication calls on a serial grid.
  EXPECT_EQ(code.find("ops->update"), std::string::npos);
}

TEST(Codegen, BasicModeEmitsHaloUpdateInsideTimeLoop) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    Operator op = diffusion_operator(g, u, opts);
    const std::string& code = op.ccode();
    const auto loop_pos =
        code.find("for (long time = time_m; time <= time_M; time += 1)");
    const auto update_pos = code.find("ops->update(hctx, 0, time);");
    ASSERT_NE(loop_pos, std::string::npos);
    ASSERT_NE(update_pos, std::string::npos);
    EXPECT_LT(loop_pos, update_pos);
  });
}

TEST(Codegen, FullModeEmitsStartCoreWaitRemainderAndProgress) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({32, 32}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Full;
    opts.tile = {8, 0};
    Operator op = diffusion_operator(g, u, opts);
    const std::string& code = op.ccode();
    const auto start = code.find("ops->start(hctx, 0, time);");
    const auto core = code.find("/* section: core */");
    const auto progress = code.find("ops->progress(hctx);");
    const auto wait = code.find("ops->wait(hctx, 0);");
    const auto remainder = code.find("/* section: remainder */");
    ASSERT_NE(start, std::string::npos) << code;
    ASSERT_NE(progress, std::string::npos);
    EXPECT_LT(start, core);
    EXPECT_LT(core, progress);
    EXPECT_LT(progress, wait);
    EXPECT_LT(wait, remainder);
  });
}

TEST(Codegen, DeepHaloEmitsStripLoopWithGuardedSubSteps) {
  // exchange_depth 2: the time loop strides by 2, one exchange happens
  // at the strip top, and each sub-step is a guarded block with its own
  // `time` constant (the last strip may be partial).
  jitfd::grid::Function::set_default_exchange_depth(2);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    opts.exchange_depth = 2;
    Operator op = diffusion_operator(g, u, opts);
    ASSERT_EQ(op.info().exchange_depth, 2)
        << op.info().exchange_depth_clamp_reason;
    const std::string& code = op.ccode();
    const auto strip = code.find(
        "for (long strip_t = time_m; strip_t <= time_M; strip_t += 2)");
    const auto update = code.find("ops->update(hctx, 0, time);");
    const auto sub0 = code.find("/* sub-step 0 */");
    const auto sub1 = code.find("/* sub-step 1 */");
    const auto guard = code.find("if (strip_t + 1 <= time_M)");
    ASSERT_NE(strip, std::string::npos) << code;
    ASSERT_NE(update, std::string::npos) << code;
    ASSERT_NE(sub0, std::string::npos) << code;
    ASSERT_NE(sub1, std::string::npos) << code;
    ASSERT_NE(guard, std::string::npos) << code;
    EXPECT_LT(strip, update);
    EXPECT_LT(update, sub0);
    EXPECT_LT(sub0, sub1);
    // Sub-step 0 is unguarded (the strip exists, so its first step does);
    // the guard belongs to sub-step 1.
    EXPECT_LT(sub1, guard);
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

TEST(CodegenJit, DeepHaloJitMatchesPerStepInterpreter) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // The strided strip loop emitted for exchange_depth 2 must produce the
  // same field as the per-step interpreter schedule, including a partial
  // final strip (5 steps at depth 2).
  const std::int64_t n = 16;
  const double dt = 1e-3;
  const int steps = 5;
  for (const ir::MpiMode mode : {ir::MpiMode::Basic, ir::MpiMode::Full}) {
    std::vector<float> expected;
    std::vector<float> got;
    for (const int depth : {1, 2}) {
      jitfd::grid::Function::set_default_exchange_depth(2);
      smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
        const Grid g({n, n}, {1.0, 1.0}, comm);
        TimeFunction u("u", g, 2, 1);
        u.fill_global_box(0, std::vector<std::int64_t>{n / 4, n / 4},
                          std::vector<std::int64_t>{n / 2, n / 2}, 1.0F);
        ir::CompileOptions opts;
        opts.mode = mode;
        opts.exchange_depth = depth;
        Operator op = diffusion_operator(g, u, opts);
        ASSERT_EQ(op.info().exchange_depth, depth)
            << op.info().exchange_depth_clamp_reason;
        const auto run = op.apply({.time_m = 0,
                                   .time_M = steps - 1,
                                   .scalars = {{"dt", dt}},
                                   .backend = depth == 1
                                       ? Operator::Backend::Interpret
                                       : Operator::Backend::Jit});
        const auto gathered = u.gather(steps % 2);
        if (comm.rank() == 0) {
          (depth == 1 ? expected : got) = gathered;
        }
      });
      jitfd::grid::Function::set_default_exchange_depth(1);
    }
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(expected[i], got[i], 1e-6)
          << "mode " << ir::to_string(mode) << " at " << i;
    }
  }
}

TEST(Codegen, OpenAccVariantUsesAccPragmas) {
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.lang = ir::Lang::OpenAcc;
  Operator op = diffusion_operator(g, u, opts);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("#pragma acc parallel loop collapse(3)"),
            std::string::npos)
      << code;
  EXPECT_EQ(code.find("#pragma omp"), std::string::npos);
}

TEST(Codegen, TiledLoopsEmitBlockLoopAndWindowIntersection) {
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {8, 0};
  Operator op = diffusion_operator(g, u, opts);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("for (long xb = 0; xb < 32; xb += 8)"),
            std::string::npos)
      << code;
  // The enclosed x loop runs the intersection with the active window.
  EXPECT_NE(code.find("xb + 8 < 32 ? xb + 8 : 32"), std::string::npos)
      << code;
}

TEST(CodegenJit, JitMatchesInterpreterOnDiffusion) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 12;
  const double dt = 1e-3;
  auto run = [&](Operator::Backend backend) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 4, 1);
    const std::vector<std::int64_t> lo{2, 3};
    const std::vector<std::int64_t> hi{7, 9};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.set_default_backend(backend);
    const auto run = op.apply(
        {.time_m = 0, .time_M = 4, .scalars = {{"dt", dt}}});
    EXPECT_EQ(run.backend, backend);
    if (backend == Operator::Backend::Jit) {
      // Either a fresh external-compiler build took measurable time, or
      // the identical source was already in the compile cache.
      EXPECT_TRUE(run.jit_cache_hit || run.jit_compile_seconds > 0.0);
    }
    return u.gather(5 % 2);
  };
  const auto interp = run(Operator::Backend::Interpret);
  const auto jit = run(Operator::Backend::Jit);
  ASSERT_EQ(interp.size(), jit.size());
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ASSERT_NEAR(interp[i], jit[i], 1e-6) << "at " << i;
  }
}

TEST(CodegenJit, JitRunsDistributedBasicMode) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 12;
  const double dt = 1e-3;
  // Serial interpreter reference.
  std::vector<float> expected;
  {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{1, 1};
    const std::vector<std::int64_t> hi{n - 1, n - 1};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    expected = u.gather(0);
  }
  smpi::launch({.nranks = 2}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{1, 1};
    const std::vector<std::int64_t> hi{n - 1, n - 1};
    u.fill_global_box(0, lo, hi, 1.0F);
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    Operator op = diffusion_operator(g, u, opts);
    op.set_default_backend(Operator::Backend::Jit);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    const auto got = u.gather(0);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_NEAR(got[i], expected[i], 1e-6) << "at " << i;
      }
    }
  });
}

TEST(Codegen, ThreeDimensionalEmissionIndexesAllDims) {
  const Grid g({6, 7, 8}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  Operator op = diffusion_operator(g, u);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("for (long z = 0; z < 8; z += 1)"), std::string::npos)
      << code;
  EXPECT_NE(code.find("[x + 2][y + 2][z + 2] ="), std::string::npos);
  // VLA-pointer cast bakes the padded extents of the two inner dims.
  EXPECT_NE(code.find("[11][12]"), std::string::npos) << code;
}

TEST(Codegen, EnvVarSelectsPattern) {
  // Set once around the run: a rank that unset it could race another
  // rank's read.
  const ScopedEnv mpi("JITFD_MPI", "diag");
  smpi::launch({.nranks = 2}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    Operator op = diffusion_operator(g, u);  // Mode None requested.
    EXPECT_EQ(op.options().mode, ir::MpiMode::Diagonal);
  });
  EXPECT_EQ(ir::mode_from_string("full"), ir::MpiMode::Full);
  EXPECT_EQ(ir::mode_from_string("1"), ir::MpiMode::Basic);
  EXPECT_THROW(ir::mode_from_string("bogus"), std::invalid_argument);
}

TEST(CodegenJit, TiledKernelMatchesUntiled) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::int64_t n = 21;  // Not a multiple of the tile size.
  const double dt = 1e-3;
  auto run = [&](std::int64_t tile) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 5},
                      std::vector<std::int64_t>{15, 17}, 1.0F);
    ir::CompileOptions opts;
    if (tile > 0) {
      opts.tile = {tile, 0};
    }
    Operator op = diffusion_operator(g, u, opts);
    op.set_default_backend(Operator::Backend::Jit);
    op.apply({.time_m = 0, .time_M = 3, .scalars = {{"dt", dt}}});
    return u.gather(4 % 2);
  };
  const auto plain = run(0);
  const auto tiled = run(8);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i], tiled[i]) << "at " << i;
  }
}

TEST(CodegenJit, TtiKernelWithSqrtCompilesAndRuns) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // TTI's sqrt(1 + 2*delta) exercises Call emission (sqrtf).
  const Grid g({16, 16}, {1.0, 1.0});
  jitfd::models::TtiModel model(g, 4);
  model.wavefield().fill_global_box(0, std::vector<std::int64_t>{7, 7},
                                    std::vector<std::int64_t>{9, 9}, 1e-3F);
  auto op = model.make_operator({});
  EXPECT_NE(op->ccode().find("sqrtf("), std::string::npos);
  // Interpreter reference.
  op->apply({.time_m = 0, .time_M = 3,
             .scalars = model.scalars(model.critical_dt())});
  const auto expected = model.wavefield().gather(4 % 3);

  const Grid g2({16, 16}, {1.0, 1.0});
  jitfd::models::TtiModel model2(g2, 4);
  model2.wavefield().fill_global_box(0, std::vector<std::int64_t>{7, 7},
                                     std::vector<std::int64_t>{9, 9}, 1e-3F);
  auto op2 = model2.make_operator({});
  op2->set_default_backend(Operator::Backend::Jit);
  op2->apply({.time_m = 0, .time_M = 3,
              .scalars = model2.scalars(model2.critical_dt())});
  const auto got = model2.wavefield().gather(4 % 3);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-7) << "at " << i;
  }
}

TEST(CodegenJit, OneDimensionalKernelCompiles) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const Grid g({17}, {1.0});
  TimeFunction u("u", g, 2, 1);
  u.set_global(0, std::vector<std::int64_t>{8}, 1.0F);
  const sym::Ex pde = u.dt() - sym::diff(u.now(), 0, 2, 2);
  Operator op({ir::Eq(u.forward(), sym::solve(pde, sym::Ex(0), u.forward()))});
  op.set_default_backend(Operator::Backend::Jit);
  op.apply({.time_m = 0, .time_M = 9, .scalars = {{"dt", 1e-3}}});
  const auto data = u.gather(10 % 2);
  double mass = 0.0;
  for (const float v : data) {
    mass += v;
  }
  EXPECT_NEAR(mass, 1.0, 1e-3);  // Diffusion conserves interior mass.
}

TEST(CodegenJit, PaddedFieldsIndexThroughTheFullLeftOffset) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // padding > 0 shifts the data region by halo+padding; the generated
  // code must match the interpreter exactly.
  const std::int64_t n = 10;
  auto run = [&](Operator::Backend backend) {
    const Grid g({n, n}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1, /*padding=*/3);
    u.fill_global_box(0, std::vector<std::int64_t>{2, 2},
                      std::vector<std::int64_t>{8, 8}, 1.0F);
    Operator op = diffusion_operator(g, u);
    EXPECT_NE(op.ccode().find("[x + 5][y + 5]"), std::string::npos)
        << op.ccode();  // lpad = halo(2) + padding(3).
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = 2, .scalars = {{"dt", 1e-3}}});
    return u.gather(3 % 2);
  };
  const auto interp = run(Operator::Backend::Interpret);
  const auto jit = run(Operator::Backend::Jit);
  for (std::size_t i = 0; i < interp.size(); ++i) {
    ASSERT_NEAR(interp[i], jit[i], 1e-6) << "at " << i;
  }
}

TEST(Operator, RejectsMixedGridsAndDeadFields) {
  const Grid g1({8, 8}, {1.0, 1.0});
  const Grid g2({8, 8}, {1.0, 1.0});
  TimeFunction u("u", g1, 2, 1);
  TimeFunction v("v", g2, 2, 1);
  EXPECT_THROW(Operator({ir::Eq(u.forward(), v.now() + 1)}),
               std::invalid_argument);

  sym::Ex dangling;
  {
    TimeFunction w("w", g1, 2, 1);
    dangling = w.forward();
  }  // w destroyed: the registry entry is gone.
  EXPECT_THROW(Operator({ir::Eq(dangling, sym::Ex(1))}),
               std::invalid_argument);
}

TEST(CodegenJit, CompileFailureSurfacesDiagnostics) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  EXPECT_THROW(jitfd::codegen::JitKernel("this is not C;", false),
               std::runtime_error);
}

TEST(CodegenJit, CompileCacheServesRepeatBuilds) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  // Salt the source so the first build is a guaranteed miss even against
  // a persistent $JITFD_CACHE_DIR left over from earlier runs.
  std::ostringstream src;
  src << "int kernel(float** f, const double* s, long m, long M, void* c,\n"
         "           const void* o) {\n"
         "  (void)f; (void)s; (void)m; (void)M; (void)c; (void)o;\n"
         "  return 7;\n"
         "}\n/* salt "
      << ::getpid() << '.'
      << std::chrono::system_clock::now().time_since_epoch().count()
      << " */\n";

  const std::uint64_t hits_before = jitfd::codegen::JitKernel::cache_hits();
  jitfd::codegen::JitKernel first(src.str(), false);
  EXPECT_FALSE(first.cache_hit());
  EXPECT_GT(first.compile_seconds(), 0.0);

  jitfd::codegen::JitKernel second(src.str(), false);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(second.compile_seconds(), 0.0);
  EXPECT_GE(jitfd::codegen::JitKernel::cache_hits(), hits_before + 1);

  // The cached object is the same loadable kernel.
  EXPECT_EQ(second.run(nullptr, nullptr, 0, 0, nullptr, nullptr), 7);
}

TEST(CodegenJit, IdenticalOperatorsShareOneCompile) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const std::uint64_t misses_before =
      jitfd::codegen::JitKernel::cache_misses();
  auto build_and_run = [] {
    const Grid g({10, 10}, {1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    const std::vector<std::int64_t> lo{3, 3};
    const std::vector<std::int64_t> hi{7, 7};
    u.fill_global_box(0, lo, hi, 1.0F);
    Operator op = diffusion_operator(g, u);
    op.set_default_backend(Operator::Backend::Jit);
    const auto run = op.apply(
        {.time_m = 0, .time_M = 2, .scalars = {{"dt", 1e-3}}});
    return run.jit_cache_hit;
  };
  build_and_run();
  const bool second_hit = build_and_run();
  EXPECT_TRUE(second_hit);
  // At most one external-compiler invocation for the pair.
  EXPECT_LE(jitfd::codegen::JitKernel::cache_misses(), misses_before + 1);
}

// --- Floating-point mode of generated kernels -----------------------------
//
// JIT kernels run with MXCSR FTZ|DAZ on every thread that executes them
// and hand each thread its own mode back; the interpreter stays IEEE.

TEST(FpMode, OpenMpKernelEmitsGuardedFlushAndRestoreOpenAccDoesNot) {
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  const std::string code = diffusion_operator(g, u).ccode();
  const std::size_t guard = code.find(
      "#if defined(__SSE__)\nstatic _Thread_local unsigned int "
      "jitfd_saved_csr;");
  const std::size_t body = code.find("for (long time = time_m;");
  const std::size_t prologue = code.find(
      "__builtin_ia32_ldmxcsr(__builtin_ia32_stmxcsr() | 0x8040u);");
  const std::size_t epilogue =
      code.find("__builtin_ia32_ldmxcsr(jitfd_saved_csr & 0xffffu);");
  const std::size_t ret = code.find("return 0;");
  ASSERT_NE(guard, std::string::npos) << code;
  ASSERT_NE(prologue, std::string::npos) << code;
  ASSERT_NE(epilogue, std::string::npos) << code;
  // Prologue before the time loop, epilogue after it and before the one
  // return; each is a team-wide parallel region behind the SSE guard.
  EXPECT_LT(prologue, body);
  EXPECT_LT(body, epilogue);
  EXPECT_LT(epilogue, ret);
  EXPECT_EQ(code.find("return"), code.rfind("return")) << code;
  EXPECT_NE(code.find("#if defined(__SSE__)\n  #pragma omp parallel\n"),
            std::string::npos)
      << code;

  ir::CompileOptions acc;
  acc.lang = ir::Lang::OpenAcc;
  const std::string acc_code = diffusion_operator(g, u, acc).ccode();
  EXPECT_EQ(acc_code.find("mxcsr"), std::string::npos) << acc_code;
  EXPECT_EQ(acc_code.find("__SSE__"), std::string::npos) << acc_code;
}

#if defined(__SSE__)

TEST(FpMode, EveryTeamThreadFlushesWhileTheInterpreterStaysIeee) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
#ifdef _OPENMP
  const int threads_before = omp_get_max_threads();
  omp_set_num_threads(4);
  const auto flushing_threads = [] {
    int n = 0;
#pragma omp parallel reduction(+ : n)
    n += (_mm_getcsr() & 0x8040U) != 0 ? 1 : 0;
    return n;
  };
  // Also starts this thread's team outside any kernel.
  ASSERT_EQ(flushing_threads(), 0);
#endif
  // One step scales every point from FLT_MIN (the smallest normal float)
  // to FLT_MIN / 4: exact, and subnormal, under IEEE gradual underflow.
  const std::int64_t n = 8;
  const auto step = [&](Operator::Backend backend, ir::CompileOptions opts) {
    const Grid g({n, n, n}, {1.0, 1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill(std::numeric_limits<float>::min());
    Operator op({ir::Eq(u.forward(), sym::Ex(0.25) * u.now())}, opts);
    op.set_default_backend(backend);
    (void)op.apply({.time_m = 0, .time_M = 0});
    return u.gather(1);
  };
  ir::CompileOptions serial;
  serial.openmp = false;  // No team: the calling thread runs every row.
  const auto interp = step(Operator::Backend::Interpret, {});
  const auto team = step(Operator::Backend::Jit, {});
  const auto alone = step(Operator::Backend::Jit, serial);
#ifdef _OPENMP
  // The epilogue handed every team thread its IEEE mode back.
  EXPECT_EQ(flushing_threads(), 0);
  // A new thread's first team starts inside the kernel call, so its
  // threads are created there, with the mode of the thread that forks.
  std::thread([&] {
    omp_set_num_threads(4);
    (void)step(Operator::Backend::Jit, {});
    EXPECT_EQ(flushing_threads(), 0);
  }).join();
  omp_set_num_threads(threads_before);
#endif
  ASSERT_EQ(interp.size(), static_cast<std::size_t>(n * n * n));
  for (const auto* jit : {&team, &alone}) {
    ASSERT_EQ(jit->size(), interp.size());
    const char* run = jit == &team ? "team" : "serial";
    // Census per (x, y) row: the x loop is split statically across the
    // team, so a thread that did not flush leaves whole rows subnormal.
    for (std::int64_t row = 0; row < n * n; ++row) {
      int jit_subnormal = 0;
      int interp_subnormal = 0;
      for (std::int64_t z = 0; z < n; ++z) {
        const auto i = static_cast<std::size_t>(row * n + z);
        jit_subnormal += std::fpclassify((*jit)[i]) == FP_SUBNORMAL ? 1 : 0;
        interp_subnormal +=
            std::fpclassify(interp[i]) == FP_SUBNORMAL ? 1 : 0;
        ASSERT_NEAR(interp[i], (*jit)[i], 1e-6) << run << " at " << i;
      }
      EXPECT_EQ(jit_subnormal, 0)
          << run << " x=" << row / n << " y=" << row % n;
      EXPECT_EQ(interp_subnormal, n) << "x=" << row / n << " y=" << row % n;
    }
  }
}

// All six sticky exception flags are pre-set in the caller's MXCSR, so
// host arithmetic around the kernel cannot change them and the
// before/after comparison can be bit-exact.
constexpr unsigned int kStickyFlags = 0x3FU;

TEST(FpMode, CallerMxcsrIsRestoredAfterApply) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
  const unsigned int original = _mm_getcsr();
  // An IEEE caller, and one that already had DAZ (but not FTZ) on.
  for (const unsigned int extra : {0x0U, 0x0040U}) {
    const unsigned int before = original | kStickyFlags | extra;
    _mm_setcsr(before);
    const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill(1.0F);
    Operator op = diffusion_operator(g, u);
    (void)op.apply({.time_m = 0,
                    .time_M = 1,
                    .scalars = {{"dt", 1e-3}},
                    .backend = Operator::Backend::Jit});
    EXPECT_EQ(_mm_getcsr(), before) << std::hex << "caller extra " << extra;
    _mm_setcsr(original);
  }
}

TEST(FpMode, CallerMxcsrIsRestoredAfterAThrowOutOfTheKernel) {
  if (!have_cc()) {
    GTEST_SKIP() << "no C compiler available";
  }
#ifdef JITFD_OBS_DISABLED
  GTEST_SKIP() << "built with JITFD_OBS=OFF: no health abort to throw";
#endif
  // The Health.AbortDumpThrowsOnEveryRankAndWritesValidBundle set-up on
  // the JIT: a seeded NaN makes the health callback throw
  // DivergenceError out through the generated C on every rank.
  char dir_template[] = "/tmp/jitfd_fpmode_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string dir(dir_template);
  const ScopedEnv flight_dir("JITFD_FLIGHT_DIR", dir);
  jitfd::obs::flight::reset_for_testing();
  namespace health = jitfd::obs::health;
  try {
    smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
      const Grid g({16, 16}, {1.0, 1.0}, comm);
      TimeFunction u("u", g, 2, 1);
      u.fill(1.0F);
      const std::vector<std::int64_t> seed{12, 12};
      (void)u.set_global(0, seed, std::numeric_limits<float>::quiet_NaN());
      ir::CompileOptions opts;
      opts.mode = ir::MpiMode::Basic;
      Operator op = diffusion_operator(g, u, opts);
      const unsigned int before = _mm_getcsr() | kStickyFlags;
      _mm_setcsr(before);
      try {
        (void)op.apply({.time_m = 0,
                        .time_M = 3,
                        .scalars = {{"dt", 1e-3}},
                        .backend = Operator::Backend::Jit,
                        .health_interval = 1,
                        .on_nan = health::OnNan::AbortDump});
        ADD_FAILURE() << "apply() should have thrown";
      } catch (...) {
        EXPECT_EQ(_mm_getcsr(), before) << "rank " << comm.rank();
        throw;
      }
    });
    ADD_FAILURE() << "smpi::launch should have rethrown DivergenceError";
  } catch (const health::DivergenceError& e) {
    std::remove(e.dump_path().c_str());
  }
  ::rmdir(dir.c_str());
  jitfd::obs::flight::reset_for_testing();
}

#endif  // __SSE__

}  // namespace
