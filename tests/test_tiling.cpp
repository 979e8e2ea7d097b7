// Tests for the tiling pass: per-dimension cache blocking lowered as
// BlockLoop IET nodes, tiled-vs-untiled bitwise equivalence across MPI
// patterns x exchange depths x backends (the tiled schedule must be a
// pure traversal-order change *within* each loop nest, so owned values
// come out bit-identical), tiles inside communication-avoiding strips,
// and the JITFD_TILE default.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/env.h"
#include "core/operator.h"
#include "grid/function.h"
#include "ir/lower.h"
#include "smpi/runtime.h"
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
  static const bool ok = std::system("cc --version > /dev/null 2>&1") == 0;
  return ok;
}

ir::Eq diffusion_eq(const TimeFunction& u) {
  return ir::Eq(u.forward(),
                sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()));
}

int count_type(const ir::NodePtr& root, ir::NodeType type) {
  int n = 0;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& node) {
        n += node->type == type ? 1 : 0;
        for (const ir::NodePtr& c : node->body) {
          visit(c);
        }
      };
  visit(root);
  return n;
}

// --- Distributed equivalence matrix ----------------------------------------

/// One distributed diffusion run; returns rank 0's gathered final buffer.
/// 21x21 over 4 ranks: odd extents, and tile 5 divides neither the 11-
/// nor the 10-point local blocks.
std::vector<float> run_distributed(ir::MpiMode mode, int depth,
                                   Operator::Backend backend,
                                   const std::vector<std::int64_t>& tile) {
  const std::int64_t n = 21;
  const int steps = 5;  // Partial strip at depth 2.
  std::vector<float> out;
  jitfd::grid::Function::set_default_exchange_depth(2 * depth);
  smpi::launch({.nranks = 4}, [&](smpi::Communicator& comm) {
    const Grid g({n, n}, {1.0, 1.0}, comm);
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 5},
                      std::vector<std::int64_t>{15, 17}, 1.0F);
    ir::CompileOptions opts;
    opts.mode = mode;
    opts.exchange_depth = depth;
    opts.tile = tile;
    Operator op({diffusion_eq(u)}, opts);
    ASSERT_EQ(op.info().exchange_depth, depth)
        << op.info().exchange_depth_clamp_reason;
    if (!tile.empty()) {
      ASSERT_TRUE(op.info().tile_clamp_reason.empty())
          << op.info().tile_clamp_reason;
    }
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", 1e-3}}});
    const auto got = u.gather(steps % u.time_buffers());
    if (comm.rank() == 0) {
      out = got;
    }
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
  return out;
}

void check_tiled_equivalence(ir::MpiMode mode) {
  for (const int depth : {1, 2}) {
    for (const Operator::Backend backend :
         {Operator::Backend::Interpret, Operator::Backend::Jit}) {
      if (backend == Operator::Backend::Jit && !have_cc()) {
        continue;
      }
      const auto plain = run_distributed(mode, depth, backend, {});
      const auto tiled = run_distributed(mode, depth, backend, {5, 0});
      ASSERT_EQ(plain.size(), tiled.size());
      ASSERT_FALSE(plain.empty());
      double mass = 0.0;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        // Bitwise: tiling reorders whole-row traversal, not arithmetic.
        ASSERT_EQ(plain[i], tiled[i])
            << "mode " << ir::to_string(mode) << " depth " << depth
            << " backend " << jitfd::core::to_string(backend) << " at " << i;
        mass += std::abs(static_cast<double>(plain[i]));
      }
      EXPECT_GT(mass, 0.0) << "reference field is empty";
    }
  }
}

TEST(Tiling, TiledMatchesUntiledBasicBothDepthsBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Basic);
}

TEST(Tiling, TiledMatchesUntiledDiagonalBothDepthsBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Diagonal);
}

TEST(Tiling, TiledMatchesUntiledFullBothDepthsBothBackends) {
  check_tiled_equivalence(ir::MpiMode::Full);
}

// --- Serial 3-D, mid-dimension tiles ---------------------------------------

TEST(Tiling, SerialThreeDimNonDividingTilesMatchUntiled) {
  // Odd extents, neither tile divides its extent, and the middle
  // dimension is tiled too (the innermost never is).
  const std::int64_t steps = 3;
  auto run = [&](Operator::Backend backend,
                 const std::vector<std::int64_t>& tile) {
    const Grid g({13, 11, 9}, {1.0, 1.0, 1.0});
    TimeFunction u("u", g, 2, 1);
    u.fill_global_box(0, std::vector<std::int64_t>{3, 2, 2},
                      std::vector<std::int64_t>{9, 8, 7}, 1.0F);
    ir::CompileOptions opts;
    opts.tile = tile;
    Operator op({diffusion_eq(u)}, opts);
    op.set_default_backend(backend);
    op.apply({.time_m = 0, .time_M = steps - 1, .scalars = {{"dt", 1e-4}}});
    return u.gather(static_cast<int>(steps % 2));
  };
  for (const Operator::Backend backend :
       {Operator::Backend::Interpret, Operator::Backend::Jit}) {
    if (backend == Operator::Backend::Jit && !have_cc()) {
      continue;
    }
    const auto plain = run(backend, {});
    for (const std::vector<std::int64_t>& tile :
         {std::vector<std::int64_t>{5, 0, 0},
          std::vector<std::int64_t>{5, 3, 0},
          std::vector<std::int64_t>{7, 3, 0}}) {
      const auto tiled = run(backend, tile);
      ASSERT_EQ(plain.size(), tiled.size());
      for (std::size_t i = 0; i < plain.size(); ++i) {
        ASSERT_EQ(plain[i], tiled[i])
            << "backend " << jitfd::core::to_string(backend) << " at " << i;
      }
    }
  }
}

TEST(Tiling, TileLargerThanExtentClampsWithReasonAndStillRuns) {
  const Grid g({13, 11}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {15, 0};  // 15 >= the 13-point extent.
  Operator op({diffusion_eq(u)}, opts);
  EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
  EXPECT_FALSE(op.info().tile_clamp_reason.empty());
  op.apply({.time_m = 0, .time_M = 1, .scalars = {{"dt", 1e-4}}});
  EXPECT_NE(op.describe().find("clamped"), std::string::npos);
}

// --- Strip sub-steps carry tile loops --------------------------------------

TEST(Tiling, StripSubStepsCarryTileLoops) {
  // Depth-2 strips with a spatial tile: every substep section's nest
  // must be wrapped in a dim-0 BlockLoop so both backends execute the
  // same tiled schedule inside strips.
  jitfd::grid::Function::set_default_exchange_depth(2);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({32, 32}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    opts.exchange_depth = 2;
    opts.tile = {4, 0};
    const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);
    ASSERT_EQ(info.exchange_depth, 2) << info.exchange_depth_clamp_reason;
    ASSERT_TRUE(info.tile_clamp_reason.empty()) << info.tile_clamp_reason;

    const ir::NodePtr* time_loop = nullptr;
    for (const ir::NodePtr& c : iet->body) {
      if (c->type == ir::NodeType::TimeLoop) {
        time_loop = &c;
      }
    }
    ASSERT_NE(time_loop, nullptr);
    EXPECT_EQ((*time_loop)->time_stride, 2);
    int substeps = 0;
    for (const ir::NodePtr& c : (*time_loop)->body) {
      if (c->type != ir::NodeType::Section || c->name != "substep") {
        continue;
      }
      ++substeps;
      ASSERT_FALSE(c->body.empty());
      const ir::NodePtr& nest = c->body.front();
      ASSERT_EQ(nest->type, ir::NodeType::BlockLoop) << "sub-step untiled";
      EXPECT_EQ(nest->dim, 0);
      EXPECT_EQ(nest->tile, 4);
    }
    EXPECT_EQ(substeps, 2);
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

// --- JITFD_TILE / process defaults -----------------------------------------

TEST(Tiling, ParseTileIsStrict) {
  auto parse = [](const std::string& text) {
    const ScopedEnv tile("JITFD_TILE", text);
    return jitfd::env::get_int_list("JITFD_TILE");
  };
  EXPECT_TRUE(jitfd::env::get_int_list("JITFD_TILE").empty());  // Unset.
  EXPECT_TRUE(parse("").empty());
  EXPECT_EQ(parse("16"), (std::vector<std::int64_t>{16}));
  EXPECT_EQ(parse("16,8,0"), (std::vector<std::int64_t>{16, 8, 0}));
  // Empty tokens mean "untiled in this dimension"; anything non-numeric
  // is a hard configuration error naming the variable, never a silent 0.
  EXPECT_EQ(parse("8,,2"), (std::vector<std::int64_t>{8, 0, 2}));
  EXPECT_THROW(parse("16,8cols"), std::invalid_argument);
  try {
    parse("x,4");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_NE(std::string(ex.what()).find("JITFD_TILE"), std::string::npos)
        << ex.what();
  }
  // The Operator reads the same strict parse.
  const ScopedEnv tile("JITFD_TILE", "4x");
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  EXPECT_THROW(Operator({diffusion_eq(u)}), std::invalid_argument);
}

TEST(Tiling, DefaultTileAppliesWhenOptionsLeaveTileEmpty) {
  {
    const ScopedEnv tile("JITFD_TILE", "4,0");
    {
      const Grid g({32, 32}, {1.0, 1.0});
      TimeFunction u("u", g, 2, 1);
      Operator op({diffusion_eq(u)});
      EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{4, 0}));
      EXPECT_TRUE(op.info().tile_clamp_reason.empty());
    }
    {
      const Grid g({32, 32}, {1.0, 1.0});
      TimeFunction u("u", g, 2, 1);
      ir::CompileOptions opts;
      opts.tile = {0, 0};  // Explicit (non-empty) options win over the env.
      Operator op({diffusion_eq(u)}, opts);
      EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
    }
  }
  // Clamp-and-record: an infeasible default is not an error.
  const ScopedEnv tile("JITFD_TILE", "64,4");
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  Operator op({diffusion_eq(u)});
  EXPECT_EQ(op.info().tile, (std::vector<std::int64_t>{0, 0}));
  EXPECT_FALSE(op.info().tile_clamp_reason.empty());
}

// --- Emitted SIMD annotations ----------------------------------------------

TEST(Tiling, EmitterAnnotatesInnermostLoopWithAlignedSimd) {
  const Grid g({32, 32}, {1.0, 1.0});
  TimeFunction u("u", g, 2, 1);
  ir::CompileOptions opts;
  opts.tile = {8, 0};
  Operator op({diffusion_eq(u)}, opts);
  const std::string& code = op.ccode();
  EXPECT_NE(code.find("simd"), std::string::npos) << code;
  EXPECT_NE(code.find("aligned(u:64)"), std::string::npos) << code;
  EXPECT_EQ(count_type(op.iet(), ir::NodeType::BlockLoop), 1);
}

}  // namespace
