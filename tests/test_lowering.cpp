// Tests for the compiler pipeline: clustering/loop fission, flop
// reduction placement, halo detection with drop/merge/hoist, scheduling,
// and the three pattern lowerings (paper Section III).
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "grid/function.h"
#include "ir/lower.h"
#include "models/acoustic.h"
#include "models/tti.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace ir = jitfd::ir;
namespace sym = jitfd::sym;

// Count nodes of a given type in the IET.
int count_nodes(const ir::NodePtr& root, ir::NodeType type,
                ir::HaloCommKind kind = ir::HaloCommKind::Update,
                bool filter_kind = false) {
  int n = 0;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& node) {
        if (node->type == type &&
            (!filter_kind || node->comm_kind == kind)) {
          ++n;
        }
        for (const ir::NodePtr& c : node->body) {
          visit(c);
        }
      };
  visit(root);
  return n;
}

ir::Eq diffusion_eq(const TimeFunction& u) {
  return ir::Eq(u.forward(),
                sym::solve(u.dt() - u.laplace(), sym::Ex(0), u.forward()));
}

TEST(Lowering, SerialDiffusionSchedule) {
  const Grid g({8, 8}, {1.0, 1.0});
  const TimeFunction u("u", g, 2, 1);
  ir::LoweringInfo info;
  ir::CompileOptions opts;
  const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);

  EXPECT_EQ(iet->type, ir::NodeType::Callable);
  EXPECT_EQ(count_nodes(iet, ir::NodeType::TimeLoop), 1);
  EXPECT_EQ(count_nodes(iet, ir::NodeType::Iteration), 2);  // x, y.
  EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm), 0);
  EXPECT_TRUE(info.spots.empty());
  // Invariants hoisted: at least the 1/h^2 factors.
  EXPECT_GE(info.invariants.size(), 1U);
  // Scalars include spacings and dt.
  EXPECT_NE(std::find(info.scalar_order.begin(), info.scalar_order.end(),
                      "dt"),
            info.scalar_order.end());
}

TEST(Lowering, ScheduleDumpShowsHaloSpotInsideTimeLoop) {
  // The paper's Listing 4/5: the halo exchange is scheduled inside the
  // time loop, before the stencil loop nest.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);
    EXPECT_NE(info.schedule_dump.find("Iteration time"), std::string::npos);
    EXPECT_NE(info.schedule_dump.find("HaloSpot"), std::string::npos);
    EXPECT_LT(info.schedule_dump.find("Iteration time"),
              info.schedule_dump.find("HaloSpot"));
    // Final IET has the spot lowered to an update call.
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloSpot), 0);
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm), 1);
    ASSERT_EQ(info.spots.size(), 1U);
    EXPECT_FALSE(info.spots[0].hoisted);
    EXPECT_EQ(info.spots[0].needs[0].widths, (std::vector<int>{1, 1}));
  });
}

TEST(Lowering, DeepHaloStripScheduleForDiffusion) {
  // exchange_depth 2 on diffusion: the time loop strides by 2, ONE
  // depth-2 exchange sits at the strip top, and the two sub-steps are
  // substep sections whose loop bounds carry the ghost extension —
  // sub-step 0 computes one point into the ghost zone, sub-step 1 none.
  jitfd::grid::Function::set_default_exchange_depth(2);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    opts.exchange_depth = 2;
    const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);

    EXPECT_EQ(info.exchange_depth, 2);
    EXPECT_TRUE(info.exchange_depth_clamp_reason.empty())
        << info.exchange_depth_clamp_reason;
    // One exchange per strip, widened to cover both sub-steps.
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm), 1);
    ASSERT_EQ(info.spots.size(), 1U);
    ASSERT_EQ(info.spots[0].needs.size(), 1U);
    EXPECT_EQ(info.spots[0].needs[0].time_offset, 0);
    EXPECT_EQ(info.spots[0].needs[0].widths, (std::vector<int>{2, 2}));

    // Structure: TimeLoop(stride 2) -> [HaloComm, substep t+0, substep t+1].
    const ir::NodePtr* time_loop = nullptr;
    for (const ir::NodePtr& c : iet->body) {
      if (c->type == ir::NodeType::TimeLoop) {
        time_loop = &c;
      }
    }
    ASSERT_NE(time_loop, nullptr);
    EXPECT_EQ((*time_loop)->time_stride, 2);
    ASSERT_EQ((*time_loop)->body.size(), 3U);
    EXPECT_EQ((*time_loop)->body[0]->type, ir::NodeType::HaloComm);
    for (const std::int64_t shift : {0, 1}) {
      const ir::NodePtr& sub = (*time_loop)->body[1 + shift];
      ASSERT_EQ(sub->type, ir::NodeType::Section);
      EXPECT_EQ(sub->name, "substep");
      EXPECT_EQ(sub->time_shift, shift);
      // The loop nest under the sub-step carries ghost extension
      // (k - 1 - j) * width: 1 for sub-step 0, 0 for sub-step 1. Each
      // sub-step also ends with the per-field health check so a check
      // inside a guarded sub-step is skipped along with its compute
      // (unless the obs layer is compiled out entirely).
#ifdef JITFD_OBS_DISABLED
      ASSERT_EQ(sub->body.size(), 1U);
#else
      ASSERT_EQ(sub->body.size(), 2U);
      EXPECT_EQ(sub->body[1]->type, ir::NodeType::HealthCheck);
#endif
      const ir::NodePtr& x_loop = sub->body[0];
      ASSERT_EQ(x_loop->type, ir::NodeType::Iteration);
      EXPECT_EQ(x_loop->lo.ghost, 1 - shift);
      EXPECT_EQ(x_loop->hi.ghost, 1 - shift);
    }
    if (comm.rank() == 0) {
      EXPECT_NE(info.schedule_dump.find("stride 2"), std::string::npos)
          << info.schedule_dump;
      EXPECT_NE(info.schedule_dump.find("substep"), std::string::npos);
    }
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

TEST(Lowering, DeepHaloDowngradesWhenHaloCapacityTooShallow) {
  // Space order 2 with halos allocated for depth 2 (4 points): depth 8
  // would need an 8-point-deep exchange, so the planner walks the
  // request down to the deepest feasible depth (4: one stencil radius
  // per sub-step fills the 4-point halo) and records why it could not
  // go deeper.
  jitfd::grid::Function::set_default_exchange_depth(2);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Diagonal;
    opts.exchange_depth = 8;
    (void)ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);
    EXPECT_EQ(info.exchange_depth, 4);
    EXPECT_FALSE(info.exchange_depth_clamp_reason.empty());
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

TEST(Lowering, DeepHaloClampsOnSparseOps) {
  // Sparse injections update owned points only; ghost-zone recompute
  // would miss them, so any sparse op forces depth 1.
  jitfd::grid::Function::set_default_exchange_depth(4);
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    opts.exchange_depth = 4;
    (void)ir::lower_to_iet({diffusion_eq(u)}, g, opts,
                           {ir::SparseOpDesc{0}}, info);
    EXPECT_EQ(info.exchange_depth, 1);
    EXPECT_NE(info.exchange_depth_clamp_reason.find("sparse"),
              std::string::npos)
        << info.exchange_depth_clamp_reason;
  });
  jitfd::grid::Function::set_default_exchange_depth(1);
}

TEST(Lowering, CoupledSystemSplitsIntoTwoClusters) {
  // v is updated from tau and tau from the *new* v at nonzero offsets:
  // the flow dependence forces loop fission, and the second cluster needs
  // a halo exchange of v at t+1.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction v("v", g, 4, 1);
    const TimeFunction tau("tau", g, 4, 1);
    const sym::Ex dt = jitfd::grid::dt_symbol();

    const ir::Eq eq1(v.forward(), v.now() + dt * tau.dx(0));
    const sym::Ex v_new_dx = sym::diff(v.forward(), 0, 1, 4);
    const ir::Eq eq2(tau.forward(), tau.now() + dt * v_new_dx);

    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    const auto iet = ir::lower_to_iet({eq1, eq2}, g, opts, {}, info);

    // Two loop nests (two clusters), each with a preceding halo update:
    // tau@t for cluster 1, v@t+1 for cluster 2.
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm), 2);
    ASSERT_EQ(info.spots.size(), 2U);
    EXPECT_EQ(info.spots[0].needs[0].field_id, tau.field_id().id);
    EXPECT_EQ(info.spots[0].needs[0].time_offset, 0);
    EXPECT_EQ(info.spots[1].needs[0].field_id, v.field_id().id);
    EXPECT_EQ(info.spots[1].needs[0].time_offset, 1);
  });
}

TEST(Lowering, PointwiseCoupledEquationsStayFused) {
  // A second equation reading the first's result only at the iteration
  // point carries no cross-point dependence: one cluster, one nest.
  const Grid g({8, 8}, {1.0, 1.0});
  const TimeFunction a("a", g, 2, 1);
  const TimeFunction b("b", g, 2, 1);
  const ir::Eq eq1(a.forward(), a.now() + 1);
  const ir::Eq eq2(b.forward(), a.forward() * 2);
  ir::LoweringInfo info;
  const auto iet = ir::lower_to_iet({eq1, eq2}, g, {}, {}, info);
  EXPECT_EQ(count_nodes(iet, ir::NodeType::Iteration), 2);  // One x-y nest.
}

TEST(Lowering, ParameterFieldExchangeIsHoisted) {
  // A time-invariant field read at offsets (the TTI trig-coefficient
  // pattern) is exchanged once, before the time loop.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    const Function c("c", g, 2);
    // rhs reads c at x+-1 through a derivative of a product.
    const sym::Ex rhs = u.now() + sym::diff(c() * u.now(), 0, 1, 2);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    const auto iet = ir::lower_to_iet({ir::Eq(u.forward(), rhs)}, g, opts, {},
                                      info);
    ASSERT_EQ(info.spots.size(), 2U);
    // One hoisted spot for c, one per-timestep spot for u.
    const auto& hoisted = info.spots[0].hoisted ? info.spots[0]
                                                : info.spots[1];
    const auto& cyclic = info.spots[0].hoisted ? info.spots[1]
                                               : info.spots[0];
    EXPECT_TRUE(hoisted.hoisted);
    EXPECT_EQ(hoisted.needs[0].field_id, c.field_id().id);
    EXPECT_FALSE(cyclic.hoisted);
    EXPECT_EQ(cyclic.needs[0].field_id, u.field_id().id);
    // The hoisted update call sits before the time loop in the IET.
    ASSERT_GE(iet->body.size(), 2U);
    bool seen_hoisted_before_loop = false;
    for (const auto& n : iet->body) {
      if (n->type == ir::NodeType::HaloComm) {
        seen_hoisted_before_loop = true;
      }
      if (n->type == ir::NodeType::TimeLoop) {
        break;
      }
    }
    EXPECT_TRUE(seen_hoisted_before_loop);
  });
}

TEST(Lowering, RedundantExchangeIsDropped) {
  // Two clusters read u@t at offsets but nothing writes u@t in between:
  // the second HaloSpot must be dropped (paper Section III-g).
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    const TimeFunction a("a", g, 2, 1);
    const TimeFunction b("b", g, 2, 1);
    // Both write different fields from u's laplacian; the a-write forces
    // fission only if a dependence exists — force two clusters via
    // reading a.forward at offsets in eq2.
    const ir::Eq eq1(a.forward(), u.laplace());
    const ir::Eq eq2(b.forward(),
                     u.laplace() + sym::diff(a.forward(), 0, 1, 2));
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    ir::lower_to_iet({eq1, eq2}, g, opts, {}, info);
    // Spot 1: u@t (+ nothing else); spot 2: a@t+1 only — u@t was dropped.
    ASSERT_EQ(info.spots.size(), 2U);
    EXPECT_EQ(info.spots[0].needs.size(), 1U);
    EXPECT_EQ(info.spots[0].needs[0].field_id, u.field_id().id);
    ASSERT_EQ(info.spots[1].needs.size(), 1U);
    EXPECT_EQ(info.spots[1].needs[0].field_id, a.field_id().id);

    // Ablation: with halo_opt off, the second cluster re-exchanges u.
    ir::LoweringInfo info2;
    opts.halo_opt = false;
    ir::lower_to_iet({eq1, eq2}, g, opts, {}, info2);
    ASSERT_EQ(info2.spots.size(), 2U);
    EXPECT_EQ(info2.spots[1].needs.size(), 2U);
  });
}

TEST(Lowering, FullModeSplitsCoreAndRemainder) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 4, 1);
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Full;
    const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);

    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm, ir::HaloCommKind::Start,
                          true),
              1);
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm, ir::HaloCommKind::Wait,
                          true),
              1);
    EXPECT_EQ(count_nodes(iet, ir::NodeType::Section), 2);  // core+remainder.
    // Remainder: 2 slabs per decomposed dimension -> 4 nests of 2 loops,
    // plus the core nest of 2 loops.
    EXPECT_EQ(count_nodes(iet, ir::NodeType::Iteration), 2 + 4 * 2);
    // The dump shows start before core and wait before remainder.
    const std::string s = ir::to_debug_string(iet);
    EXPECT_LT(s.find("HaloUpdateStart"), s.find("Section core"));
    EXPECT_LT(s.find("Section core"), s.find("HaloWaitCall"));
    EXPECT_LT(s.find("HaloWaitCall"), s.find("Section remainder"));
  });
}

TEST(Lowering, FullModeSplitPairsSpotWithItsOwnCluster) {
  // Cluster 0 (a from u, pointwise) needs no exchange; cluster 1 reads
  // the new a at offsets and has the only spot. The full-pattern split
  // must be built from cluster 1, and cluster 0's nest must stay intact.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm);
    const TimeFunction u("u", g, 2, 1);
    const TimeFunction a("a", g, 2, 1);
    const TimeFunction b("b", g, 2, 1);
    const ir::Eq eq1(a.forward(), u.now() * 2);
    const ir::Eq eq2(b.forward(), sym::diff(a.forward(), 0, 1, 2));
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Full;
    const auto iet = ir::lower_to_iet({eq1, eq2}, g, opts, {}, info);
    ASSERT_EQ(info.spots.size(), 1U);
    ASSERT_EQ(info.spots[0].needs.size(), 1U);
    EXPECT_EQ(info.spots[0].needs[0].field_id, a.field_id().id);
    EXPECT_EQ(count_nodes(iet, ir::NodeType::HaloComm, ir::HaloCommKind::Start,
                          true),
              1);
    EXPECT_EQ(count_nodes(iet, ir::NodeType::Section), 2);  // core+remainder.

    // Field stores inside / outside the split's sections, by field id.
    std::multiset<int> in_split;
    std::multiset<int> outside;
    const std::function<void(const ir::NodePtr&, bool)> visit =
        [&](const ir::NodePtr& n, bool in_section) {
          if (n->type == ir::NodeType::Expression &&
              n->target.kind() == sym::Kind::FieldAccess) {
            (in_section ? in_split : outside)
                .insert(n->target.node().field.id);
          }
          for (const ir::NodePtr& c : n->body) {
            visit(c, in_section || n->type == ir::NodeType::Section);
          }
        };
    visit(iet, false);
    // Core plus two remainder slabs (a is read along dimension 0 only),
    // each storing b; a is stored once, outside the split.
    EXPECT_EQ(in_split.count(b.field_id().id), 3U);
    EXPECT_EQ(in_split.count(a.field_id().id), 0U);
    EXPECT_EQ(outside.count(a.field_id().id), 1U);
    EXPECT_EQ(outside.count(b.field_id().id), 0U);
  });
}

TEST(Lowering, FlopReductionLowersOperationCount) {
  const Grid g({16, 16}, {1.0, 1.0});
  const TimeFunction u("u", g, 8, 2);
  const Function m("m", g, 8);
  const sym::Ex eq = m() * u.dt2() - u.laplace();
  const ir::Eq update(u.forward(), sym::solve(eq, sym::Ex(0), u.forward()));

  auto flops_of = [&](bool reduce) {
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.flop_reduce = reduce;
    const auto iet = ir::lower_to_iet({update}, g, opts, {}, info);
    // Sum flops of all innermost statements (temps + stores).
    int flops = 0;
    const std::function<void(const ir::NodePtr&)> visit =
        [&](const ir::NodePtr& n) {
          if (n->type == ir::NodeType::Expression) {
            flops += sym::count_flops(n->value);
          }
          for (const auto& c : n->body) {
            visit(c);
          }
        };
    // Only count inside the time loop (invariants are amortized).
    for (const auto& top : iet->body) {
      if (top->type == ir::NodeType::TimeLoop) {
        visit(top);
      }
    }
    return flops;
  };

  EXPECT_LT(flops_of(true), flops_of(false));
}

TEST(Lowering, SolvedUpdatesStayFactored) {
  // solve() returns -rest/coeff unexpanded, so the time-stencil
  // reciprocal and the medium factors multiply the stencil sum once per
  // point instead of once per tap. Re-expanding the update would put
  // acoustic so8 back at 105 flops/pt and TTI so8 at 1134.
  const Grid g({8, 8, 8}, {1.0, 1.0, 1.0});
  jitfd::models::AcousticModel ac(g, 8);
  jitfd::models::TtiModel tti(g, 8);
  auto op_ac = ac.make_operator({});
  auto op_tti = tti.make_operator({});
  const auto facts_ac = jitfd::models::analyze(*op_ac, "acoustic", 8, 5);
  const auto facts_tti = jitfd::models::analyze(*op_tti, "tti", 8, 16);
  EXPECT_LE(facts_ac.flops_per_point, 70);
  EXPECT_LE(facts_tti.flops_per_point, 320);

  // The acoustic update divides once per point: a single reciprocal
  // among the statements inside the time loop.
  int reciprocals = 0;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& n) {
        if (n->type == ir::NodeType::Expression) {
          sym::walk(n->value, [&](const sym::Ex& sub) {
            const auto& args = sub.node().args;
            if (sub.kind() == sym::Kind::Pow && args[1].is_number() &&
                args[1].number() < 0.0) {
              ++reciprocals;
            }
          });
          return;
        }
        for (const auto& c : n->body) {
          visit(c);
        }
      };
  for (const auto& top : op_ac->iet()->body) {
    if (top->type == ir::NodeType::TimeLoop) {
      visit(top);
    }
  }
  EXPECT_EQ(reciprocals, 1);
}

TEST(Lowering, TilingWrapsOuterLoopInBlockLoop) {
  const Grid g({32, 32}, {1.0, 1.0});
  const TimeFunction u("u", g, 2, 1);
  ir::LoweringInfo info;
  ir::CompileOptions opts;
  opts.tile = {8, 0};
  const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);
  EXPECT_EQ(info.tile, (std::vector<std::int64_t>{8, 0}));
  EXPECT_TRUE(info.tile_clamp_reason.empty()) << info.tile_clamp_reason;
  bool outer_tiled = false;
  bool inner_untiled = true;
  const std::function<void(const ir::NodePtr&)> visit =
      [&](const ir::NodePtr& n) {
        if (n->type == ir::NodeType::BlockLoop) {
          if (n->dim == 0 && n->tile == 8) {
            outer_tiled = true;
            // The tile loop owns the parallel annotation; its enclosed
            // Iteration over the same dim must exist (window execution).
            EXPECT_TRUE(n->props.parallel);
            bool has_dim0_iter = false;
            const std::function<void(const ir::NodePtr&)> scan =
                [&](const ir::NodePtr& c) {
                  if (c->type == ir::NodeType::Iteration && c->dim == 0) {
                    has_dim0_iter = true;
                  }
                  for (const auto& cc : c->body) {
                    scan(cc);
                  }
                };
            for (const auto& c : n->body) {
              scan(c);
            }
            EXPECT_TRUE(has_dim0_iter);
          }
          if (n->dim == 1) {
            inner_untiled = false;
          }
        }
        for (const auto& c : n->body) {
          visit(c);
        }
      };
  visit(iet);
  EXPECT_TRUE(outer_tiled);
  EXPECT_TRUE(inner_untiled);
}

TEST(Lowering, TileClampsInnermostAndOversized) {
  const Grid g({32, 16}, {1.0, 1.0});
  const TimeFunction u("u", g, 2, 1);
  ir::LoweringInfo info;
  ir::CompileOptions opts;
  // Innermost stays contiguous for SIMD; 64 >= the dim-0 extent.
  opts.tile = {64, 4};
  const auto iet = ir::lower_to_iet({diffusion_eq(u)}, g, opts, {}, info);
  (void)iet;
  EXPECT_EQ(info.tile, (std::vector<std::int64_t>{0, 0}));
  EXPECT_FALSE(info.tile_clamp_reason.empty());
}

TEST(Lowering, RejectsReservedSymbolNamesAndDuplicateFieldNames) {
  const Grid g({8, 8}, {1.0, 1.0});
  const TimeFunction u("dup", g, 2, 1);
  ir::LoweringInfo info;
  // A user symbol in the compiler's temp namespace (r0, r1, ...).
  EXPECT_THROW(ir::lower_to_iet({ir::Eq(u.forward(),
                                        u.now() * sym::symbol("r7"))},
                                g, {}, {}, info),
               std::invalid_argument);
  // Two distinct fields sharing one name would collide in generated C.
  const TimeFunction u2("dup", g, 2, 1);
  ir::LoweringInfo info2;
  EXPECT_THROW(
      ir::lower_to_iet({ir::Eq(u.forward(), u2.now() + 1)}, g, {}, {}, info2),
      std::invalid_argument);
  // User symbols in the runtime's reserved prefix would collide with
  // generated health/observability plumbing.
  ir::LoweringInfo info_res;
  EXPECT_THROW(
      ir::lower_to_iet(
          {ir::Eq(u.forward(), u.now() * sym::symbol("jitfd_foo"))}, g, {},
          {}, info_res),
      std::invalid_argument);
  // Symbols that merely start with 'r' are fine. The user scalar comes
  // first; lowering appends the reserved health-interval scalar (absent
  // when the obs layer is compiled out).
  ir::LoweringInfo info3;
  ir::lower_to_iet({ir::Eq(u.forward(), u.now() * sym::symbol("rho"))}, g, {},
                   {}, info3);
#ifdef JITFD_OBS_DISABLED
  ASSERT_EQ(info3.scalar_order.size(), 1U);
  EXPECT_EQ(info3.scalar_order[0], "rho");
#else
  ASSERT_EQ(info3.scalar_order.size(), 2U);
  EXPECT_EQ(info3.scalar_order[0], "rho");
  EXPECT_EQ(info3.scalar_order[1], ir::kHealthIntervalScalar);
#endif
}

TEST(Lowering, UndecomposedDimensionNeedsNoExchange) {
  // topology (4,1): reads at y-offsets only cross no rank boundary.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({16, 16}, {1.0, 1.0}, comm, {4, 1});
    const TimeFunction u("u", g, 2, 1);
    const sym::Ex rhs = u.now() + sym::diff(u.now(), 1, 2, 2);  // d2/dy2.
    ir::LoweringInfo info;
    ir::CompileOptions opts;
    opts.mode = ir::MpiMode::Basic;
    ir::lower_to_iet({ir::Eq(u.forward(), rhs)}, g, opts, {}, info);
    EXPECT_TRUE(info.spots.empty());
  });
}

}  // namespace
