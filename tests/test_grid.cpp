// Tests for the grid layer: block decomposition, global<->local index
// conversion, Grid topologies, Function storage layout and the
// distributed NumPy-style data view (paper Listings 1-2 semantics).
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "grid/function.h"
#include "grid/grid.h"
#include "smpi/runtime.h"
#include "symbolic/fd_ops.h"
#include "symbolic/manip.h"

namespace {

using jitfd::grid::Decomposition;
using jitfd::grid::Function;
using jitfd::grid::Grid;
using jitfd::grid::TimeFunction;
namespace sym = jitfd::sym;

TEST(Decomposition, EvenSplit) {
  const Decomposition d(12, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(d.size_of(p), 3);
    EXPECT_EQ(d.start_of(p), 3 * p);
  }
}

TEST(Decomposition, UnevenSplitFrontLoadsExtras) {
  const Decomposition d(10, 4);  // 3,3,2,2
  EXPECT_EQ(d.size_of(0), 3);
  EXPECT_EQ(d.size_of(1), 3);
  EXPECT_EQ(d.size_of(2), 2);
  EXPECT_EQ(d.size_of(3), 2);
  EXPECT_EQ(d.start_of(2), 6);
  EXPECT_EQ(d.start_of(3), 8);
}

TEST(Decomposition, OwnerAndRoundTripProperty) {
  // Property: every global index maps to exactly one owner, and
  // local_to_global(global_to_local(g)) == g.
  for (const auto& [n, p] : std::initializer_list<std::pair<int, int>>{
           {17, 4}, {64, 8}, {5, 5}, {100, 7}, {3, 1}}) {
    const Decomposition d(n, p);
    std::int64_t covered = 0;
    for (int part = 0; part < p; ++part) {
      covered += d.size_of(part);
    }
    EXPECT_EQ(covered, n);
    for (std::int64_t g = 0; g < n; ++g) {
      const int owner = d.owner_of(g);
      const std::int64_t l = d.global_to_local(owner, g);
      ASSERT_GE(l, 0);
      EXPECT_EQ(d.local_to_global(owner, l), g);
      // No other part owns it.
      for (int part = 0; part < p; ++part) {
        if (part != owner) {
          EXPECT_EQ(d.global_to_local(part, g), -1);
        }
      }
    }
  }
}

TEST(Decomposition, SliceLocalization) {
  const Decomposition d(8, 2);  // parts: [0,4) and [4,8)
  // Global slice [1,7) -> local [1,4) on part 0 and [0,3) on part 1.
  EXPECT_EQ(d.localize_slice(0, 1, 7), (std::pair<std::int64_t, std::int64_t>{1, 4}));
  EXPECT_EQ(d.localize_slice(1, 1, 7), (std::pair<std::int64_t, std::int64_t>{0, 3}));
  // Non-overlapping slice is empty.
  const auto empty = d.localize_slice(1, 0, 3);
  EXPECT_GE(empty.first, empty.second);
}

TEST(Grid, SerialGridBasics) {
  const Grid g({4, 4}, {2.0, 2.0});
  EXPECT_EQ(g.ndims(), 2);
  EXPECT_FALSE(g.distributed());
  EXPECT_DOUBLE_EQ(g.spacing(0), 2.0 / 3.0);
  EXPECT_EQ(g.local_shape(), (std::vector<std::int64_t>{4, 4}));
  EXPECT_EQ(g.points(), 16);
  EXPECT_EQ(g.spacing_symbol(1).to_string(), "h_y");
}

TEST(Grid, RejectsInvalidShapes) {
  EXPECT_THROW(Grid({4}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({1, 4}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({4, 4}, {0.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Grid({2, 2, 2, 2}, {1., 1., 1., 1.}), std::invalid_argument);
}

TEST(Grid, DistributedDefaultTopology) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    EXPECT_TRUE(g.distributed());
    EXPECT_EQ(g.topology(), (std::vector<int>{2, 2}));
    EXPECT_EQ(g.local_shape(), (std::vector<std::int64_t>{4, 4}));
    EXPECT_EQ(g.local_start(0), 4 * g.cart()->my_coords()[0]);
  });
}

TEST(Grid, NeighborPredicatesFollowCartesianTopology) {
  // 2x2 ranks on a non-periodic grid: each rank has exactly one
  // neighbour per dimension, on the side facing the domain interior.
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    const auto& coords = g.cart()->my_coords();
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(g.has_neighbor_low(d), coords[static_cast<std::size_t>(d)] == 1);
      EXPECT_EQ(g.has_neighbor_high(d),
                coords[static_cast<std::size_t>(d)] == 0);
    }
  });
  // Serial grids have no neighbours anywhere.
  const Grid serial({8, 8}, {1.0, 1.0});
  EXPECT_FALSE(serial.has_neighbor_low(0));
  EXPECT_FALSE(serial.has_neighbor_high(1));
}

TEST(Function, DefaultExchangeDepthScalesHaloCapacity) {
  // Deep-halo stepping needs room for k stencil radii; the process-wide
  // default depth multiplies the allocated halo at construction time.
  using jitfd::grid::Function;
  const Grid g({8, 8}, {1.0, 1.0});
  Function::set_default_exchange_depth(3);
  const Function deep("deep", g, /*space_order=*/4);
  Function::set_default_exchange_depth(1);
  const Function shallow("shallow", g, /*space_order=*/4);
  EXPECT_EQ(deep.halo(), 12);
  EXPECT_EQ(shallow.halo(), 4);
  EXPECT_THROW(Function::set_default_exchange_depth(0),
               std::invalid_argument);
}

TEST(Grid, CustomTopologyMatchesPaperFigure2) {
  // Paper Figure 2: 16 ranks decomposed as (4,2,2), (2,2,4), (4,4,1).
  smpi::launch({.nranks = 16}, [](smpi::Communicator& comm) {
    for (const auto& topo :
         {std::vector<int>{4, 2, 2}, {2, 2, 4}, {4, 4, 1}}) {
      const Grid g({16, 16, 16}, {1., 1., 1.}, comm, topo);
      EXPECT_EQ(g.topology(), topo);
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(g.local_shape()[static_cast<std::size_t>(d)],
                  16 / topo[static_cast<std::size_t>(d)]);
      }
    }
  });
}

TEST(Function, StorageLayoutIncludesHaloAndPadding) {
  const Grid g({8, 6}, {1.0, 1.0});
  const Function f("f", g, /*space_order=*/4, /*padding=*/2);
  EXPECT_EQ(f.halo(), 4);
  EXPECT_EQ(f.lpad(), 6);
  EXPECT_EQ(f.padded_shape(), (std::vector<std::int64_t>{20, 18}));
  EXPECT_EQ(f.buffer_points(), 20 * 18);
  EXPECT_EQ(f.time_buffers(), 1);
}

TEST(Function, LocalAccessReachesHalo) {
  const Grid g({4, 4}, {1.0, 1.0});
  Function f("f", g, 2);
  const std::array<std::int64_t, 2> interior{0, 0};
  const std::array<std::int64_t, 2> halo_pt{-2, 3};
  f.at_local(0, interior) = 1.5F;
  f.at_local(0, halo_pt) = 2.5F;
  EXPECT_FLOAT_EQ(f.at_local(0, interior), 1.5F);
  EXPECT_FLOAT_EQ(f.at_local(0, halo_pt), 2.5F);
}

TEST(Function, RejectsOddSpaceOrder) {
  const Grid g({4, 4}, {1.0, 1.0});
  EXPECT_THROW(Function("f", g, 3), std::invalid_argument);
  EXPECT_THROW(Function("f", g, 0), std::invalid_argument);
}

TEST(Function, FillGlobalBoxMatchesListing2) {
  // The paper's Listing 1, line 14: u.data[1:-1, 1:-1] = 1 on a 4x4 grid
  // over 4 ranks, each owning a 2x2 block (Listing 2 output).
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({4, 4}, {2.0, 2.0}, comm);
    TimeFunction u("u", g, 2, 2);
    const std::array<std::int64_t, 2> lo{1, 1};
    const std::array<std::int64_t, 2> hi{3, 3};
    u.fill_global_box(0, lo, hi, 1.0F);

    // Each rank sees exactly one written point, in the corner adjacent to
    // the grid centre — Listing 2's per-rank pattern.
    int ones = 0;
    for (std::int64_t i = 0; i < 2; ++i) {
      for (std::int64_t j = 0; j < 2; ++j) {
        const std::array<std::int64_t, 2> idx{i, j};
        if (u.at_local(0, idx) == 1.0F) {
          ++ones;
          // The written point's global coords must be inside [1,3)x[1,3).
          const std::int64_t gx = g.local_start(0) + i;
          const std::int64_t gy = g.local_start(1) + j;
          EXPECT_GE(gx, 1);
          EXPECT_LT(gx, 3);
          EXPECT_GE(gy, 1);
          EXPECT_LT(gy, 3);
        }
      }
    }
    EXPECT_EQ(ones, 1);
  });
}

TEST(Function, SetAndGetGlobalRespectOwnership) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({8, 8}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    const std::array<std::int64_t, 2> pt{5, 2};
    const bool wrote = f.set_global(0, pt, 9.0F);
    // Exactly one rank owns (5,2).
    std::vector<std::int64_t> count{wrote ? 1 : 0};
    comm.allreduce(std::span<std::int64_t>(count), smpi::ReduceOp::Sum);
    EXPECT_EQ(count[0], 1);
    EXPECT_FLOAT_EQ(f.get_global_or(0, pt, -1.0F), wrote ? 9.0F : -1.0F);
  });
}

TEST(Function, GatherReassemblesGlobalArray) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({6, 6}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    // Initialize with a recognizable global pattern.
    f.init([](std::span<const std::int64_t> gidx) {
      return static_cast<float>(10 * gidx[0] + gidx[1]);
    });
    const std::vector<float> global = f.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(global.size(), 36U);
      for (std::int64_t i = 0; i < 6; ++i) {
        for (std::int64_t j = 0; j < 6; ++j) {
          EXPECT_FLOAT_EQ(global[static_cast<std::size_t>(6 * i + j)],
                          static_cast<float>(10 * i + j));
        }
      }
    } else {
      EXPECT_TRUE(global.empty());
    }
  });
}

TEST(Function, Norm2ReducesAcrossRanks) {
  smpi::launch({.nranks = 4}, [](smpi::Communicator& comm) {
    const Grid g({4, 4}, {1.0, 1.0}, comm);
    Function f("f", g, 2);
    f.fill(2.0F);
    EXPECT_DOUBLE_EQ(f.norm2(0), 16 * 4.0);
  });
}

TEST(TimeFunction, BuffersAndSymbolicAccessors) {
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 2);
  EXPECT_EQ(u.time_buffers(), 3);
  EXPECT_EQ(u.forward().to_string(), "u[t+1, x, y]");
  EXPECT_EQ(u.backward().to_string(), "u[t-1, x, y]");
  EXPECT_EQ(u.now().to_string(), "u[t, x, y]");
  EXPECT_THROW(TimeFunction("v", g, 2, 3), std::invalid_argument);
}

TEST(TimeFunction, TimeDerivativesExpandCorrectly) {
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 2);
  const sym::Ex dt = jitfd::grid::dt_symbol();
  EXPECT_TRUE(sym::expand(u.dt2()) ==
              sym::expand((u.forward() - 2 * u.now() + u.backward()) /
                          (dt * dt)));
  const TimeFunction v("v", g, 2, 1);
  EXPECT_TRUE(sym::expand(v.dt()) ==
              sym::expand((v.forward() - v.now()) / dt));
  EXPECT_THROW(v.dt2(), std::logic_error);
}

TEST(Function, LaplaceMatchesListing11Stencil) {
  // The 2nd-order 2D Laplacian weights of the paper's generated code
  // (Listing 11): -2 centre per dimension, +1 neighbours, scaled by 1/h^2.
  const Grid g({4, 4}, {2.0, 2.0});
  const TimeFunction u("u", g, 2, 1);
  const sym::Ex lap = u.laplace();
  const sym::Ex hx = g.spacing_symbol(0);
  const sym::Ex hy = g.spacing_symbol(1);
  const sym::Ex expected =
      (u.at_shifted(0, {1, 0}) - 2 * u.now() + u.at_shifted(0, {-1, 0})) /
          (hx * hx) +
      (u.at_shifted(0, {0, 1}) - 2 * u.now() + u.at_shifted(0, {0, -1})) /
          (hy * hy);
  EXPECT_TRUE(sym::expand(lap) == sym::expand(expected))
      << lap.to_string();
}

TEST(Function, DerivativeOfProductExpressionShiftsWholeSubtree) {
  // diff must act on composite expressions (the TTI rotated Laplacian
  // pattern): d/dx (c * du/dx) with so=2 references c at x+-1.
  const Grid g({8, 8}, {1.0, 1.0});
  const Function c("c", g, 2);
  const TimeFunction u("u", g, 2, 1);
  const sym::Ex inner = c() * sym::diff(u.now(), 0, 1, 2);
  const sym::Ex outer = sym::diff(inner, 0, 1, 2);
  bool saw_shifted_c = false;
  for (const sym::Ex& a : sym::field_accesses(outer)) {
    if (a.node().field.id == c.field_id().id &&
        a.node().space_offsets[0] != 0) {
      saw_shifted_c = true;
    }
  }
  EXPECT_TRUE(saw_shifted_c) << outer.to_string();
}

TEST(Function, UnevenDistributionStillCoversDomain) {
  // 7x5 grid over 3 ranks in one dimension: sizes 3,2,2.
  smpi::launch({.nranks = 3}, [](smpi::Communicator& comm) {
    const Grid g({7, 5}, {1.0, 1.0}, comm, {3, 1});
    Function f("f", g, 2);
    f.init([](std::span<const std::int64_t> gi) {
      return static_cast<float>(gi[0] + 100 * gi[1]);
    });
    const auto global = f.gather(0);
    if (comm.rank() == 0) {
      ASSERT_EQ(global.size(), 35U);
      EXPECT_FLOAT_EQ(global[5 * 6 + 4], 6.0F + 400.0F);
    }
  });
}

}  // namespace
