// Unit and property tests for the symbolic expression system: canonical
// simplification, manipulation, solve(), CSE/factorization, FD weights.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "symbolic/cse.h"
#include "symbolic/expr.h"
#include "symbolic/fd_weights.h"
#include "symbolic/manip.h"

namespace {

using namespace jitfd::sym;  // NOLINT: test file.

FieldId make_u() { return FieldId{0, "u", 2, true}; }
FieldId make_m() { return FieldId{1, "m", 2, false}; }

TEST(Expr, NumberFoldingAndIdentityRules) {
  const Ex x = symbol("x");
  EXPECT_TRUE((x + 0).node().kind == Kind::Symbol);
  EXPECT_TRUE((x * 1) == x);
  EXPECT_TRUE((x * 0).is_zero());
  EXPECT_TRUE((Ex(2) + Ex(3)) == Ex(5));
  EXPECT_TRUE((Ex(2) * Ex(3)) == Ex(6));
  EXPECT_TRUE(pow(x, 0).is_one());
  EXPECT_TRUE(pow(x, 1) == x);
  EXPECT_TRUE(pow(Ex(2), 10) == Ex(1024));
}

TEST(Expr, AddCollectsLikeTerms) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  EXPECT_TRUE(x + x == 2 * x);
  EXPECT_TRUE(3 * x + 5 * x == 8 * x);
  EXPECT_TRUE(x - x == Ex(0));
  EXPECT_TRUE(2 * x + y - x - y == x);
}

TEST(Expr, MulCollectsPowers) {
  const Ex x = symbol("x");
  EXPECT_TRUE(x * x == pow(x, 2));
  EXPECT_TRUE(pow(x, 2) * pow(x, 3) == pow(x, 5));
  EXPECT_TRUE(x / x == Ex(1));
  EXPECT_TRUE(pow(x, 2) / x == x);
}

TEST(Expr, PowNesting) {
  const Ex x = symbol("x");
  EXPECT_TRUE(pow(pow(x, 2), 3) == pow(x, 6));
  EXPECT_TRUE(pow(pow(x, 2), -1) == pow(x, -2));
}

TEST(Expr, CanonicalOrderIsDeterministic) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  EXPECT_TRUE(a + b == b + a);
  EXPECT_TRUE(a * b == b * a);
  EXPECT_EQ((a + b).to_string(), (b + a).to_string());
}

TEST(Expr, AdditionIsAssociative) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const Ex c = symbol("c");
  EXPECT_TRUE((a + b) + c == a + (b + c));
  EXPECT_TRUE((a * b) * c == a * (b * c));
}

TEST(Expr, DivisionBySymbolicZeroThrows) {
  EXPECT_THROW(symbol("x") / Ex(0), std::domain_error);
  EXPECT_THROW(pow(Ex(0), -1), std::domain_error);
}

TEST(Expr, FieldAccessEqualityAndPrinting) {
  const FieldId u = make_u();
  const Ex a1 = access(u, 0, {1, -2});
  const Ex a2 = access(u, 0, {1, -2});
  const Ex a3 = access(u, 1, {1, -2});
  EXPECT_TRUE(a1 == a2);
  EXPECT_FALSE(a1 == a3);
  EXPECT_EQ(a1.to_string(), "u[t, x+1, y-2]");
  EXPECT_EQ(a3.to_string(), "u[t+1, x+1, y-2]");
  EXPECT_EQ(access(make_m(), {0, 0}).to_string(), "m[x, y]");
}

TEST(Manip, SubstituteReplacesAllOccurrences) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex e = x * x + 2 * x + y;
  const Ex got = substitute(e, x, Ex(3));
  EXPECT_TRUE(got == y + 15);
}

TEST(Manip, ContainsFindsDeepSubtrees) {
  const FieldId u = make_u();
  const Ex target = access(u, 1, {0, 0});
  const Ex e = symbol("m") * (access(u, 0, {0, 0}) - 2 * target);
  EXPECT_TRUE(contains(e, target));
  EXPECT_FALSE(contains(e, access(u, -1, {0, 0})));
}

TEST(Manip, CollectLinearSplitsCoefficientAndRest) {
  const Ex x = symbol("x");
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const auto parts = collect_linear(a * x + b, x);
  EXPECT_TRUE(parts.coeff == a);
  EXPECT_TRUE(parts.rest == b);
}

TEST(Manip, CollectLinearRejectsNonlinearTargets) {
  const Ex x = symbol("x");
  EXPECT_THROW(collect_linear(x * x, x), std::domain_error);
  EXPECT_THROW(collect_linear(pow(x, 2) + x, x), std::domain_error);
}

TEST(Manip, SolveLinearEquation) {
  const Ex x = symbol("x");
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  // a*x + b == 0  =>  x == -b/a
  const Ex sol = solve(a * x + b, Ex(0), x);
  EXPECT_TRUE(sol == -b / a);
}

TEST(Manip, SolveWaveEquationUpdate) {
  // The paper's Listing 9: m*u.dt2 - laplace(u) solved for u[t+1].
  // With dt2 = (u[t+1] - 2u[t] + u[t-1]) / dt^2 the update must be
  // u[t+1] = 2u[t] - u[t-1] + dt^2/m * laplace.
  const FieldId u = make_u();
  const Ex dt = symbol("dt");
  const Ex m = access(make_m(), {0, 0});
  const Ex fwd = access(u, 1, {0, 0});
  const Ex now = access(u, 0, {0, 0});
  const Ex bwd = access(u, -1, {0, 0});
  const Ex lap = symbol("LAP");  // Stand-in for the spatial part.
  const Ex dt2 = (fwd - 2 * now + bwd) / (dt * dt);

  const Ex sol = solve(m * dt2 - lap, Ex(0), fwd);
  const Ex expected = 2 * now - bwd + lap * dt * dt / m;
  EXPECT_TRUE(expand(sol) == expected) << sol.to_string();

  // solve() keeps the update factored as -rest/coeff: the reciprocal of
  // the time-stencil coefficient appears once, not once per term.
  const Ex reciprocal = pow(m / (dt * dt), -1);
  int occurrences = 0;
  walk(sol, [&](const Ex& sub) { occurrences += sub == reciprocal ? 1 : 0; });
  EXPECT_EQ(occurrences, 1) << sol.to_string();
}

TEST(Manip, FieldAccessHarvest) {
  const FieldId u = make_u();
  const Ex e = access(u, 0, {1, 0}) + access(u, 0, {-1, 0}) + symbol("c");
  EXPECT_EQ(field_accesses(e).size(), 2U);
}

TEST(Manip, FlopCounting) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  EXPECT_EQ(count_flops(x + y), 1);
  EXPECT_EQ(count_flops(x + y + symbol("z")), 2);
  EXPECT_EQ(count_flops(x * y + 2 * x), 3);
  EXPECT_EQ(count_flops(pow(x, -1)), 1);
  EXPECT_EQ(count_flops(x), 0);
  // A negated operand of a sum is subtracted, not multiplied by -1; only
  // a sum that must start with a negation pays for it.
  EXPECT_EQ(count_flops(x - y), 1);
  EXPECT_EQ(count_flops(x - y * symbol("z")), 2);
  EXPECT_EQ(count_flops(-x - y), 2);
  EXPECT_EQ(count_flops(-x), 1);
}

TEST(Manip, SumTermsSubtractNegatedOperands) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  // Canonical order puts -a first; the plain b swaps in front of it.
  const auto terms = sum_terms(b - a);
  ASSERT_EQ(terms.size(), 2U);
  EXPECT_TRUE(terms[0].term == b && !terms[0].negated);
  EXPECT_TRUE(terms[1].term == a && terms[1].negated);
  const auto both = sum_terms(-a - b);
  EXPECT_TRUE(both[0].negated && both[1].negated);
}

TEST(Cse, ExtractsRepeatedSubexpressions) {
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex common = (x + y) * (x + y);
  const auto result = cse({common + x, common + y});
  ASSERT_FALSE(result.temps.empty());
  // The shared (x+y)^2 (and possibly x+y itself) must be extracted, and the
  // rewritten expressions must reference the same final temp.
  const Ex last = symbol(result.temps.back().name);
  EXPECT_TRUE(result.exprs[0] == last + x);
  EXPECT_TRUE(result.exprs[1] == last + y);
}

TEST(Cse, RewritingPreservesValue) {
  // Property: gluing the temps back in reproduces the original expression.
  const Ex x = symbol("x");
  const Ex y = symbol("y");
  const Ex orig = (x + y) * (x + y) + pow(x + y, 3) + x * y + x * y;
  auto result = cse({orig});
  Ex rebuilt = result.exprs[0];
  for (auto it = result.temps.rbegin(); it != result.temps.rend(); ++it) {
    rebuilt = substitute(rebuilt, symbol(it->name), it->value);
  }
  EXPECT_TRUE(rebuilt == orig);
}

TEST(Cse, InvariantExtractionHoistsSpacingFactors) {
  const FieldId u = make_u();
  const Ex h = symbol("h_x");
  const Ex e = access(u, 0, {1, 0}) / (h * h) + access(u, 0, {-1, 0}) / (h * h);
  const auto result = extract_invariants({e});
  ASSERT_EQ(result.temps.size(), 1U);
  EXPECT_TRUE(result.temps[0].value == pow(h, -2));
  EXPECT_FALSE(contains(result.exprs[0], pow(h, -2)));
}

TEST(Cse, InvariantExtractionIgnoresFieldDependentTerms) {
  const FieldId u = make_u();
  const Ex e = access(u, 0, {0, 0}) * access(u, 0, {1, 0});
  const auto result = extract_invariants({e});
  EXPECT_TRUE(result.temps.empty());
  EXPECT_TRUE(result.exprs[0] == e);
}

TEST(Cse, FactorizationGroupsSharedCoefficients) {
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const Ex c = symbol("c");
  const Ex e = 0.25 * a + 0.25 * b + 0.25 * c;
  const Ex f = factorize(e);
  EXPECT_LT(count_flops(f), count_flops(e));
  // Semantics preserved: substitute values and compare.
  const std::vector<std::pair<Ex, Ex>> vals{{a, Ex(2)}, {b, Ex(3)}, {c, Ex(5)}};
  EXPECT_TRUE(substitute(f, vals) == substitute(e, vals));
}

TEST(Cse, FactorizationPairsAntisymmetricTaps) {
  // c*a + (-c)*b shares one multiply: c*(a - b), 2 flops instead of 3.
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const Ex c = symbol("c");
  const Ex d = symbol("d");
  const Ex e = 0.8 * a - 0.8 * b + 0.2 * c - 0.2 * d;
  const Ex f = factorize(e);
  EXPECT_TRUE(f == 0.8 * (a - b) + 0.2 * (c - d)) << f.to_string();
  EXPECT_EQ(count_flops(e), 7);
  EXPECT_EQ(count_flops(f), 5);
  // A group of one sign keeps its signed coefficient.
  EXPECT_TRUE(factorize(-0.5 * a - 0.5 * b) == -0.5 * (a + b));
  const std::vector<std::pair<Ex, Ex>> vals{
      {a, Ex(2)}, {b, Ex(3)}, {c, Ex(5)}, {d, Ex(7)}};
  EXPECT_NEAR(substitute(f, vals).number(), substitute(e, vals).number(),
              1e-12);
}

TEST(Cse, NegationIsNeverATemporary) {
  // -(a + b) occurs twice; only a + b is worth a temp, and each sum
  // subtracts it.
  const Ex a = symbol("a");
  const Ex b = symbol("b");
  const auto result = cse({symbol("x") - (a + b), symbol("y") - (a + b)});
  ASSERT_EQ(result.temps.size(), 1U);
  EXPECT_TRUE(result.temps[0].value == a + b);
  const Ex r = symbol(result.temps[0].name);
  EXPECT_TRUE(result.exprs[0] == symbol("x") - r);
  EXPECT_EQ(count_flops(result.exprs[1]), 1);
}

// --- FD weights -----------------------------------------------------------

TEST(FdWeights, SecondOrderCentralSecondDerivative) {
  const auto st = central_stencil(2, 2);
  ASSERT_EQ(st.offsets, (std::vector<int>{-1, 0, 1}));
  EXPECT_NEAR(st.weights[0], 1.0, 1e-12);
  EXPECT_NEAR(st.weights[1], -2.0, 1e-12);
  EXPECT_NEAR(st.weights[2], 1.0, 1e-12);
}

TEST(FdWeights, FourthOrderCentralFirstDerivative) {
  const auto st = central_stencil(1, 4);
  ASSERT_EQ(st.offsets, (std::vector<int>{-2, -1, 0, 1, 2}));
  const std::vector<double> expected{1.0 / 12, -2.0 / 3, 0.0, 2.0 / 3,
                                     -1.0 / 12};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(st.weights[i], expected[i], 1e-12) << "tap " << i;
  }
}

TEST(FdWeights, SecondOrderStaggeredFirstDerivative) {
  const auto st = staggered_stencil(2, +1);
  ASSERT_EQ(st.offsets, (std::vector<int>{0, 1}));
  EXPECT_NEAR(st.weights[0], -1.0, 1e-12);
  EXPECT_NEAR(st.weights[1], 1.0, 1e-12);
}

class FdWeightsOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(FdWeightsOrderSweep, WeightsSumToZeroAndReproduceMonomials) {
  // Property: an order-p stencil for the m-th derivative must be exact on
  // all monomials x^k, k <= p (derivative at 0 of x^k is k! [k==m]).
  const int so = GetParam();
  for (const int m : {1, 2}) {
    const auto st = central_stencil(m, so);
    for (int k = 0; k <= so; ++k) {
      double sum = 0.0;
      double magnitude = 0.0;  // Cancellation scale for the tolerance.
      for (std::size_t i = 0; i < st.offsets.size(); ++i) {
        const double term = st.weights[i] * std::pow(st.offsets[i], k);
        sum += term;
        magnitude += std::abs(term);
      }
      const double expected = (k == m) ? std::tgamma(k + 1) : 0.0;
      EXPECT_NEAR(sum, expected, 1e-11 * std::max(1.0, magnitude))
          << "so=" << so << " m=" << m << " k=" << k;
    }
  }
}

TEST_P(FdWeightsOrderSweep, StaggeredWeightsReproduceMonomialsAtHalfPoint) {
  const int so = GetParam();
  for (const int side : {+1, -1}) {
    const auto st = staggered_stencil(so, side);
    ASSERT_EQ(st.offsets.size(), static_cast<std::size_t>(so));
    for (int k = 0; k <= so; ++k) {
      double sum = 0.0;
      double magnitude = 0.0;
      for (std::size_t i = 0; i < st.offsets.size(); ++i) {
        const double pos = st.offsets[i] - side * 0.5;
        const double term = st.weights[i] * std::pow(pos, k);
        sum += term;
        magnitude += std::abs(term);
      }
      const double expected = (k == 1) ? 1.0 : 0.0;
      EXPECT_NEAR(sum, expected, 1e-11 * std::max(1.0, magnitude))
          << "so=" << so << " side=" << side << " k=" << k;
    }
  }
}

TEST(FdWeights, CentralWeightsAreExactlyMirrorSymmetric) {
  // Bitwise (anti)symmetry lets factorize pair the taps at -k and +k
  // under one shared coefficient.
  for (int so = 2; so <= 16; so += 2) {
    const int r = so / 2;
    for (const int m : {1, 2}) {
      const auto st = central_stencil(m, so);
      const double sign = m == 1 ? -1.0 : 1.0;
      for (int k = 0; k <= r; ++k) {
        EXPECT_EQ(st.weights[static_cast<std::size_t>(r - k)],
                  sign * st.weights[static_cast<std::size_t>(r + k)])
            << "so=" << so << " m=" << m << " k=" << k;
      }
    }
  }
}

TEST(FdWeights, StaggeredWeightsAreExactlyAntisymmetric) {
  for (int so = 2; so <= 16; so += 2) {
    for (const int side : {1, -1}) {
      const auto st = staggered_stencil(so, side);
      const std::size_t n = st.weights.size();
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(st.weights[i], -st.weights[n - 1 - i])
            << "so=" << so << " side=" << side << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, FdWeightsOrderSweep,
                         ::testing::Values(2, 4, 8, 12, 16));

TEST(FdWeights, InvalidArguments) {
  EXPECT_THROW(central_stencil(2, 3), std::invalid_argument);
  EXPECT_THROW(central_stencil(3, 4), std::invalid_argument);
  EXPECT_THROW(staggered_stencil(4, 0), std::invalid_argument);
  const std::vector<double> dup{0.0, 0.0};
  EXPECT_THROW(fornberg_weights(1, 0.0, dup), std::invalid_argument);
}

}  // namespace
