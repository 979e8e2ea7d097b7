// Expression manipulation: traversal, substitution, linear collection and
// equation solving, access harvesting, and operation counting.
#pragma once

#include <functional>
#include <vector>

#include "symbolic/expr.h"

namespace jitfd::sym {

/// Pre-order visit of every node in the tree (including the root).
void walk(const Ex& e, const std::function<void(const Ex&)>& visit);

/// True if `needle` occurs as a subtree of `haystack`.
bool contains(const Ex& haystack, const Ex& needle);

/// Replace every occurrence of `from` (structural match) with `to`.
Ex substitute(const Ex& e, const Ex& from, const Ex& to);

/// Replace several pairs in one traversal (applied leaf-to-root, no
/// re-substitution into replaced subtrees).
Ex substitute(const Ex& e, const std::vector<std::pair<Ex, Ex>>& repls);

/// Decompose `e` as `coeff * target + rest` where neither `coeff` nor
/// `rest` contains `target`. Throws std::domain_error if `e` is not linear
/// in `target` (e.g. target appears inside a Pow or a product with itself).
struct LinearParts {
  Ex coeff;
  Ex rest;
};
LinearParts collect_linear(const Ex& e, const Ex& target);

/// Distribute products over sums and powers over products, recursively:
/// a*(b + c) -> a*b + a*c and (a*b)^n -> a^n * b^n. Together with the
/// canonical constructors this yields a normal form where structural
/// equality coincides with algebraic equality for polynomial expressions.
Ex expand(const Ex& e);

/// Solve `lhs == rhs` for `target` (which must appear linearly):
/// returns -rest/coeff, the expression the target equals, unexpanded
/// (the sign is folded into the top-level terms of rest). Mirrors
/// devito.solve(). Keeping the quotient factored lets lowering
/// apply the reciprocal of the time-stencil coefficient (and any medium
/// factors around a stencil sum) once per point; expand() the result
/// for a canonical polynomial form.
Ex solve(const Ex& lhs, const Ex& rhs, const Ex& target);

/// All FieldAccess leaves in `e`, in deterministic (traversal) order,
/// duplicates included.
std::vector<Ex> field_accesses(const Ex& e);

/// One operand of a sum as it is evaluated: `negated` terms (canonically
/// (-1)*x) are subtracted, so `term` is x without the -1 factor.
struct SumTerm {
  Ex term;
  bool negated = false;
};

/// The operands of the Add `e` in evaluation order: canonical order,
/// except that a negated first operand swaps with a plain second one (so
/// `-a + b` evaluates as `b - a`, the same IEEE result). Only a sum whose
/// first two operands are both negated starts with a negation.
std::vector<SumTerm> sum_terms(const Ex& e);

/// Floating-point operation count of the *evaluated* expression:
/// n-ary Add/Mul of k operands count k-1 ops, a negated operand of a sum
/// costs nothing beyond its subtraction (see sum_terms), a leading
/// negation 1; Pow counts 1 (division) for exponent -1, otherwise
/// |exponent| - 1 multiplies for small integer exponents and 1 op for the
/// general case.
int count_flops(const Ex& e);

}  // namespace jitfd::sym
