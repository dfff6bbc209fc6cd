//===- ScalarOps.h - Integer operator semantics -----------------*- C++-*-===//
///
/// \file
/// The one definition of the integer operators (`+ - neg * abs min max div
/// mod` and the comparisons) on 64-bit values, shared by every concrete
/// evaluator: the interpreter, the simplifier's constant folding, the
/// enumerator's term evaluator and its value-vector kernel. Add, Sub, Neg,
/// Mul and Abs wrap in two's complement (computed in unsigned arithmetic, so
/// an overflowing candidate such as `a*a` on large example values is defined
/// behaviour); division is Euclidean and never traps.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_AST_SCALAROPS_H
#define SE2GIS_AST_SCALAROPS_H

#include "ast/Term.h"

namespace se2gis {

constexpr long long wrapAdd(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) +
                                static_cast<unsigned long long>(B));
}

constexpr long long wrapSub(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) -
                                static_cast<unsigned long long>(B));
}

constexpr long long wrapMul(long long A, long long B) {
  return static_cast<long long>(static_cast<unsigned long long>(A) *
                                static_cast<unsigned long long>(B));
}

constexpr long long wrapNeg(long long A) { return wrapSub(0, A); }

/// Euclidean division (the remainder is always non-negative), matching Z3's
/// integer `div`. Division by zero yields 0 by convention, and the one
/// overflowing quotient (LLONG_MIN div -1) wraps.
constexpr long long euclidDiv(long long A, long long B) {
  if (B == 0)
    return 0;
  if (B == -1)
    return wrapNeg(A);
  long long Q = A / B;
  if (A % B < 0)
    Q += B > 0 ? -1 : 1;
  return Q;
}

/// Euclidean modulo, matching Z3's integer `mod`. Modulo by zero yields 0.
constexpr long long euclidMod(long long A, long long B) {
  if (B == 0 || B == -1)
    return 0;
  long long R = A % B;
  if (R < 0)
    R = B < 0 ? R - B : R + B;
  return R;
}

/// \returns true for the comparisons, whose \c evalIntOp result is 0 or 1.
constexpr bool isIntComparison(OpKind Op) {
  switch (Op) {
  case OpKind::Lt:
  case OpKind::Le:
  case OpKind::Gt:
  case OpKind::Ge:
  case OpKind::Eq:
  case OpKind::Ne:
    return true;
  default:
    return false;
  }
}

/// Applies \p Op to integer operands (\p B is ignored by the unary Neg and
/// Abs). Comparisons return 0 or 1. A constant \p Op folds the switch away,
/// so the enumerator's kernel instantiates one loop per operator.
constexpr long long evalIntOp(OpKind Op, long long A, long long B) {
  switch (Op) {
  case OpKind::Add:
    return wrapAdd(A, B);
  case OpKind::Sub:
    return wrapSub(A, B);
  case OpKind::Neg:
    return wrapNeg(A);
  case OpKind::Mul:
    return wrapMul(A, B);
  case OpKind::Div:
    return euclidDiv(A, B);
  case OpKind::Mod:
    return euclidMod(A, B);
  case OpKind::Min:
    return A < B ? A : B;
  case OpKind::Max:
    return A > B ? A : B;
  case OpKind::Abs:
    return A < 0 ? wrapNeg(A) : A;
  case OpKind::Lt:
    return A < B;
  case OpKind::Le:
    return A <= B;
  case OpKind::Gt:
    return A > B;
  case OpKind::Ge:
    return A >= B;
  case OpKind::Eq:
    return A == B;
  case OpKind::Ne:
    return A != B;
  default:
    return 0;
  }
}

} // namespace se2gis

#endif // SE2GIS_AST_SCALAROPS_H
