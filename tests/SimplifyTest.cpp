//===- SimplifyTest.cpp - Unit tests for the simplifier -------------------===//

#include "ast/Simplify.h"
#include "ast/ScalarOps.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

TermPtr iv(long long V) { return mkIntLit(V); }

TEST(SimplifyTest, ConstantFolding) {
  EXPECT_EQ(simplify(mkAdd(iv(2), iv(3)))->str(), "5");
  EXPECT_EQ(simplify(mkOp(OpKind::Mul, {iv(4), iv(5)}))->str(), "20");
  EXPECT_EQ(simplify(mkOp(OpKind::Min, {iv(4), iv(5)}))->str(), "4");
  EXPECT_EQ(simplify(mkOp(OpKind::Max, {iv(4), iv(5)}))->str(), "5");
  EXPECT_EQ(simplify(mkOp(OpKind::Abs, {iv(-4)}))->str(), "4");
  EXPECT_EQ(simplify(mkOp(OpKind::Lt, {iv(1), iv(2)}))->str(), "true");
  EXPECT_EQ(simplify(mkOp(OpKind::Ge, {iv(1), iv(2)}))->str(), "false");
}

TEST(SimplifyTest, EuclideanDivMod) {
  // Matches Z3's div/mod: the remainder is always non-negative.
  EXPECT_EQ(euclidDiv(7, 2), 3);
  EXPECT_EQ(euclidMod(7, 2), 1);
  EXPECT_EQ(euclidDiv(-7, 2), -4);
  EXPECT_EQ(euclidMod(-7, 2), 1);
  EXPECT_EQ(euclidDiv(7, -2), -3);
  EXPECT_EQ(euclidMod(7, -2), 1);
  EXPECT_EQ(euclidDiv(-7, -2), 4);
  EXPECT_EQ(euclidMod(-7, -2), 1);
  // Sanity: A = B*Q + R with 0 <= R < |B| over a grid.
  for (long long A = -9; A <= 9; ++A)
    for (long long B = -3; B <= 3; ++B) {
      if (B == 0)
        continue;
      long long Q = euclidDiv(A, B), R = euclidMod(A, B);
      EXPECT_EQ(A, B * Q + R) << A << " " << B;
      EXPECT_GE(R, 0);
      EXPECT_LT(R, std::abs(B));
    }
}

TEST(SimplifyTest, ArithmeticIdentities) {
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr V = mkVar(X);
  EXPECT_TRUE(termEquals(simplify(mkAdd(V, iv(0))), V));
  EXPECT_TRUE(termEquals(simplify(mkAdd(iv(0), V)), V));
  EXPECT_TRUE(termEquals(simplify(mkSub(V, iv(0))), V));
  EXPECT_EQ(simplify(mkSub(V, V))->str(), "0");
  EXPECT_EQ(simplify(mkOp(OpKind::Mul, {V, iv(0)}))->str(), "0");
  EXPECT_TRUE(termEquals(simplify(mkOp(OpKind::Mul, {V, iv(1)})), V));
  EXPECT_TRUE(
      termEquals(simplify(mkOp(OpKind::Neg, {mkOp(OpKind::Neg, {V})})), V));
  EXPECT_TRUE(termEquals(simplify(mkOp(OpKind::Min, {V, V})), V));
}

TEST(SimplifyTest, BooleanIdentities) {
  VarPtr B = freshVar("b", Type::boolTy());
  TermPtr V = mkVar(B);
  EXPECT_TRUE(termEquals(simplify(mkAndList({V, mkTrue()})), V));
  EXPECT_EQ(simplify(mkAndList({V, mkFalse()}))->str(), "false");
  EXPECT_TRUE(termEquals(simplify(mkOrList({V, mkFalse()})), V));
  EXPECT_EQ(simplify(mkOrList({V, mkTrue()}))->str(), "true");
  EXPECT_TRUE(termEquals(simplify(mkNot(mkNot(V))), V));
  EXPECT_TRUE(
      termEquals(simplify(mkOp(OpKind::Implies, {mkTrue(), V})), V));
  EXPECT_EQ(simplify(mkOp(OpKind::Implies, {mkFalse(), V}))->str(), "true");
}

TEST(SimplifyTest, ConnectiveFlatteningAndDedup) {
  VarPtr A = freshVar("a", Type::boolTy());
  VarPtr B = freshVar("b", Type::boolTy());
  TermPtr T = mkAndList({mkVar(A), mkAndList({mkVar(B), mkVar(A)})});
  TermPtr S = simplify(T);
  // Flattened to and(a, b) with the duplicate `a` removed.
  ASSERT_EQ(S->getKind(), TermKind::Op);
  EXPECT_EQ(S->getOp(), OpKind::And);
  EXPECT_EQ(S->numArgs(), 2u);
}

TEST(SimplifyTest, IteRules) {
  VarPtr C = freshVar("c", Type::boolTy());
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr V = mkVar(X);
  EXPECT_TRUE(termEquals(simplify(mkIte(mkTrue(), V, mkIntLit(0))), V));
  EXPECT_EQ(simplify(mkIte(mkFalse(), V, mkIntLit(0)))->str(), "0");
  EXPECT_TRUE(termEquals(simplify(mkIte(mkVar(C), V, V)), V));
  EXPECT_TRUE(
      termEquals(simplify(mkIte(mkVar(C), mkTrue(), mkFalse())), mkVar(C)));
}

TEST(SimplifyTest, EqualityRules) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr B = freshVar("b", Type::boolTy());
  EXPECT_EQ(simplify(mkEq(mkVar(X), mkVar(X)))->str(), "true");
  EXPECT_TRUE(termEquals(simplify(mkEq(mkVar(B), mkTrue())), mkVar(B)));
  TermPtr NotB = simplify(mkEq(mkVar(B), mkFalse()));
  EXPECT_EQ(NotB->getOp(), OpKind::Not);
  EXPECT_EQ(simplify(mkOp(OpKind::Ne, {iv(1), iv(2)}))->str(), "true");
}

TEST(SimplifyTest, ProjOfTuple) {
  TermPtr Tup = mkTuple({iv(1), iv(2)});
  EXPECT_EQ(simplify(mkProj(Tup, 1))->str(), "2");
}

TEST(SimplifyTest, Idempotent) {
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr T = mkIte(mkEq(mkVar(X), iv(0)), mkAdd(mkVar(X), iv(0)), iv(7));
  TermPtr S1 = simplify(T);
  TermPtr S2 = simplify(S1);
  EXPECT_TRUE(termEquals(S1, S2));
}

} // namespace
