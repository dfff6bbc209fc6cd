//===- SmtTest.cpp - Z3 wrapper, bounded check, induction tests -----------===//

#include "smt/BoundedCheck.h"
#include "smt/Induction.h"
#include "smt/Solver.h"
#include "ast/ScalarOps.h"

#include "eval/Interp.h"
#include "frontend/Elaborate.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

TEST(SolverTest, SatAndModel) {
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  SmtModel M;
  ASSERT_EQ(quickCheck({A}, 1000, &M), SmtResult::Sat);
  ValuePtr V = M.lookup(X->Id);
  ASSERT_NE(V, nullptr);
  EXPECT_GT(V->getInt(), 3);
}

TEST(SolverTest, Unsat) {
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  TermPtr B = mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)});
  EXPECT_EQ(quickCheck({A, B}, 1000), SmtResult::Unsat);
}

TEST(SolverTest, ValidityCheck) {
  VarPtr X = freshVar("x", Type::intTy());
  // max(x, 0) >= x is valid.
  TermPtr F = mkOp(OpKind::Ge,
                   {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)}), mkVar(X)});
  EXPECT_EQ(checkValidity(F, 1000), SmtResult::Unsat);
  // x >= 0 is not.
  SmtModel Counter;
  TermPtr G = mkOp(OpKind::Ge, {mkVar(X), mkIntLit(0)});
  EXPECT_EQ(checkValidity(G, 1000, &Counter), SmtResult::Sat);
  EXPECT_LT(Counter.lookup(X->Id)->getInt(), 0);
}

TEST(SolverTest, TupleScalarization) {
  TypePtr TupTy = Type::tupleTy({Type::intTy(), Type::boolTy()});
  VarPtr P = freshVar("p", TupTy);
  // p = (7, true)
  TermPtr A = mkEq(mkVar(P), mkTuple({mkIntLit(7), mkBoolLit(true)}));
  SmtModel M;
  ASSERT_EQ(quickCheck({A}, 1000, &M), SmtResult::Sat);
  ValuePtr V = M.lookup(P->Id);
  ASSERT_TRUE(V->isTuple());
  EXPECT_EQ(V->getElems()[0]->getInt(), 7);
  EXPECT_TRUE(V->getElems()[1]->getBool());
  // Projections work too.
  TermPtr B = mkOp(OpKind::Gt, {mkProj(mkVar(P), 0), mkIntLit(100)});
  EXPECT_EQ(quickCheck({A, B}, 1000), SmtResult::Unsat);
}

TEST(SolverTest, UnknownsAsUninterpretedFunctions) {
  VarPtr X = freshVar("x", Type::intTy());
  // u(1) = 2 and u(1) = 3 is unsat (functional consistency).
  TermPtr U1 = mkUnknown("u", Type::intTy(), {mkIntLit(1)});
  EXPECT_EQ(quickCheck({mkEq(U1, mkIntLit(2)), mkEq(U1, mkIntLit(3))}, 1000),
            SmtResult::Unsat);
  // u(x) = x + 1 at x = 5 is sat and we can read u(5) back.
  SmtQuery Q;
  Q.add(mkEq(mkVar(X), mkIntLit(5)));
  TermPtr UX = mkUnknown("u", Type::intTy(), {mkVar(X)});
  Q.add(mkEq(UX, mkAdd(mkVar(X), mkIntLit(1))));
  Q.requestValue(UX);
  std::vector<ValuePtr> Vals;
  ASSERT_EQ(Q.checkSat(1000, nullptr, &Vals), SmtResult::Sat);
  ASSERT_EQ(Vals.size(), 1u);
  EXPECT_EQ(Vals[0]->getInt(), 6);
}

TEST(SolverTest, EuclideanDivModAgreesWithSimplifier) {
  for (long long A = -5; A <= 5; ++A)
    for (long long B : {-3LL, 2LL}) {
      VarPtr Q = freshVar("q", Type::intTy());
      TermPtr Formula = mkAndList(
          {mkEq(mkVar(Q), mkOp(OpKind::Div, {mkIntLit(A), mkIntLit(B)}))});
      // The simplifier folds the division; Z3 must agree.
      SmtModel M;
      // Build an unfolded version so Z3 actually computes it.
      SmtQuery Query;
      VarPtr Qa = freshVar("qa", Type::intTy());
      Query.add(mkEq(mkVar(Qa), mkOp(OpKind::Div, {mkIntLit(A), mkIntLit(B)})));
      SmtModel M2;
      ASSERT_EQ(Query.checkSat(1000, &M2), SmtResult::Sat);
      EXPECT_EQ(M2.lookup(Qa->Id)->getInt(), euclidDiv(A, B)) << A << "/" << B;
    }
}

struct BoundedFixture : public ::testing::Test {
  void SetUp() override { Prob = loadProblem(se2gis_tests::kMinSortedSrc); }
  Problem Prob;
};

TEST_F(BoundedFixture, FindsSortedListWithGivenMin) {
  // Exists a sorted list l with lmin(l) = 5 and head(l) = 5.
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  TermPtr F = mkAndList(
      {mkCall("sorted", Type::boolTy(), {mkVar(L)}),
       mkEq(mkCall("lmin", Type::intTy(), {mkVar(L)}), mkIntLit(5))});
  auto W = boundedSat(*Prob.Prog, F, {});
  ASSERT_TRUE(W.has_value());
  ValuePtr LV = W->lookupData(L->Id);
  ASSERT_NE(LV, nullptr);
  Interpreter I(*Prob.Prog);
  EXPECT_TRUE(I.call("sorted", {LV})->getBool());
  EXPECT_EQ(I.call("lmin", {LV})->getInt(), 5);
}

TEST_F(BoundedFixture, ReportsNoneForUnsatisfiable) {
  // No list has lmin(l) < head(l) when sorted (head is the min).
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  TermPtr F = mkAndList(
      {mkCall("sorted", Type::boolTy(), {mkVar(L)}),
       mkOp(OpKind::Lt, {mkCall("lmin", Type::intTy(), {mkVar(L)}),
                         mkCall("head", Type::intTy(), {mkVar(L)})})});
  BoundedOptions Opts;
  Opts.MaxShapesPerVar = 6;
  EXPECT_FALSE(boundedSat(*Prob.Prog, F, Opts).has_value());
}

TEST_F(BoundedFixture, ScalarOnlyFormula) {
  VarPtr X = freshVar("x", Type::intTy());
  auto W = boundedSat(*Prob.Prog, mkEq(mkVar(X), mkIntLit(9)), {});
  ASSERT_TRUE(W.has_value());
  EXPECT_EQ(W->Scalars.lookup(X->Id)->getInt(), 9);
}

struct InductionFixture : public ::testing::Test {
  void SetUp() override { Prob = loadProblem(se2gis_tests::kMinSortedSrc); }
  Problem Prob;
};

TEST(AbstractCallsTest, ConsistentNaming) {
  VarPtr L = freshVar("l", Type::intTy()); // type irrelevant here
  TermPtr C1 = mkCall("f", Type::intTy(), {mkVar(L)});
  TermPtr C2 = mkCall("f", Type::intTy(), {mkVar(L)});
  TermPtr C3 = mkCall("g", Type::intTy(), {mkVar(L)});
  std::vector<std::pair<TermPtr, VarPtr>> Memo;
  TermPtr R = abstractCalls(mkAdd(C1, mkAdd(C2, C3)), Memo);
  EXPECT_EQ(Memo.size(), 2u);
  // c1 and c2 map to the same variable.
  EXPECT_TRUE(termEquals(R->getArg(0), R->getArg(1)->getArg(0)));
}

TEST_F(InductionFixture, ProvesHeadOfSortedIsMin) {
  // forall l: sorted(l) => head(l) = lmin(l).   (Needs induction.)
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  TermPtr Goal = mkOp(
      OpKind::Implies,
      {mkCall("sorted", Type::boolTy(), {mkVar(L)}),
       mkEq(mkCall("head", Type::intTy(), {mkVar(L)}),
            mkCall("lmin", Type::intTy(), {mkVar(L)}))});
  EXPECT_TRUE(proveByInduction(*Prob.Prog, Goal));
}

TEST_F(InductionFixture, DoesNotProveFalseGoal) {
  // forall l: head(l) = lmin(l) without sortedness is false.
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  TermPtr Goal = mkEq(mkCall("head", Type::intTy(), {mkVar(L)}),
                      mkCall("lmin", Type::intTy(), {mkVar(L)}));
  EXPECT_FALSE(proveByInduction(*Prob.Prog, Goal));
}

TEST_F(InductionFixture, ScalarGoalWithoutDataVars) {
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr Valid = mkOp(
      OpKind::Ge, {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)}), mkVar(X)});
  EXPECT_TRUE(proveByInduction(*Prob.Prog, Valid));
  EXPECT_FALSE(proveByInduction(
      *Prob.Prog, mkOp(OpKind::Ge, {mkVar(X), mkIntLit(0)})));
}

TEST_F(InductionFixture, ProvesMinIsAtMostHead) {
  // forall l: lmin(l) <= head(l) holds unconditionally.
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  TermPtr Goal = mkOp(OpKind::Le,
                      {mkCall("lmin", Type::intTy(), {mkVar(L)}),
                       mkCall("head", Type::intTy(), {mkVar(L)})});
  EXPECT_TRUE(proveByInduction(*Prob.Prog, Goal));
}

} // namespace
