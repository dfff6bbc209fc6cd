//===- CoreTest.cpp - Recursion elimination, witnesses, algorithms --------===//

#include "core/Algorithms.h"
#include "core/Approximation.h"
#include "core/Certificates.h"
#include "core/InvariantInfer.h"
#include "core/RecursionElim.h"
#include "core/SynthesisTask.h"
#include "core/Witness.h"

#include "ast/Simplify.h"
#include "frontend/Elaborate.h"
#include "support/Diagnostics.h"
#include "synth/Grammar.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <tuple>

using namespace se2gis;

namespace {

AlgoOptions testOptions(std::int64_t TimeoutMs = 20000) {
  AlgoOptions Opts;
  Opts.TimeoutMs = TimeoutMs;
  return Opts;
}

struct ElimFixture : public ::testing::Test {
  void SetUp() override { Prob = loadProblem(se2gis_tests::kMinSortedSrc); }
  Problem Prob;
};

TEST_F(ElimFixture, EliminatesBaseConstructorTerm) {
  RecursionEliminator Elim(Prob);
  const ConstructorDecl *Elt = Prob.Theta->findConstructor("Elt");
  VarPtr A = freshVar("a", Type::intTy());
  EquationParts Parts = Elim.eliminate(mkCtor(Elt, {mkVar(A)}));
  EXPECT_TRUE(Parts.Canonical);
  EXPECT_TRUE(Parts.Alpha.empty());
  // lhs = b1(a), rhs = a.
  EXPECT_EQ(Parts.Lhs->getKind(), TermKind::Unknown);
  EXPECT_EQ(Parts.Lhs->getCallee(), "b1");
  EXPECT_EQ(Parts.Rhs->str(), A->Name);
}

TEST_F(ElimFixture, EliminatesConsTermWithAlphaVariable) {
  RecursionEliminator Elim(Prob);
  const ConstructorDecl *Cons = Prob.Theta->findConstructor("Cons");
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr L = freshVar("l", Type::dataTy(Prob.Theta));
  EquationParts Parts = Elim.eliminate(mkCtor(Cons, {mkVar(A), mkVar(L)}));
  EXPECT_TRUE(Parts.Canonical);
  ASSERT_EQ(Parts.Alpha.size(), 1u);
  EXPECT_EQ(Parts.Alpha[0].first->Id, L->Id);
  // rhs = min(a, v) where v = alpha(l).
  ASSERT_EQ(Parts.Rhs->getKind(), TermKind::Op);
  EXPECT_EQ(Parts.Rhs->getOp(), OpKind::Min);
  EXPECT_EQ(Parts.Rhs->getArg(1)->getVar()->Id, Parts.Alpha[0].second->Id);
  // lhs = b2(a): no recursion allowed by the skeleton.
  EXPECT_EQ(Parts.Lhs->getCallee(), "b2");
}

TEST_F(ElimFixture, ElimVarDefinitionBuildsUnit) {
  RecursionEliminator Elim(Prob);
  VarPtr Y = freshVar("y", Type::dataTy(Prob.Theta));
  TermPtr Def = Elim.elimVarDefinition(Y, {});
  // The representation is the auto-generated identity, so the unit is
  // lmin(y) directly.
  ASSERT_TRUE(Prob.ReprIdentity);
  ASSERT_EQ(Def->getKind(), TermKind::Call);
  EXPECT_EQ(Def->getCallee(), "lmin");
  EXPECT_EQ(Def->getArg(0)->getKind(), TermKind::Var);
  EXPECT_EQ(Def->getArg(0)->getVar()->Id, Y->Id);
}

TEST_F(ElimFixture, InitialApproximationHasOneTermPerCtor) {
  Approximation Approx(Prob);
  ASSERT_TRUE(Approx.initialize());
  EXPECT_EQ(Approx.terms().size(), 2u);
  Sge System = Approx.buildSge();
  ASSERT_EQ(System.Eqns.size(), 2u);
  // Initial guards are trivial.
  EXPECT_EQ(System.Eqns[0].Guard->str(), "true");
  EXPECT_EQ(System.Eqns[1].Guard->str(), "true");
}

TEST_F(ElimFixture, ImageInvariantsInstantiateAtElimVars) {
  Approximation Approx(Prob);
  ASSERT_TRUE(Approx.initialize());
  VarPtr X = freshVar("imgx", Type::intTy());
  Approx.addImageInvariant(X, mkOp(OpKind::Ge, {mkVar(X), mkIntLit(0)}));
  Sge System = Approx.buildSge();
  // The Cons equation (with one elim var) now has a non-trivial guard.
  bool FoundGuard = false;
  for (const SgeEquation &E : System.Eqns)
    if (E.Guard->str() != "true")
      FoundGuard = true;
  EXPECT_TRUE(FoundGuard);
}

TEST(FrameTest, MaximalFrameCapturesUnknownFreeSubterms) {
  // u1(max(x,0)) + h2(y) frames as u1(o0) + h2(o1), args (max(x,0), y).
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr L = mkAdd(
      mkUnknown("u1", Type::intTy(),
                {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
      mkUnknown("h2", Type::intTy(), {mkVar(Y)}));
  Frame F = computeFrame(L);
  ASSERT_EQ(F.Args.size(), 2u);
  EXPECT_EQ(F.Args[0]->str(), "max(" + X->Name + ", 0)");
  EXPECT_EQ(F.Args[1]->str(), Y->Name);
  EXPECT_FALSE(containsUnknown(F.Args[0]));
  EXPECT_TRUE(containsUnknown(F.F));
  // The frame itself has no variables.
  EXPECT_TRUE(freeVars(F.F).empty());
}

TEST(FrameTest, EqualFramesForRenamedEquations) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Z = freshVar("z", Type::intTy());
  TermPtr L1 = mkUnknown("u", Type::intTy(), {mkVar(X)});
  TermPtr L2 = mkUnknown("u", Type::intTy(), {mkVar(Z)});
  EXPECT_TRUE(termEquals(computeFrame(L1).F, computeFrame(L2).F));
}

TEST(FrameTest, ConstantsAreCapturedToo) {
  // The paper's h'(0, z) example: h1(0) + h2(z).
  VarPtr Z = freshVar("z", Type::intTy());
  TermPtr L = mkAdd(mkUnknown("h1", Type::intTy(), {mkIntLit(0)}),
                    mkUnknown("h2", Type::intTy(), {mkVar(Z)}));
  Frame F = computeFrame(L);
  ASSERT_EQ(F.Args.size(), 2u);
  EXPECT_EQ(F.Args[0]->str(), "0");
}

TEST(WitnessTest, PaperSection6Example) {
  // h1(max(x,0)) + h2(y) = max(x+y, 0) admits the witness pair
  // ([x<- -3, y<-2], [x<- -1, y<-2]) (or a similar one).
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Lhs = mkAdd(
      mkUnknown("h1", Type::intTy(),
                {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
      mkUnknown("h2", Type::intTy(), {mkVar(Y)}));
  TermPtr Rhs =
      mkOp(OpKind::Max, {mkAdd(mkVar(X), mkVar(Y)), mkIntLit(0)});
  Sge System;
  System.Eqns.push_back(SgeEquation{mkTrue(), Lhs, Rhs, 0});
  auto W = findFunctionalWitness(System, 2000, Deadline());
  ASSERT_TRUE(W.has_value());
  // Both models agree on max(x,0) and y but differ on max(x+y,0).
  auto Eval = [&](const SmtModel &M, const TermPtr &T) {
    Env E;
    for (const auto &[V, Val] : M.assignments())
      E[V->Id] = Val;
    return evalScalarTerm(T, E);
  };
  ValuePtr In1a = Eval(W->First.M,
                       mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)}));
  ValuePtr In2a = Eval(W->Second.M,
                       mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)}));
  ValuePtr Out1 = Eval(W->First.M, Rhs);
  ValuePtr Out2 = Eval(W->Second.M, Rhs);
  EXPECT_TRUE(valueEquals(In1a, In2a));
  EXPECT_FALSE(valueEquals(Out1, Out2));
}

TEST(WitnessTest, NoWitnessForRealizableSystem) {
  VarPtr X = freshVar("x", Type::intTy());
  Sge System;
  System.Eqns.push_back(SgeEquation{
      mkTrue(), mkUnknown("u", Type::intTy(), {mkVar(X)}),
      mkAdd(mkVar(X), mkIntLit(1)), 0});
  EXPECT_FALSE(findFunctionalWitness(System, 2000, Deadline()).has_value());
}

// --- End-to-end algorithm runs ------------------------------------------//

TEST(AlgorithmsTest, SE2GISSolvesSumWithoutInvariant) {
  Problem P = loadProblem(se2gis_tests::kSumSrc);
  Outcome R = runSE2GIS(P, testOptions());
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  EXPECT_GE(R.Stats.Refinements, 1);
  EXPECT_EQ(R.Stats.DatatypeInvariants + R.Stats.ImageInvariants, 0);
}

TEST(AlgorithmsTest, SE2GISSolvesMinSortedViaCoarsening) {
  Problem P = loadProblem(se2gis_tests::kMinSortedSrc);
  Outcome R = runSE2GIS(P, testOptions());
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  // The invariant a <= min(l) must have been inferred (datatype kind).
  EXPECT_GE(R.Stats.DatatypeInvariants, 1);
  EXPECT_GE(R.Stats.Coarsenings, 1);
  // The solution must behave like the head function.
  Interpreter I(*P.Prog);
  I.bindUnknowns(&R.Solution);
  const ConstructorDecl *Elt = P.Theta->findConstructor("Elt");
  const ConstructorDecl *Cons = P.Theta->findConstructor("Cons");
  ValuePtr L = Value::mkData(
      Cons, {Value::mkInt(2), Value::mkData(Elt, {Value::mkInt(7)})});
  EXPECT_EQ(I.call("mins", {L})->getInt(), 2);
}

TEST(AlgorithmsTest, SE2GISReportsMinUnsortedUnrealizable) {
  Problem P = loadProblem(se2gis_tests::kMinUnsortedSrc);
  Outcome R = runSE2GIS(P, testOptions());
  ASSERT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
  EXPECT_NE(R.Detail.find("witness"), std::string::npos);
  EXPECT_NE(R.Detail.find("concrete inputs"), std::string::npos);
}

TEST(AlgorithmsTest, SEGISSolvesSum) {
  Problem P = loadProblem(se2gis_tests::kSumSrc);
  Outcome R = runSEGIS(P, testOptions(), /*WithUC=*/false);
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
}

TEST(AlgorithmsTest, SEGISTimesOutOnUnrealizable) {
  Problem P = loadProblem(se2gis_tests::kMinUnsortedSrc);
  Outcome R = runSEGIS(P, testOptions(1500), /*WithUC=*/false);
  EXPECT_EQ(R.V, Verdict::Timeout);
}

TEST(AlgorithmsTest, SEGISUCReportsUnrealizable) {
  Problem P = loadProblem(se2gis_tests::kMinUnsortedSrc);
  Outcome R = runSEGIS(P, testOptions(), /*WithUC=*/true);
  ASSERT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
  EXPECT_NE(R.Detail.find("concrete inputs"), std::string::npos);
}

TEST(AlgorithmsTest, SEGISUCSolvesMinSorted) {
  // Fully bounded terms carry the evaluated invariant, so SEGIS+UC can
  // solve the sorted-min problem without inferring anything.
  Problem P = loadProblem(se2gis_tests::kMinSortedSrc);
  Outcome R = runSEGIS(P, testOptions(), /*WithUC=*/true);
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
}

TEST(AlgorithmsTest, SolutionStringRendering) {
  Problem P = loadProblem(se2gis_tests::kSumSrc);
  Outcome R = runSE2GIS(P, testOptions());
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  std::string S = solutionToString(P, R.Solution);
  EXPECT_NE(S.find("let f0"), std::string::npos);
  EXPECT_NE(S.find("let f1"), std::string::npos);
}

} // namespace

//===- Non-identity representation: parallelizing sum over concat-lists ---===//

namespace {

const char *kParallelSumSrc = R"(
type clist = Single of int | Concat of clist * clist
type list = Elt of int | Cons of int * list

let rec lsum = function
  | Elt a -> a
  | Cons (a, l) -> a + lsum l

let rec repr = function
  | Single a -> Elt a
  | Concat (x, y) -> app (repr y) x
and app (l : list) = function
  | Single a -> Cons (a, l)
  | Concat (x, y) -> app (app l y) x

let rec par : int = function
  | Single a -> $s0 a
  | Concat (x, y) -> $join (par x) (par y)

synthesize par equiv lsum via repr
)";

TEST(AlgorithmsTest, SE2GISParallelizesSumOverConcatLists) {
  Problem P = loadProblem(kParallelSumSrc);
  Outcome R = runSE2GIS(P, testOptions(30000));
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  // join must add its arguments; check on a concrete concat-tree.
  Interpreter I(*P.Prog);
  I.bindUnknowns(&R.Solution);
  const ConstructorDecl *Single = P.Theta->findConstructor("Single");
  const ConstructorDecl *Concat = P.Theta->findConstructor("Concat");
  ValuePtr T = Value::mkData(
      Concat, {Value::mkData(Concat, {Value::mkData(Single, {Value::mkInt(1)}),
                                      Value::mkData(Single, {Value::mkInt(2)})}),
               Value::mkData(Single, {Value::mkInt(4)})});
  EXPECT_EQ(I.call("par", {T})->getInt(), 7);
}

// --- Solver settings ----------------------------------------------------===//

auto settingFields(const SolverConfig &C) {
  return std::make_tuple(C.Algo.TimeoutMs, C.Algo.Seed, C.Algo.Unreal,
                         C.Cache.Mode, C.Cache.Dir, C.Cache.Addr, C.Log.Level,
                         C.TracePath, C.Filter, C.Jobs, C.PerfJsonPath);
}

/// The config \p Value gives through the row's variable or, when
/// \p AsFlag, its flag; nullopt when it throws UserError.
std::optional<SolverConfig> parseSetting(const SolverSetting &S,
                                         std::string Value, bool AsFlag) {
  std::string Flag = S.Flag;
  char *Argv[] = {Flag.data(), Value.data()};
  int I = 0;
  try {
    if (!AsFlag) {
      ::setenv(S.Env, Value.c_str(), 1);
      SolverConfig C = SolverConfig::fromEnv();
      ::unsetenv(S.Env);
      return C;
    }
    SolverConfig C = SolverConfig::fromEnv();
    EXPECT_TRUE(C.parseFlag(2, Argv, I));
    return C;
  } catch (const UserError &) {
    ::unsetenv(S.Env);
    return std::nullopt;
  }
}

TEST(SolverConfigTest, FlagsAndEnvironmentAgree) {
  const std::string Usage = solverFlagUsage();
  for (const SolverSetting &S : solverSettings()) {
    if (!S.Flag)
      continue;
    SCOPED_TRACE(S.Flag);
    EXPECT_NE(Usage.find(std::string(S.Flag) + " "), std::string::npos);
    // A non-default value: an enum's second alternative, else a number or
    // a name.
    std::string Arg = S.Arg;
    bool IsEnum = Arg.find('|') != std::string::npos;
    std::string Good = IsEnum ? Arg.substr(Arg.find('|') + 1)
                       : Arg == "N" ? "7"
                                    : "name";
    Good = Good.substr(0, Good.find('|'));
    auto FromEnv = parseSetting(S, Good, false);
    auto FromFlag = parseSetting(S, Good, true);
    ASSERT_TRUE(FromEnv && FromFlag) << Good;
    EXPECT_EQ(settingFields(*FromEnv), settingFields(*FromFlag));
    EXPECT_NE(settingFields(*FromFlag), settingFields(SolverConfig::fromEnv()));
    if (IsEnum || Arg == "N") {
      EXPECT_FALSE(parseSetting(S, "bogus", false));
      EXPECT_FALSE(parseSetting(S, "bogus", true));
    }
  }
}

} // namespace
