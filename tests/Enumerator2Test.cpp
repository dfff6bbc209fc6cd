//===- Enumerator2Test.cpp - More PBE enumerator coverage -----------------===//

#include "synth/Enumerator.h"

#include "ast/ScalarOps.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

GrammarConfig fullGrammar() {
  GrammarConfig G;
  G.AllowMinMax = true;
  G.AllowMul = true;
  G.AllowAbs = true;
  G.AllowMod = true;
  G.Constants = {0, 1, 2};
  return G;
}

Env envOf(const std::vector<std::pair<VarPtr, long long>> &Vals) {
  Env E;
  for (const auto &[V, X] : Vals)
    E[V->Id] = Value::mkInt(X);
  return E;
}

TEST(Enumerator2Test, SynthesizesAbsoluteValue) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-3, -1, 0, 2, 5})
    Ex.push_back(
        PbeExample{envOf({{A, V}}), Value::mkInt(V < 0 ? -V : V)});
  auto T = En.synthesize(Type::intTy(), Ex, 4, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, -9}}))->getInt(), 9);
}

TEST(Enumerator2Test, SynthesizesParityPredicate) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-2, -1, 0, 1, 2, 3})
    Ex.push_back(PbeExample{envOf({{A, V}}),
                            Value::mkBool(euclidMod(V, 2) == 1)});
  auto T = En.synthesize(Type::boolTy(), Ex, 6, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_TRUE(evalScalarTerm(*T, envOf({{A, 7}}))->getBool());
  EXPECT_FALSE(evalScalarTerm(*T, envOf({{A, 8}}))->getBool());
}

TEST(Enumerator2Test, SynthesizesGeneralProduct) {
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A), mkVar(B)});
  std::vector<PbeExample> Ex;
  for (long long X : {-2, 1, 3})
    for (long long Y : {-1, 2})
      Ex.push_back(PbeExample{envOf({{A, X}, {B, Y}}), Value::mkInt(X * Y)});
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 4}, {B, 5}}))->getInt(), 20);
}

TEST(Enumerator2Test, ConditionalAtLargerSize) {
  // if a > 0 then a else 1: needs ite + comparison + leaves.
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  for (long long V : {-5, -1, 0, 2, 7})
    Ex.push_back(PbeExample{envOf({{A, V}}), Value::mkInt(V > 0 ? V : 1)});
  auto T = En.synthesize(Type::intTy(), Ex, 7, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, -3}}))->getInt(), 1);
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 3}}))->getInt(), 3);
}

TEST(Enumerator2Test, TupleParameterProjections) {
  // Leaves include projections of a tuple parameter.
  TypePtr Pair = Type::tupleTy({Type::intTy(), Type::intTy()});
  VarPtr P = freshVar("p", Pair);
  Enumerator En(fullGrammar(), {mkProj(mkVar(P), 0), mkProj(mkVar(P), 1)});
  std::vector<PbeExample> Ex;
  for (long long X : {1, 4})
    for (long long Y : {2, 9}) {
      Env E;
      E[P->Id] = Value::mkTuple({Value::mkInt(X), Value::mkInt(Y)});
      Ex.push_back(PbeExample{E, Value::mkInt(X + Y)});
    }
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
}

TEST(Enumerator2Test, ExpiredDeadlineReturnsNothing) {
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  Ex.push_back(PbeExample{envOf({{A, 1}}), Value::mkInt(77)});
  Deadline Expired = Deadline::afterMs(0);
  // Size-1 candidates are still tried; the unreachable output forces the
  // loop into the (expired) growth phase.
  EXPECT_FALSE(En.synthesize(Type::intTy(), Ex, 9, Expired).has_value());
}

TEST(Enumerator2Test, ObservationalEquivalencePrunes) {
  // With a single example, many terms collapse to the same signature; the
  // enumerator must still find some term quickly at a small size.
  VarPtr A = freshVar("a", Type::intTy());
  Enumerator En(fullGrammar(), {mkVar(A)});
  std::vector<PbeExample> Ex;
  Ex.push_back(PbeExample{envOf({{A, 2}}), Value::mkInt(4)});
  auto T = En.synthesize(Type::intTy(), Ex, 3, Deadline());
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(evalScalarTerm(*T, envOf({{A, 2}}))->getInt(), 4);
}

} // namespace
