//===- EnumeratorKernelTest.cpp - Value-vector search vs tree walk --------===//
///
/// The enumerator evaluates each candidate once over all examples from its
/// operands' value rows and builds a term only for the winner. This test
/// keeps the earlier tree-walk search (every candidate a term, every
/// signature an \c evalScalarTerm walk per example) as its reference and
/// requires the same answer and the same candidate and pruned counts over
/// seeded random example tables. The reference also keeps each hashed
/// signature's exact string form and fails on a collision: two candidates
/// with distinct outputs and one signature, of which pruning would drop
/// the second.
///
//===----------------------------------------------------------------------===//

#include "synth/Enumerator.h"

#include "ast/ScalarOps.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

using namespace se2gis;

namespace {

struct Outcome {
  std::optional<TermPtr> Found;
  std::uint64_t Candidates = 0;
  std::uint64_t Pruned = 0;
};

/// The term's signature by tree walk: the combined hash of its output on
/// every example, and in \p Exact the outputs themselves, printed.
std::uint64_t treeWalkSignature(const TermPtr &T,
                                const std::vector<PbeExample> &Examples,
                                std::string &Exact) {
  std::uint64_t H = 1469598103934665603ULL;
  for (const PbeExample &Ex : Examples) {
    ValuePtr V = evalScalarTerm(T, Ex.Inputs);
    H = hashCombine(H, valueHash(V));
    Exact += V->str();
    Exact += '|';
  }
  return H;
}

/// The tree-walk bottom-up search the value-vector kernel replaced, kept
/// verbatim in its enumeration order, deadline polling and pruning.
Outcome referenceSearch(const GrammarConfig &Config,
                        const std::vector<TermPtr> &Leaves,
                        const TypePtr &OutTy,
                        const std::vector<PbeExample> &Examples, int MaxSize,
                        const Deadline &Budget) {
  Outcome Out;
  bool WantInt = OutTy->isInt();
  std::uint64_t Target = 1469598103934665603ULL;
  for (const PbeExample &Ex : Examples)
    Target = hashCombine(Target, valueHash(Ex.Output));

  std::vector<std::vector<TermPtr>> IntPool(MaxSize + 1);
  std::vector<std::vector<TermPtr>> BoolPool(MaxSize + 1);
  /// Seen signatures, each with the exact outputs it was first seen for.
  std::unordered_map<std::uint64_t, std::string> SeenInt, SeenBool;
  std::optional<TermPtr> &Found = Out.Found;

  auto MatchesTarget = [&](const TermPtr &T) {
    for (const PbeExample &Ex : Examples)
      if (!valueEquals(evalScalarTerm(T, Ex.Inputs), Ex.Output))
        return false;
    return true;
  };

  PollGate Gate;
  bool Expired = false;

  auto Consider = [&](TermPtr T, int Size) -> bool {
    if (Found || Expired)
      return true;
    if (Gate.tick(Budget)) {
      Expired = true;
      return true;
    }
    ++Out.Candidates;
    bool IsInt = T->getType()->isInt();
    std::uint64_t Sig;
    std::string Exact;
    try {
      Sig = treeWalkSignature(T, Examples, Exact);
    } catch (const UserError &) {
      return false;
    }
    auto [It, Fresh] = (IsInt ? SeenInt : SeenBool).emplace(Sig, Exact);
    if (!Fresh) {
      if (It->second != Exact)
        ADD_FAILURE() << "observational-equivalence hash collision: \""
                      << It->second << "\" vs \"" << Exact << "\" ("
                      << T->str() << ")";
      ++Out.Pruned;
      return false;
    }
    if (IsInt == WantInt && Sig == Target && MatchesTarget(T)) {
      Found = std::move(T);
      return true;
    }
    (IsInt ? IntPool : BoolPool)[Size].push_back(std::move(T));
    return false;
  };

  for (long long C : Config.Constants)
    if (Consider(mkIntLit(C), 1))
      return Out;
  for (bool B : {false, true})
    if (Consider(mkBoolLit(B), 1))
      return Out;
  for (const TermPtr &L : Leaves)
    if (L->getType()->isInt() || L->getType()->isBool())
      if (Consider(L, 1))
        return Out;

  auto ForPool = [&](std::vector<std::vector<TermPtr>> &Pool, int Size,
                     auto Fn) {
    for (const TermPtr &C : Pool[Size])
      if (Fn(C))
        return true;
    return false;
  };

  for (int Size = 2; Size <= MaxSize; ++Size) {
    if (Budget.expired())
      return Out;
    ForPool(IntPool, Size - 1, [&](const TermPtr &A) {
      return Consider(mkOp(OpKind::Neg, {A}), Size) ||
             (Config.AllowAbs && Consider(mkOp(OpKind::Abs, {A}), Size));
    });
    if (Found || Expired)
      return Out;
    ForPool(BoolPool, Size - 1,
            [&](const TermPtr &A) { return Consider(mkNot(A), Size); });
    if (Found || Expired)
      return Out;
    for (int LS = 1; LS + 1 < Size; ++LS) {
      int RS = Size - 1 - LS;
      ForPool(IntPool, LS, [&](const TermPtr &A) {
        return ForPool(IntPool, RS, [&](const TermPtr &B) {
          if (Consider(mkAdd(A, B), Size) || Consider(mkSub(A, B), Size))
            return true;
          if (Config.AllowMinMax &&
              (Consider(mkOp(OpKind::Min, {A, B}), Size) ||
               Consider(mkOp(OpKind::Max, {A, B}), Size)))
            return true;
          if (Config.AllowMul && Consider(mkOp(OpKind::Mul, {A, B}), Size))
            return true;
          bool Lit = B->getKind() == TermKind::IntLit;
          if (Config.AllowDiv && Lit && B->getIntValue() != 0 &&
              Consider(mkOp(OpKind::Div, {A, B}), Size))
            return true;
          if (Config.AllowMod && Lit && B->getIntValue() > 1 &&
              Consider(mkOp(OpKind::Mod, {A, B}), Size))
            return true;
          return Consider(mkOp(OpKind::Gt, {A, B}), Size) ||
                 Consider(mkOp(OpKind::Le, {A, B}), Size) ||
                 Consider(mkEq(A, B), Size);
        });
      });
      if (Found || Expired)
        return Out;
      ForPool(BoolPool, LS, [&](const TermPtr &A) {
        return ForPool(BoolPool, RS, [&](const TermPtr &B) {
          return Consider(mkAndList({A, B}), Size) ||
                 Consider(mkOrList({A, B}), Size);
        });
      });
      if (Found || Expired)
        return Out;
    }
    if (Config.AllowIte) {
      for (int CS = 1; CS + 2 < Size; ++CS) {
        for (int TS = 1; CS + TS + 1 < Size; ++TS) {
          int ES = Size - 1 - CS - TS;
          ForPool(BoolPool, CS, [&](const TermPtr &C) {
            return ForPool(IntPool, TS, [&](const TermPtr &A) {
              return ForPool(IntPool, ES, [&](const TermPtr &B) {
                return Consider(mkIte(C, A, B), Size);
              });
            });
          });
          if (Found || Expired)
            return Out;
        }
      }
    }
  }
  return Out;
}

/// Runs the enumerator under test, reading its counts from the perf
/// counters the way the benchmark does.
Outcome kernelSearch(const GrammarConfig &Config,
                     const std::vector<TermPtr> &Leaves, const TypePtr &OutTy,
                     const std::vector<PbeExample> &Examples, int MaxSize,
                     const Deadline &Budget) {
  PerfSnapshot PerfBefore = snapshotPerf();
  Outcome Out;
  Out.Found = Enumerator(Config, Leaves).synthesize(OutTy, Examples, MaxSize,
                                                     Budget);
  PerfSnapshot Perf = snapshotPerf().since(PerfBefore);
  Out.Candidates = Perf.get(PerfCounter::EnumCandidates);
  Out.Pruned = Perf.get(PerfCounter::EnumPruned);
  return Out;
}

void expectSameSearch(const GrammarConfig &Config,
                      const std::vector<TermPtr> &Leaves,
                      const TypePtr &OutTy,
                      const std::vector<PbeExample> &Examples, int MaxSize,
                      const Deadline &Budget = Deadline()) {
  Outcome Ref =
      referenceSearch(Config, Leaves, OutTy, Examples, MaxSize, Budget);
  Outcome Got = kernelSearch(Config, Leaves, OutTy, Examples, MaxSize, Budget);
  ASSERT_EQ(Ref.Found.has_value(), Got.Found.has_value())
      << "reference " << (Ref.Found ? (*Ref.Found)->str() : "none")
      << ", kernel " << (Got.Found ? (*Got.Found)->str() : "none");
  if (Ref.Found) {
    EXPECT_TRUE(termEquals(*Ref.Found, *Got.Found))
        << (*Ref.Found)->str() << " vs " << (*Got.Found)->str();
  }
  EXPECT_EQ(Ref.Candidates, Got.Candidates);
  EXPECT_EQ(Ref.Pruned, Got.Pruned);
}

GrammarConfig grammarWith(unsigned Flags) {
  GrammarConfig G;
  G.AllowAbs = Flags & 1;
  G.AllowMinMax = Flags & 2;
  G.AllowMul = Flags & 4;
  G.AllowDiv = Flags & 8;
  G.AllowMod = Flags & 16;
  G.AllowIte = Flags & 32;
  G.Constants = {0, 1, 2};
  return G;
}

/// Two Int leaves and one Bool leaf.
struct Leaves3 {
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  VarPtr P = freshVar("p", Type::boolTy());
  std::vector<TermPtr> terms() const {
    return {mkVar(A), mkVar(B), mkVar(P)};
  }
  Env env(long long X, long long Y, bool Z) const {
    return {{A->Id, Value::mkInt(X)},
            {B->Id, Value::mkInt(Y)},
            {P->Id, Value::mkBool(Z)}};
  }
};

/// Random tables over every grammar flag, each as a random target (searched
/// to exhaustion, as a rule) and as a planted one (found).
TEST(EnumeratorKernelTest, MatchesTreeWalkOnRandomTables) {
  std::mt19937_64 Rng(20221);
  std::uniform_int_distribution<long long> Val(-6, 6);
  Leaves3 L;
  for (unsigned Flags = 0; Flags < 64; ++Flags) {
    GrammarConfig G = grammarWith(Flags);
    int MaxSize = G.AllowIte ? 5 : 6;
    for (int Trial = 0; Trial < 2; ++Trial) {
      std::vector<PbeExample> IntEx, BoolEx, PlantedInt, PlantedBool;
      int N = 3 + static_cast<int>(Rng() % 5);
      for (int I = 0; I < N; ++I) {
        long long X = Val(Rng), Y = Val(Rng);
        bool Z = Rng() & 1;
        Env E = L.env(X, Y, Z);
        IntEx.push_back({E, Value::mkInt(Val(Rng))});
        BoolEx.push_back({E, Value::mkBool(Rng() & 1)});
        PlantedInt.push_back(
            {E, Value::mkInt(Trial ? (Z ? X - Y : 2) : (X > Y ? X : Y + 1))});
        PlantedBool.push_back({E, Value::mkBool(Trial ? (X <= Y) != Z
                                                       : X + 1 == Y)});
      }
      SCOPED_TRACE("flags " + std::to_string(Flags) + " trial " +
                   std::to_string(Trial));
      expectSameSearch(G, L.terms(), Type::intTy(), IntEx, MaxSize);
      expectSameSearch(G, L.terms(), Type::boolTy(), BoolEx, MaxSize);
      expectSameSearch(G, L.terms(), Type::intTy(), PlantedInt, MaxSize);
      expectSameSearch(G, L.terms(), Type::boolTy(), PlantedBool, MaxSize);
    }
  }
}

TEST(EnumeratorKernelTest, LeafUnboundInOneExample) {
  Leaves3 L;
  std::vector<PbeExample> Ex;
  for (long long X : {-2, 0, 3})
    Ex.push_back({L.env(X, X * 2, X > 0), Value::mkInt(X + 1)});
  Ex[1].Inputs.erase(L.B->Id); // `b` is unbound in the second example
  expectSameSearch(grammarWith(63), L.terms(), Type::intTy(), Ex, 5);
  Ex[1].Output = Value::mkInt(17); // unreachable: search to exhaustion
  expectSameSearch(grammarWith(63), L.terms(), Type::intTy(), Ex, 5);
}

TEST(EnumeratorKernelTest, TupleProjectionLeaves) {
  TypePtr Pair = Type::tupleTy({Type::intTy(), Type::boolTy()});
  VarPtr T = freshVar("t", Pair);
  std::vector<TermPtr> Leaves = {mkProj(mkVar(T), 0), mkProj(mkVar(T), 1)};
  std::vector<PbeExample> Ex;
  for (long long X : {-3, 1, 4, 5}) {
    Env E;
    E[T->Id] = Value::mkTuple({Value::mkInt(X), Value::mkBool(X % 2 == 0)});
    Ex.push_back({E, Value::mkInt(X % 2 == 0 ? X : -X)});
  }
  expectSameSearch(grammarWith(63), Leaves, Type::intTy(), Ex, 6);
}

TEST(EnumeratorKernelTest, ExpiredDeadline) {
  CancellationToken Stop = CancellationToken::create();
  Stop.requestCancel();
  Deadline Expired;
  Expired.setToken(Stop);
  Leaves3 L;
  std::vector<PbeExample> Ex;
  for (long long X : {1, 2, 3})
    Ex.push_back({L.env(X, -X, true), Value::mkInt(5 * X)});
  expectSameSearch(grammarWith(63), L.terms(), Type::intTy(), Ex, 6, Expired);
  // Enough atoms that the decimated poll fires inside size 1.
  GrammarConfig Many = grammarWith(63);
  for (long long C = 3; C < 1200; ++C)
    Many.addConstant(C);
  Ex.back().Output = Value::mkInt(-7);
  expectSameSearch(Many, L.terms(), Type::intTy(), Ex, 6, Expired);
}

TEST(EnumeratorKernelTest, NegativeConstantsUnderDivMod) {
  GrammarConfig G = grammarWith(8 | 16 | 32);
  G.Constants = {-3, -1, 0, 1, 2, 3};
  Leaves3 L;
  std::vector<PbeExample> Ex, Planted;
  for (long long X : {-7, -4, -1, 0, 2, 5, 9}) {
    Ex.push_back({L.env(X, 1 - X, X < 0), Value::mkInt(X * X % 5)});
    Planted.push_back(
        {L.env(X, 1 - X, X < 0), Value::mkInt(euclidDiv(X, -3) + 1)});
  }
  expectSameSearch(G, L.terms(), Type::intTy(), Ex, 5);
  expectSameSearch(G, L.terms(), Type::intTy(), Planted, 5);
}

TEST(EnumeratorKernelTest, OverflowingMul) {
  GrammarConfig G = grammarWith(1 | 2 | 4 | 8 | 16);
  Leaves3 L;
  std::vector<PbeExample> Ex;
  for (long long X : {3037000500LL, -3037000500LL, 1LL << 40,
                      -(1LL << 62), 9223372036854775807LL})
    Ex.push_back(
        {L.env(X, X - 1, X > 0), Value::mkInt(wrapMul(wrapMul(X, X), 2))});
  expectSameSearch(G, L.terms(), Type::intTy(), Ex, 5);
  expectSameSearch(G, L.terms(), Type::boolTy(), Ex, 4);
}

} // namespace
