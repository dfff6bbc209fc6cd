//===- SmtSessionTest.cpp - Incremental SMT session layer tests -----------===//
///
/// \file
/// Covers the session layer of DESIGN.md "Incremental SMT model": verdict
/// parity between incremental sessions and fresh contexts, push/pop scope
/// semantics (including frame-scoped model readback), per-thread reuse,
/// the busy/nested fallback, budget-expiry behavior, seed-change
/// invalidation, per-check budgets on a reused session, and run settings
/// that stay on the run's thread. Everything here uses only the public
/// SmtQuery surface (plus runSE2GIS for the run settings) — the session is
/// observed through threadSmtSessionInfo and perf counters.
///
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "cache/CacheConfig.h"
#include "core/Algorithms.h"
#include "suite/Benchmarks.h"
#include "support/PerfCounters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

using namespace se2gis;

namespace {

/// Pins this thread's incremental setting for one test and restores a
/// clean slate around it: sessions dropped, memo cache off (so parity
/// checks exercise Z3, not the cache), default seed and mode on exit.
struct IncrementalGuard {
  explicit IncrementalGuard(bool Enabled) {
    configureCache(CacheSettings{}); // Off: no memo-cache masking
    resetThreadSmtSession(/*Seed=*/0, Enabled);
  }
  ~IncrementalGuard() { resetThreadSmtSession(); }
};

/// One verdict + model observation, comparable across solver modes.
struct Observation {
  SmtResult R = SmtResult::Unknown;
  std::vector<unsigned> VarIds;   // in assignment order
  std::vector<long long> IntVals; // ints only, in assignment order
};

Observation observe(const std::vector<TermPtr> &Hard,
                    const std::vector<TermPtr> &Soft) {
  SmtQuery Q;
  for (const TermPtr &A : Hard)
    Q.add(A);
  for (const TermPtr &S : Soft)
    Q.addSoft(S);
  SmtModel M;
  Observation Obs;
  Obs.R = Q.checkSat(2000, &M);
  for (const auto &[V, Val] : M.assignments()) {
    Obs.VarIds.push_back(V->Id);
    if (Val->isInt())
      Obs.IntVals.push_back(Val->getInt());
  }
  return Obs;
}

TEST(SmtSessionTest, VerdictParityWithFreshContexts) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());

  struct Case {
    std::vector<TermPtr> Hard;
    std::vector<TermPtr> Soft;
  };
  std::vector<Case> Cases;
  // Sat with two variables (exercises model readback order).
  Cases.push_back({{mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)}),
                    mkOp(OpKind::Lt, {mkVar(Y), mkVar(X)})},
                   {}});
  // Unsat.
  Cases.push_back({{mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)}),
                    mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})},
                   {}});
  // Sat with a soft anchor (exercises the MaxSAT-lite path): x must be 5.
  Cases.push_back({{mkOp(OpKind::Gt, {mkVar(X), mkIntLit(0)})},
                   {mkEq(mkVar(X), mkIntLit(5))}});

  std::vector<Observation> Fresh, Incremental, Seeded;
  {
    IncrementalGuard G(false);
    for (const Case &C : Cases)
      Fresh.push_back(observe(C.Hard, C.Soft));
  }
  {
    IncrementalGuard G(true);
    for (const Case &C : Cases)
      Incremental.push_back(observe(C.Hard, C.Soft));
  }
  {
    // A seeded session: the seed is applied once, at session construction.
    IncrementalGuard G(true);
    resetThreadSmtSession(12345);
    for (const Case &C : Cases)
      Seeded.push_back(observe(C.Hard, C.Soft));
  }

  ASSERT_EQ(Fresh.size(), Incremental.size());
  ASSERT_EQ(Fresh.size(), Seeded.size());
  for (size_t I = 0; I < Fresh.size(); ++I) {
    EXPECT_EQ(Fresh[I].R, Incremental[I].R) << "case " << I;
    EXPECT_EQ(Fresh[I].R, Seeded[I].R) << "case " << I;
    // Same variables bound, in the same (ascending-Id) order.
    EXPECT_EQ(Fresh[I].VarIds, Incremental[I].VarIds) << "case " << I;
    EXPECT_EQ(Fresh[I].VarIds, Seeded[I].VarIds) << "case " << I;
    EXPECT_TRUE(std::is_sorted(Incremental[I].VarIds.begin(),
                               Incremental[I].VarIds.end()))
        << "case " << I;
  }
  // Semantic checks on the incremental models (values may legitimately
  // differ between modes; the constraints may not).
  ASSERT_EQ(Incremental[0].IntVals.size(), 2u);
  EXPECT_GT(Incremental[0].IntVals[0], 3);                        // x > 3
  EXPECT_LT(Incremental[0].IntVals[1], Incremental[0].IntVals[0]); // y < x
  ASSERT_EQ(Incremental[2].IntVals.size(), 1u);
  EXPECT_EQ(Incremental[2].IntVals[0], 5); // soft anchor honored
}

TEST(SmtSessionTest, PushPopScopes) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());

  SmtQuery Q;
  Q.add(mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)}));
  EXPECT_EQ(Q.checkSat(2000), SmtResult::Sat);

  // A contradicting frame flips the verdict; popping it restores Sat.
  Q.push();
  Q.add(mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)}));
  EXPECT_EQ(Q.checkSat(2000), SmtResult::Unsat);
  Q.pop();
  SmtModel M1;
  EXPECT_EQ(Q.checkSat(2000, &M1), SmtResult::Sat);
  ASSERT_NE(M1.lookup(X->Id), nullptr);
  EXPECT_GT(M1.lookup(X->Id)->getInt(), 3);

  // A variable first interned inside a frame vanishes from readback after
  // the pop — its stale z3 handle must not leak into later models.
  Q.push();
  Q.add(mkOp(OpKind::Lt, {mkVar(Y), mkVar(X)}));
  SmtModel M2;
  EXPECT_EQ(Q.checkSat(2000, &M2), SmtResult::Sat);
  EXPECT_NE(M2.lookup(Y->Id), nullptr);
  Q.pop();
  SmtModel M3;
  EXPECT_EQ(Q.checkSat(2000, &M3), SmtResult::Sat);
  EXPECT_EQ(M3.lookup(Y->Id), nullptr);
  EXPECT_NE(M3.lookup(X->Id), nullptr);
}

TEST(SmtSessionTest, PerThreadReuseAcrossConsecutiveQueries) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});

  PerfSnapshot Before = snapshotPerf();
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  PerfSnapshot Delta = snapshotPerf().since(Before);

  // The first query may create the session (fresh); the other two reuse it.
  EXPECT_GE(Delta.get(PerfCounter::SmtSessionReuse), 2u);
  // Every query pushed a base frame and popped it on destruction.
  EXPECT_GE(Delta.get(PerfCounter::SmtPush), 3u);
  EXPECT_EQ(Delta.get(PerfCounter::SmtPush), Delta.get(PerfCounter::SmtPop));

  SmtSessionInfo Info = threadSmtSessionInfo();
  EXPECT_TRUE(Info.Live);
  EXPECT_FALSE(Info.Busy);
  EXPECT_GE(Info.QueriesServed, 3u);
  EXPECT_EQ(Info.Depth, 0u);
}

TEST(SmtSessionTest, NestedQueryFallsBackToFreshContext) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());

  SmtQuery Outer;
  Outer.add(mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)}));
  EXPECT_EQ(Outer.checkSat(2000), SmtResult::Sat);
  EXPECT_TRUE(threadSmtSessionInfo().Busy);

  // The inner query contradicts the outer's assertion. On a private
  // fallback context it is Sat; leaking the outer scope would make it
  // Unsat.
  PerfSnapshot Before = snapshotPerf();
  EXPECT_EQ(quickCheck({mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})}, 2000),
            SmtResult::Sat);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::SmtSessionFresh), 1u);

  // The outer query is unaffected by the nested one.
  EXPECT_EQ(Outer.checkSat(2000), SmtResult::Sat);
}

TEST(SmtSessionTest, BudgetExpiryFallsBackWithoutPoisoningVerdicts) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});

  // Warm the session first so the expiry happens on a live one.
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);

  Deadline Tight = Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(Tight.expired());
  PerfSnapshot Before = snapshotPerf();
  EXPECT_EQ(quickCheck({A}, 2000, nullptr, &Tight), SmtResult::Unknown);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::SmtBudget), 1u);

  // A fresh-budget query right after gives the correct verdict.
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  EXPECT_EQ(quickCheck({A, mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})}, 2000),
            SmtResult::Unsat);
}

/// Pigeonhole over integers: \p Holes + 1 values in [0, Holes) that are
/// pairwise distinct. Unsat, and exponentially hard for the SMT core, so it
/// consumes resource units steadily (unlike nonlinear queries, where Z3
/// 4.8.12 can run for seconds without checking its rlimit).
std::vector<TermPtr> pigeonhole(int Holes) {
  std::vector<TermPtr> Out;
  std::vector<VarPtr> P;
  for (int I = 0; I <= Holes; ++I) {
    P.push_back(freshVar("p", Type::intTy()));
    Out.push_back(mkOp(OpKind::Ge, {mkVar(P.back()), mkIntLit(0)}));
    Out.push_back(mkOp(OpKind::Lt, {mkVar(P.back()), mkIntLit(Holes)}));
  }
  for (int I = 0; I <= Holes; ++I)
    for (int J = I + 1; J <= Holes; ++J)
      Out.push_back(mkOp(OpKind::Ne, {mkVar(P[I]), mkVar(P[J])}));
  return Out;
}

TEST(SmtSessionTest, PerQueryRlimitBindsOnReusedSession) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Gt3 = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  std::vector<TermPtr> Easy = {Gt3, mkOp(OpKind::Lt, {mkVar(Y), mkVar(X)})};
  std::vector<TermPtr> EasyUnsat = {Gt3,
                                    mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})};

  EXPECT_EQ(quickCheck(Easy, 2000), SmtResult::Sat);
  std::uint64_t Warm = threadSmtSessionInfo().Generation;

  // A tiny budget binds on the warm session: the query runs out of
  // resource units instead of finishing the search.
  {
    SmtQuery Q;
    for (const TermPtr &A : pigeonhole(6))
      Q.add(A);
    SmtSessionInfo Info = threadSmtSessionInfo();
    EXPECT_EQ(Info.Generation, Warm);
    EXPECT_GE(Info.QueriesServed, 2u);
    EXPECT_EQ(Q.checkSat(1), SmtResult::Unknown);
  }

  // The Unknown retired that session; its replacement serves every query
  // below, each under its own budget.
  EXPECT_EQ(quickCheck(Easy, 300), SmtResult::Sat);
  std::uint64_t Replacement = threadSmtSessionInfo().Generation;
  EXPECT_GT(Replacement, Warm);
  for (int Ms : {300, 1000, 300}) {
    EXPECT_EQ(quickCheck(Easy, Ms), SmtResult::Sat) << Ms << " ms";
    EXPECT_EQ(quickCheck(EasyUnsat, Ms), SmtResult::Unsat) << Ms << " ms";
  }
  // A small budget does not stick to the context: the hard query, right
  // after a 1-ms check, gets the full slice it asks for.
  EXPECT_EQ(quickCheck(Easy, 1), SmtResult::Sat);
  EXPECT_EQ(quickCheck(pigeonhole(6), 1000), SmtResult::Unsat);
  EXPECT_EQ(threadSmtSessionInfo().Generation, Replacement);
}

TEST(SmtSessionTest, ResetWhileBusyRecyclesAtNextAcquisition) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});

  {
    SmtQuery Q;
    Q.add(A);
    EXPECT_EQ(Q.checkSat(2000), SmtResult::Sat);
    // The session is busy: the reset must defer, not pull the solver out
    // from under the live query.
    resetThreadSmtSession();
    EXPECT_TRUE(threadSmtSessionInfo().Live);
    EXPECT_EQ(Q.checkSat(2000), SmtResult::Sat);
  }

  std::uint64_t GenBefore = threadSmtSessionInfo().Generation;
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  SmtSessionInfo Info = threadSmtSessionInfo();
  EXPECT_GT(Info.Generation, GenBefore); // replaced, not reused
  EXPECT_EQ(Info.QueriesServed, 1u);
}

TEST(SmtSessionTest, SeedChangeInvalidatesSession) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});

  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  std::uint64_t GenBefore = threadSmtSessionInfo().Generation;

  resetThreadSmtSession(12345);
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  SmtSessionInfo Info = threadSmtSessionInfo();
  EXPECT_GT(Info.Generation, GenBefore);
  EXPECT_EQ(Info.QueriesServed, 1u); // freshly seeded session
  EXPECT_EQ(Info.Seed, 12345u);
}

TEST(SmtSessionTest, RunSettingsStayOnTheirThread) {
  IncrementalGuard G(true);
  Problem P = loadBenchmark(*findBenchmark("list/sum"));
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;

  // A run with incremental sessions off leaves them on for other threads.
  Opts.SmtIncremental = false;
  EXPECT_EQ(runSE2GIS(P, Opts).V, Verdict::Realizable);
  bool OtherLive = false;
  std::thread Other([&] {
    EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
    OtherLive = threadSmtSessionInfo().Live;
  });
  Other.join();
  EXPECT_TRUE(OtherLive);

  // A run keeps its settings on its thread until the next run installs
  // its own: a Seed=0 run after a seeded one solves unseeded.
  Opts.SmtIncremental = true;
  Opts.Seed = 12345;
  EXPECT_EQ(runSE2GIS(P, Opts).V, Verdict::Realizable);
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  EXPECT_EQ(threadSmtSessionInfo().Seed, 12345u);
  Opts.Seed = 0;
  EXPECT_EQ(runSE2GIS(P, Opts).V, Verdict::Realizable);
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  SmtSessionInfo Info = threadSmtSessionInfo();
  EXPECT_TRUE(Info.Live);
  EXPECT_EQ(Info.Seed, 0u);
}

TEST(SmtSessionTest, UnknownSignatureChangeAcrossFramesAndQueries) {
  IncrementalGuard G(true);

  // Same unknown name with different arities in consecutive queries on the
  // shared session: the per-query interning must not leak between them.
  EXPECT_EQ(quickCheck({mkEq(mkUnknown("u", Type::intTy(), {mkIntLit(1)}),
                             mkIntLit(2))},
                       2000),
            SmtResult::Sat);
  EXPECT_EQ(
      quickCheck({mkEq(mkUnknown("u", Type::intTy(), {mkIntLit(1), mkIntLit(2)}),
                       mkIntLit(3))},
                 2000),
      SmtResult::Sat);

  // And across frames of one query: a 1-ary decl interned in a popped frame
  // must not be applied to the 2-ary occurrence asserted afterwards (a
  // stale decl would make Z3 throw, which is process-fatal).
  SmtQuery Q;
  Q.push();
  Q.add(mkEq(mkUnknown("v", Type::intTy(), {mkIntLit(1)}), mkIntLit(2)));
  EXPECT_EQ(Q.checkSat(2000), SmtResult::Sat);
  Q.pop();
  Q.add(mkEq(mkUnknown("v", Type::intTy(), {mkIntLit(1), mkIntLit(2)}),
             mkIntLit(3)));
  EXPECT_EQ(Q.checkSat(2000), SmtResult::Sat);
}

TEST(SmtSessionTest, SessionScopeKeepsSessionAndDisablingRestoresFresh) {
  IncrementalGuard G(true);
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});

  {
    SmtSessionScope Scope;
    EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
    EXPECT_TRUE(threadSmtSessionInfo().Live);
  }

  // With the layer off, queries take the private-context path and never
  // touch the thread slot.
  resetThreadSmtSession(/*Seed=*/0, /*Incremental=*/false);
  PerfSnapshot Before = snapshotPerf();
  EXPECT_EQ(quickCheck({A}, 2000), SmtResult::Sat);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::SmtSessionFresh), 1u);
  EXPECT_EQ(Delta.get(PerfCounter::SmtSessionReuse), 0u);
  EXPECT_FALSE(threadSmtSessionInfo().Live);
}

} // namespace
