//===- DeadlineTest.cpp - Cancellation and budget subsystem tests ---------===//
///
/// \file
/// Covers the cooperative cancellation subsystem end to end: token
/// semantics, the Z3 budget mapping (queryBudgetMs and the SmtQuery
/// short-circuit), and the termination contract — a diverging synthesis
/// run must come back as a Timeout verdict within a small multiple of its
/// deadline, with partial stats and without hanging any worker.
///
//===----------------------------------------------------------------------===//

#include "core/SynthesisTask.h"
#include "frontend/Elaborate.h"
#include "smt/Solver.h"
#include "support/Cancellation.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>

using namespace se2gis;

namespace {

// --- CancellationToken --------------------------------------------------===//

TEST(CancellationTokenTest, EmptyTokenIsInert) {
  CancellationToken T;
  EXPECT_FALSE(T.valid());
  EXPECT_FALSE(T.cancelRequested());
  T.requestCancel(); // no-op, must not crash
  EXPECT_FALSE(T.cancelRequested());
  EXPECT_EQ(T.reason(), CancelReason::None);
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken A = CancellationToken::create();
  CancellationToken B = A;
  EXPECT_TRUE(A.valid());
  EXPECT_FALSE(B.cancelRequested());
  A.requestCancel(CancelReason::DeadlineExceeded);
  EXPECT_TRUE(B.cancelRequested());
  EXPECT_EQ(B.reason(), CancelReason::DeadlineExceeded);
}

TEST(CancellationTokenTest, FirstReasonWins) {
  CancellationToken T = CancellationToken::create();
  T.requestCancel(CancelReason::Cancelled);
  T.requestCancel(CancelReason::DeadlineExceeded);
  EXPECT_EQ(T.reason(), CancelReason::Cancelled);
}

TEST(CancellationTokenTest, TokenExpiresDeadline) {
  CancellationToken T = CancellationToken::create();
  Deadline D; // unlimited
  D.setToken(T);
  EXPECT_FALSE(D.expired());
  T.requestCancel();
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingMs(), 0);
}

// --- The Z3 budget mapping ----------------------------------------------===//

TEST(DeadlineBudgetTest, UnlimitedDeadlineKeepsPerQueryBudget) {
  Deadline D;
  EXPECT_EQ(D.queryBudgetMs(600), 600);
}

TEST(DeadlineBudgetTest, RemainingTimeClampsPerQueryBudget) {
  Deadline D = Deadline::afterMs(200);
  int B = D.queryBudgetMs(60000);
  EXPECT_GT(B, 0);
  EXPECT_LE(B, 200);
}

TEST(DeadlineBudgetTest, ExpiredDeadlineYieldsZeroBudget) {
  Deadline D = Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(D.queryBudgetMs(600), 0);

  CancellationToken T = CancellationToken::create();
  Deadline D2;
  D2.setToken(T);
  T.requestCancel();
  EXPECT_EQ(D2.queryBudgetMs(600), 0);
}

TEST(DeadlineBudgetTest, NonPositiveBudgetIsUnlimited) {
  Deadline D = Deadline::afterMs(0);
  EXPECT_FALSE(D.expired());
  EXPECT_EQ(D.queryBudgetMs(600), 600);
}

TEST(DeadlineBudgetTest, SmtQueryShortCircuitsOnExpiredDeadline) {
  Deadline D = Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  VarPtr X = freshVar("x", Type::intTy());
  PerfSnapshot Before = snapshotPerf();
  SmtQuery Q;
  Q.setDeadline(D);
  Q.add(mkEq(mkVar(X), mkIntLit(1)));
  // The query must not even enter Z3: Unknown, accounted as budget expiry.
  EXPECT_EQ(Q.checkSat(60000), SmtResult::Unknown);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::SmtBudget), 1u);
  EXPECT_EQ(Delta.getNs(PerfTimer::Z3SolveNs), 0u);
}

TEST(DeadlineBudgetTest, QuickCheckHonoursBudget) {
  Deadline D = Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  VarPtr X = freshVar("x", Type::intTy());
  EXPECT_EQ(quickCheck({mkEq(mkVar(X), mkIntLit(1))}, 60000, nullptr, &D),
            SmtResult::Unknown);
}

// --- Termination contract -----------------------------------------------===//

/// Plain SEGIS on an unrealizable problem never concludes (it keeps
/// unrolling bounded terms), so it diverges until the deadline fires — the
/// canonical diverging run.
std::shared_ptr<const Problem> divergingProblem() {
  return std::make_shared<const Problem>(
      loadProblem(se2gis_tests::kMinUnsortedSrc));
}

TEST(DeadlineTest, DivergingRunTimesOutPromptly) {
  SolverConfig Config;
  Config.Algo.TimeoutMs = 1000;
  SynthesisTask Task(divergingProblem(), AlgorithmKind::SEGIS);

  Stopwatch Timer;
  Outcome R = Task.run(Config);
  double Elapsed = Timer.elapsedMs();

  EXPECT_EQ(R.V, Verdict::Timeout);
  // This problem's queries are small, so the overshoot is polling latency
  // plus one short query: well under 2x the deadline, with slack for
  // loaded machines.
  EXPECT_LT(Elapsed, 2.5 * Config.Algo.TimeoutMs) << "run overshot deadline";
  // Graceful degradation: the timed-out run still reports how far it got.
  EXPECT_GT(R.Stats.Refinements + R.Stats.Coarsenings, 0);
}

TEST(DeadlineTest, TokenCancelsRunningTask) {
  SolverConfig Config;
  Config.Algo.TimeoutMs = 0; // unlimited: only the token can stop the run
  Config.Algo.Token = CancellationToken::create();
  SynthesisTask Task(divergingProblem(), AlgorithmKind::SEGIS);

  Stopwatch Timer;
  std::thread Canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Config.Algo.Token.requestCancel();
  });
  Outcome R = Task.run(Config);
  Canceller.join();

  EXPECT_EQ(R.V, Verdict::Timeout);
  EXPECT_LT(Timer.elapsedMs(), 5000) << "cancellation did not propagate";
}

TEST(DeadlineTest, PollGateDecimatesChecks) {
  CancellationToken T = CancellationToken::create();
  Deadline D;
  D.setToken(T);
  T.requestCancel();
  PollGate Gate(4);
  int Hits = 0;
  for (int I = 0; I < 16; ++I)
    Hits += Gate.tick(D);
  EXPECT_EQ(Hits, 4); // expired deadline observed once per stride
}

} // namespace
