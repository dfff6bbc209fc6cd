//===- PortfolioTest.cpp - Portfolio mode and cancellation tests ----------===//

#include "core/Portfolio.h"

#include "suite/Benchmarks.h"
#include "support/Stopwatch.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline D;
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingMs(), 1000000);
}

TEST(PortfolioTest, SolvesRealizableBenchmark) {
  Problem P = loadBenchmark(*findBenchmark("list/sum"));
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runPortfolio(P, Opts);
  EXPECT_EQ(R.V, Verdict::Realizable) << R.Detail;
  EXPECT_FALSE(R.Solution.empty());
}

TEST(PortfolioTest, DetectsUnrealizableBenchmark) {
  Problem P = loadBenchmark(*findBenchmark("unreal/min_no_invariant"));
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runPortfolio(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
}

TEST(PortfolioTest, WinsWhereOnlyOneMemberIsFast) {
  // sortedlist/second_smallest needs SE2GIS's invariant inference under
  // partial bounding but is solved nearly instantly by SEGIS+UC's full
  // bounding (paper: 0.867 s vs 0.028 s); the portfolio takes the fast
  // path either way.
  Problem P = loadBenchmark(*findBenchmark("sortedlist/second_smallest"));
  AlgoOptions Opts;
  Opts.TimeoutMs = 30000;
  Outcome R = runPortfolio(P, Opts);
  EXPECT_EQ(R.V, Verdict::Realizable) << R.Detail;
}

TEST(AblationTest, FlagsChangeBehaviourButNotSoundness) {
  // With splitting disabled the ite-skeleton benchmark loses its witness
  // path; whatever the outcome, it must never be a wrong verdict.
  Problem P = loadBenchmark(*findBenchmark("sortedlist/count_lt"));
  AlgoOptions Opts;
  Opts.TimeoutMs = 6000;
  Opts.DisableIteSplitting = true;
  Outcome R = runSE2GIS(P, Opts);
  EXPECT_NE(R.V, Verdict::Unrealizable); // realizable problem: never lie
}

} // namespace
