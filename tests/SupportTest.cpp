//===- SupportTest.cpp - Support-library tests -----------------------------===//

#include "support/Stopwatch.h"
#include "support/TableWriter.h"

#include <gtest/gtest.h>
#include <thread>

using namespace se2gis;

namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch W;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(W.elapsedMs(), 15.0);
  W.reset();
  EXPECT_LT(W.elapsedMs(), 15.0);
}

TEST(DeadlineTest, ExpiresAfterBudget) {
  Deadline D = Deadline::afterMs(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingMs(), 0);
}

TEST(TableWriterTest, AlignsColumns) {
  TableWriter T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer-name", "22"});
  std::string Out = T.renderText();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
  EXPECT_NE(Out.find("longer-name"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableWriterTest, CsvRendering) {
  TableWriter T({"a", "b"});
  T.addRow({"1", "2"});
  EXPECT_EQ(T.renderCsv(), "a,b\n1,2\n");
}

TEST(TableWriterTest, FormatSeconds) {
  EXPECT_EQ(formatSeconds(1234.5), "1.234");
  EXPECT_EQ(formatSeconds(-1), "-");
  EXPECT_EQ(formatSeconds(0), "0.000");
}

} // namespace

//===- Perf counters, histograms, and phase attribution -------------------===//

#include "support/PerfCounters.h"

#include <sstream>
#include <vector>

namespace {

TEST(PerfCountersTest, SnapshotSinceDeltas) {
  PerfSnapshot Before = snapshotPerf();
  perfAdd(PerfCounter::SmtQueries, 3);
  perfAdd(PerfCounter::EnumCandidates, 7);
  perfAddTimeNs(PerfTimer::Z3SolveNs, 2'000'000); // 2 ms
  perfRecordNs(PerfHistogram::SmtCheckNs, 1'000'000);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::SmtQueries), 3u);
  EXPECT_GE(Delta.get(PerfCounter::EnumCandidates), 7u);
  EXPECT_GE(Delta.getMs(PerfTimer::Z3SolveNs), 2.0);
  EXPECT_GE(Delta.hist(PerfHistogram::SmtCheckNs).Count, 1u);
}

TEST(CountersTest, SnapshotDeltas) {
  PerfSnapshot Before = snapshotPerf();
  perfAdd(PerfCounter::WitnessQueries);
  perfAdd(PerfCounter::BoundedInstantiations, 5);
  perfAdd(PerfCounter::SymbolicUnfoldings, 2);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::WitnessQueries), 1u);
  EXPECT_GE(Delta.get(PerfCounter::BoundedInstantiations), 5u);
  EXPECT_GE(Delta.get(PerfCounter::SymbolicUnfoldings), 2u);
  EXPECT_STREQ(perfCounterName(PerfCounter::WitnessQueries), "witness_queries");
  EXPECT_STREQ(perfCounterName(PerfCounter::BoundedInstantiations),
               "bounded_instantiations");
  EXPECT_STREQ(perfCounterName(PerfCounter::SymbolicUnfoldings),
               "symbolic_unfoldings");
}

TEST(CountersTest, Rendering) {
  PerfSnapshot S;
  EXPECT_EQ(S.str(), "");
  S.Counters[static_cast<size_t>(PerfCounter::SymbolicUnfoldings)] = 12;
  S.Counters[static_cast<size_t>(PerfCounter::WitnessQueries)] = 2;
  EXPECT_EQ(S.str(), "witness_queries=2 symbolic_unfoldings=12");
}

TEST(PerfCountersTest, StrMentionsKeyFields) {
  PerfSnapshot S;
  S.Counters[static_cast<size_t>(PerfCounter::SmtQueries)] = 4;
  S.Counters[static_cast<size_t>(PerfCounter::SmtSat)] = 3;
  S.TimersNs[static_cast<size_t>(PerfTimer::Z3SolveNs)] = 1'500'000;
  S.Hists[static_cast<size_t>(PerfHistogram::SmtCheckNs)].Count = 1;
  // The nonzero counters by perf-JSON key, in table order; timers and
  // histograms stay out.
  EXPECT_EQ(S.str(), "smt_queries=4 smt_sat=3");
}

TEST(PerfCountersTest, JsonHasQuantileKeys) {
  std::ostringstream OS;
  writePerfJson(OS, PerfSnapshot{});
  std::string J = OS.str();
  for (const char *Key :
       {"\"smt_check_p50_ms\"", "\"smt_check_p90_ms\"", "\"smt_check_p99_ms\"",
        "\"smt_check_max_ms\"", "\"enum_round_p50_ms\"",
        "\"enum_round_p99_ms\"", "\"cache_probe_p50_ms\"",
        "\"smt_check_count\""})
    EXPECT_NE(J.find(Key), std::string::npos) << Key;
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 = {0}; bucket b = [2^(b-1), 2^b).
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1023), 10u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(1024), 11u);
  EXPECT_EQ(LatencyHistogram::bucketIndexFor(UINT64_MAX), 63u);
  for (unsigned B = 1; B < 63; ++B) {
    EXPECT_EQ(LatencyHistogram::bucketIndexFor(
                  HistogramSnapshot::lowerBoundNs(B)),
              B);
    EXPECT_EQ(LatencyHistogram::bucketIndexFor(
                  HistogramSnapshot::upperBoundNs(B) - 1),
              B);
  }
}

TEST(HistogramTest, QuantilesAreOrderedAndBounded) {
  LatencyHistogram H;
  for (std::uint64_t V = 1; V <= 1000; ++V)
    H.recordNs(V * 1000); // 1us .. 1ms
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_EQ(S.MaxNs, 1'000'000u);
  double P50 = S.quantileNs(0.5), P90 = S.quantileNs(0.9),
         P99 = S.quantileNs(0.99);
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  EXPECT_LE(P99, static_cast<double>(S.MaxNs));
  EXPECT_GT(P50, 0.0);
  // The p50 of a uniform 1us..1ms series must land well inside the range.
  EXPECT_GE(P50, 1000.0);
  EXPECT_EQ(HistogramSnapshot{}.quantileNs(0.5), 0.0);
}

TEST(HistogramTest, SinceSubtractsWindows) {
  LatencyHistogram H;
  H.recordNs(100);
  HistogramSnapshot Before = H.snapshot();
  H.recordNs(200);
  H.recordNs(300);
  HistogramSnapshot D = H.snapshot().since(Before);
  EXPECT_EQ(D.Count, 2u);
  EXPECT_EQ(D.SumNs, 500u);
  // Windowed max is an upper-bound approximation, never below the largest
  // sample of the window and never above the lifetime max.
  EXPECT_GE(D.MaxNs, 300u);
  EXPECT_LE(D.MaxNs, H.snapshot().MaxNs);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  LatencyHistogram H;
  constexpr int Threads = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&H] {
      for (int I = 1; I <= PerThread; ++I)
        H.recordNs(static_cast<std::uint64_t>(I));
    });
  for (std::thread &T : Ts)
    T.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, static_cast<std::uint64_t>(Threads) * PerThread);
  std::uint64_t BucketSum = 0;
  for (unsigned B = 0; B < HistogramSnapshot::NumBuckets; ++B)
    BucketSum += S.Buckets[B];
  EXPECT_EQ(BucketSum, S.Count);
  EXPECT_EQ(S.MaxNs, static_cast<std::uint64_t>(PerThread));
}

TEST(PhaseScopeTest, ExclusiveAttribution) {
  PhaseSnapshot Before = phaseSnapshot();
  {
    PhaseScope Outer(Phase::Induction);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      // The nested scope pauses the parent: its time must not double-count.
      PhaseScope Inner(Phase::Smt);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  PhaseSnapshot D = phaseSnapshot().since(Before);
  EXPECT_GE(D.getMs(Phase::Induction), 10.0);
  EXPECT_GE(D.getMs(Phase::Smt), 10.0);
  // Generous sanity bound: exclusive attribution keeps each phase near its
  // own sleep, far from the 40 ms total.
  EXPECT_LT(D.getMs(Phase::Induction), 35.0);
  EXPECT_LT(D.getMs(Phase::Smt), 35.0);
  EXPECT_EQ(D.getNs(Phase::Eval), 0u);
}

TEST(PhaseScopeTest, PerThreadIsolation) {
  PhaseSnapshot MainBefore = phaseSnapshot();
  std::thread T([] {
    PhaseScope S(Phase::Enum);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  });
  T.join();
  // The worker's phase time stays on the worker's thread.
  PhaseSnapshot D = phaseSnapshot().since(MainBefore);
  EXPECT_EQ(D.getNs(Phase::Enum), 0u);
}

} // namespace
