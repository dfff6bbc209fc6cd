//===- TraceTest.cpp - Span tracer, flight recorder and logger tests ------===//
///
/// \file
/// Covers the observability layer: TraceSpan recording into the flight
/// recorder (args, escaping, nesting), ring overwrite and ring hand-off
/// between threads, the Chrome trace_event JSON dump — including its shape
/// under a concurrent suite run — and the logger's level parsing and
/// thread-id assignment.
///
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "service/Json.h"
#include "support/Log.h"
#include "suite/Runner.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace se2gis;

namespace {

/// Each test starts from empty rings.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override { flightReset(); }
};

/// Dumps the flight recorder and parses it strictly.
JsonValue dumpJson() {
  std::ostringstream OS;
  flightWriteJson(OS);
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(OS.str(), V, Error)) << Error << "\n"
                                                    << OS.str();
  return V;
}

/// The dumped events named \p Name.
std::vector<JsonValue> eventsNamed(const JsonValue &Dump,
                                   const std::string &Name) {
  std::vector<JsonValue> Out;
  if (const JsonValue *Events = Dump.get("traceEvents"))
    for (const JsonValue &E : Events->items())
      if (E.getString("name") == Name)
        Out.push_back(E);
  return Out;
}

std::string argString(const JsonValue &E, const std::string &Key) {
  const JsonValue *Args = E.get("args");
  return Args ? Args->getString(Key) : "";
}

std::int64_t argInt(const JsonValue &E, const std::string &Key) {
  const JsonValue *Args = E.get("args");
  return Args ? Args->getInt(Key, -1) : -1;
}

TEST_F(TraceTest, RecordsSpanWithArgs) {
  {
    TraceSpan Span("unit.work", "test");
    Span.arg("name", "bench/a");
    Span.arg("round", static_cast<std::int64_t>(3));
    Span.arg("neg", static_cast<std::int64_t>(-42));
    Span.arg("big", static_cast<std::uint64_t>(18446744073709551615ull));
  }
  std::vector<JsonValue> Spans = eventsNamed(dumpJson(), "unit.work");
  ASSERT_EQ(Spans.size(), 1u);
  const JsonValue &S = Spans[0];
  EXPECT_EQ(S.getString("cat"), "test");
  EXPECT_EQ(S.getString("ph"), "X");
  EXPECT_EQ(argString(S, "name"), "bench/a");
  EXPECT_EQ(argInt(S, "round"), 3);
  EXPECT_EQ(argInt(S, "neg"), -42);
  const JsonValue *Big = S.get("args")->get("big");
  ASSERT_NE(Big, nullptr);
  EXPECT_TRUE(Big->isNumber());
  EXPECT_EQ(argInt(S, "rid"), 0);
}

TEST_F(TraceTest, ArgValuesAreEscaped) {
  {
    TraceSpan Span("escape", "te\"st");
    Span.arg("payload", std::string("a\"b\\c\nd"));
  }
  std::vector<JsonValue> Spans = eventsNamed(dumpJson(), "escape");
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].getString("cat"), "te\"st");
  // Control bytes render as spaces; quotes and backslashes survive.
  EXPECT_EQ(argString(Spans[0], "payload"), "a\"b\\c d");
}

TEST_F(TraceTest, ArgsThatDoNotFitAreCutOrDropped) {
  std::string Long(300, 'x');
  {
    TraceSpan Span("overfull", "test");
    Span.arg("first", static_cast<std::int64_t>(1));
    Span.arg("long", Long);
    Span.arg("after", static_cast<std::int64_t>(2)); // no room left
  }
  {
    TraceSpan Span("utf8", "test");
    Span.arg("pad", std::string(kFlightTextSize - 12, 'p'));
    Span.arg("u", "\xc3\xa9\xc3\xa9\xc3\xa9"); // éé... must not split
  }
  JsonValue Dump = dumpJson();
  std::vector<JsonValue> Spans = eventsNamed(Dump, "overfull");
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(argInt(Spans[0], "first"), 1);
  std::string Cut = argString(Spans[0], "long");
  EXPECT_FALSE(Cut.empty());
  EXPECT_LT(Cut.size(), Long.size());
  EXPECT_EQ(Cut, std::string(Cut.size(), 'x'));
  EXPECT_EQ(Spans[0].get("args")->get("after"), nullptr);
  std::vector<JsonValue> Utf8 = eventsNamed(Dump, "utf8");
  ASSERT_EQ(Utf8.size(), 1u);
  EXPECT_EQ(argString(Utf8[0], "u"), "\xc3\xa9");
}

TEST_F(TraceTest, NestedSpansAreContained) {
  {
    TraceSpan Outer("outer", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    { TraceSpan Inner("inner", "test"); }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JsonValue Dump = dumpJson();
  std::vector<JsonValue> Outer = eventsNamed(Dump, "outer");
  std::vector<JsonValue> Inner = eventsNamed(Dump, "inner");
  ASSERT_EQ(Outer.size(), 1u);
  ASSERT_EQ(Inner.size(), 1u);
  double OuterTs = Outer[0].getNumber("ts");
  double OuterDur = Outer[0].getNumber("dur");
  double InnerTs = Inner[0].getNumber("ts");
  double InnerDur = Inner[0].getNumber("dur");
  EXPECT_GE(OuterDur, 5000.0);
  EXPECT_LE(OuterTs, InnerTs);
  EXPECT_GE(OuterTs + OuterDur, InnerTs + InnerDur);
}

TEST_F(TraceTest, RingOverwritesOldestAndCounts) {
  const std::uint64_t N = kFlightRingCapacity + 100;
  std::uint64_t OverBefore = flightOverwrittenEvents();
  std::thread T([N] {
    for (std::uint64_t I = 0; I < N; ++I)
      flightRecord(FlightKind::Mark, "overflow.mark", I + 1, 0, I);
  });
  T.join();
  EXPECT_GE(flightOverwrittenEvents(), OverBefore + 100);
  JsonValue Dump = dumpJson();
  std::vector<JsonValue> Marks = eventsNamed(Dump, "overflow.mark");
  // The ring keeps exactly its newest kFlightRingCapacity events.
  ASSERT_EQ(Marks.size(), kFlightRingCapacity);
  EXPECT_EQ(argInt(Marks.front(), "a0"), 100);
  EXPECT_EQ(argInt(Marks.back(), "a0"), static_cast<std::int64_t>(N - 1));
  const JsonValue *Other = Dump.get("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_GE(Other->getInt("overwritten_events"), 100);
}

TEST_F(TraceTest, ExitedThreadsHandTheirRingsOn) {
  // Far more threads than the ring table holds, one after another: each
  // takes the ring the last one handed back on exit.
  for (std::uint64_t I = 0; I < 600; ++I) {
    std::thread T(
        [I] { flightRecord(FlightKind::Mark, "handoff.mark", I + 1, 0, I); });
    T.join();
  }
  std::vector<JsonValue> Marks = eventsNamed(dumpJson(), "handoff.mark");
  ASSERT_FALSE(Marks.empty());
  bool SawLast = false;
  for (const JsonValue &M : Marks)
    SawLast |= argInt(M, "a0") == 599;
  EXPECT_TRUE(SawLast);
}

TEST_F(TraceTest, ConcurrentThreadsGetSeparateTracks) {
  std::vector<std::thread> Ts;
  for (int T = 0; T < 4; ++T)
    Ts.emplace_back([] {
      for (int I = 0; I < 10; ++I)
        TraceSpan Span("worker.op", "test");
    });
  for (std::thread &T : Ts)
    T.join();
  JsonValue Dump = dumpJson();
  std::vector<JsonValue> Ops = eventsNamed(Dump, "worker.op");
  EXPECT_EQ(Ops.size(), 40u);
  std::set<std::int64_t> Tids;
  for (const JsonValue &E : Ops)
    Tids.insert(E.getInt("tid"));
  EXPECT_EQ(Tids.size(), 4u);
  // Every track the spans use is named by a thread_name record.
  std::set<std::int64_t> Named;
  for (const JsonValue &M : eventsNamed(Dump, "thread_name"))
    Named.insert(M.getInt("tid"));
  for (std::int64_t Tid : Tids)
    EXPECT_TRUE(Named.count(Tid)) << Tid;
}

TEST_F(TraceTest, SuiteRunProducesSpansPerCategory) {
  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 20000;
  Opts.Algorithms = {AlgorithmKind::SE2GIS};
  Opts.Config.Filter = "sortedlist/m"; // min, max, min_max: fast sub-suite
  Opts.Config.Verbose = false;
  Opts.Config.Jobs = 4;
  std::vector<SuiteRecord> Records = runSuite(Opts);
  ASSERT_GE(Records.size(), 2u);

  JsonValue Dump = dumpJson();
  // The instrumented stack must have produced at least one span in each of
  // the core categories, across multiple benchmarks and SMT queries.
  std::vector<JsonValue> Runs = eventsNamed(Dump, "suite.run");
  EXPECT_GE(Runs.size(), Records.size());
  for (const JsonValue &R : Runs) {
    EXPECT_EQ(R.getString("cat"), "suite");
    EXPECT_FALSE(argString(R, "benchmark").empty());
    EXPECT_FALSE(argString(R, "verdict").empty());
  }
  std::vector<JsonValue> Rounds = eventsNamed(Dump, "se2gis.round");
  ASSERT_GE(Rounds.size(), 1u);
  EXPECT_EQ(Rounds[0].getString("cat"), "round");
  std::vector<JsonValue> Checks = eventsNamed(Dump, "smt.checkSat");
  ASSERT_GE(Checks.size(), 1u);
  EXPECT_EQ(Checks[0].getString("cat"), "smt");
  EXPECT_FALSE(argString(Checks[0], "verdict").empty());
}

} // namespace

//===- Logger -------------------------------------------------------------===//

namespace {

TEST(LogTest, ParsesLevels) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
  EXPECT_EQ(parseLogLevel("INFO"), LogLevel::Info);
  EXPECT_EQ(parseLogLevel("Warn"), LogLevel::Warn);
  EXPECT_EQ(parseLogLevel("warning"), LogLevel::Warn);
  EXPECT_EQ(parseLogLevel("error"), LogLevel::Error);
  EXPECT_FALSE(parseLogLevel("verbose").has_value());
  EXPECT_FALSE(parseLogLevel("").has_value());
}

TEST(LogTest, LevelGatesEnablement) {
  LogSettings S;
  S.Level = LogLevel::Warn;
  configureLogging(S);
  EXPECT_TRUE(logEnabled(LogLevel::Error));
  EXPECT_TRUE(logEnabled(LogLevel::Warn));
  EXPECT_FALSE(logEnabled(LogLevel::Info));
  EXPECT_FALSE(logEnabled(LogLevel::Debug));
  S.Level = LogLevel::Info; // restore the default for other tests
  configureLogging(S);
  EXPECT_TRUE(logEnabled(LogLevel::Info));
}

TEST(LogTest, ThreadIdsAreCompactAndStable) {
  unsigned Mine = currentThreadId();
  EXPECT_GE(Mine, 1u);
  EXPECT_EQ(currentThreadId(), Mine);
  unsigned Other = 0;
  std::thread T([&Other] { Other = currentThreadId(); });
  T.join();
  EXPECT_NE(Other, 0u);
  EXPECT_NE(Other, Mine);
}

} // namespace
