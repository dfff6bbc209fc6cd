//===- MetricsTest.cpp - Exposition, flight recorder, progress ------------===//
///
/// \file
/// Tests for the operability layer: the Prometheus text renderer (header
/// uniqueness, label escaping, cumulative histogram buckets, counter
/// monotonicity across scrapes), the always-on flight recorder (ring
/// overwrite accounting, JSON validity, reset), the mutex-guarded progress
/// board, and the service-level wiring — the `metrics` protocol method,
/// request-id echo on every response, gauge consistency with `stats`, and
/// the flight dump a Timeout job leaves behind.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Json.h"
#include "service/Server.h"
#include "support/FlightRecorder.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/PerfCounters.h"
#include "support/Progress.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/stat.h>

using namespace se2gis;

namespace {

/// Finds the sample line for \p Name (exact family, optionally labeled)
/// and returns its value, or -1 when absent.
double metricValue(const std::string &Body, const std::string &Name) {
  std::istringstream In(Body);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Line.rfind(Name, 0) != 0)
      continue;
    char Next = Line.size() > Name.size() ? Line[Name.size()] : '\0';
    if (Next != ' ' && Next != '{')
      continue;
    std::size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    return std::stod(Line.substr(Sp + 1));
  }
  return -1;
}

/// Sums every sample of a labeled family (e.g. the four
/// se2gis_jobs_done_total{verdict=...} lines).
double metricFamilySum(const std::string &Body, const std::string &Family) {
  std::istringstream In(Body);
  std::string Line;
  double Sum = 0;
  bool Seen = false;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    if (Line.rfind(Family + "{", 0) != 0 && Line.rfind(Family + " ", 0) != 0)
      continue;
    std::size_t Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    Sum += std::stod(Line.substr(Sp + 1));
    Seen = true;
  }
  return Seen ? Sum : -1;
}

/// Collects the `_bucket{le="..."}` values of \p Family in emission order.
std::vector<double> bucketValues(const std::string &Body,
                                 const std::string &Family) {
  std::vector<double> Out;
  std::istringstream In(Body);
  std::string Line;
  const std::string Prefix = Family + "_bucket{";
  while (std::getline(In, Line)) {
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    std::size_t Sp = Line.rfind(' ');
    EXPECT_NE(Sp, std::string::npos) << Line;
    if (Sp != std::string::npos)
      Out.push_back(std::stod(Line.substr(Sp + 1)));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The renderer
//===----------------------------------------------------------------------===//

TEST(PrometheusWriter, ValueFormatting) {
  EXPECT_EQ(promFormatValue(0), "0");
  EXPECT_EQ(promFormatValue(42), "42");
  EXPECT_EQ(promFormatValue(1e12), "1000000000000");
  // Fractions keep enough digits to round-trip a latency in seconds.
  EXPECT_EQ(promFormatValue(0.5), "0.5");
  EXPECT_NE(promFormatValue(1.048576e-3).find("0.001048576"),
            std::string::npos);
}

TEST(PrometheusWriter, LabelEscaping) {
  EXPECT_EQ(promEscapeLabel("plain"), "plain");
  EXPECT_EQ(promEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(promEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(promEscapeLabel("a\nb"), "a\\nb");

  PrometheusWriter W;
  W.counter("x_total", "help", 1, {{"path", "a\"b\\c\nd"}});
  EXPECT_NE(W.str().find("x_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << W.str();
}

TEST(PrometheusWriter, HeaderOncePerFamily) {
  PrometheusWriter W;
  W.counter("jobs_total", "Jobs.", 3, {{"verdict", "realizable"}});
  W.counter("jobs_total", "Jobs.", 1, {{"verdict", "timeout"}});
  std::string Out = W.str();
  // One HELP, one TYPE, two samples.
  std::size_t First = Out.find("# HELP jobs_total");
  ASSERT_NE(First, std::string::npos);
  EXPECT_EQ(Out.find("# HELP jobs_total", First + 1), std::string::npos);
  std::size_t Type = Out.find("# TYPE jobs_total counter");
  ASSERT_NE(Type, std::string::npos);
  EXPECT_EQ(Out.find("# TYPE jobs_total", Type + 1), std::string::npos);
  EXPECT_NE(Out.find("{verdict=\"realizable\"} 3"), std::string::npos);
  EXPECT_NE(Out.find("{verdict=\"timeout\"} 1"), std::string::npos);
}

TEST(PrometheusWriter, HistogramBucketsAreCumulative) {
  LatencyHistogram H;
  // Three samples across three buckets (100ns, ~1µs, ~1ms).
  H.recordNs(100);
  H.recordNs(1000);
  H.recordNs(1000000);
  PrometheusWriter W;
  W.histogram("lat_seconds", "Latency.", H.snapshot());
  std::string Out = W.str();

  std::vector<double> B = bucketValues(Out, "lat_seconds");
  ASSERT_FALSE(B.empty());
  for (std::size_t I = 1; I < B.size(); ++I)
    EXPECT_GE(B[I], B[I - 1]) << "bucket " << I << " not cumulative\n" << Out;

  // +Inf carries the total count; _count and _sum close the family.
  std::size_t Inf = Out.find("lat_seconds_bucket{le=\"+Inf\"} 3");
  EXPECT_NE(Inf, std::string::npos) << Out;
  EXPECT_NE(Out.find("lat_seconds_count 3"), std::string::npos);
  // Sum = 1001100 ns = 0.0010011 s.
  EXPECT_NEAR(metricValue(Out, "lat_seconds_sum"), 0.0010011, 1e-9);
  EXPECT_NE(Out.find("# TYPE lat_seconds histogram"), std::string::npos);
}

TEST(PrometheusWriter, EmptyHistogramStillPresent) {
  LatencyHistogram H;
  PrometheusWriter W;
  W.histogram("idle_seconds", "Never recorded.", H.snapshot());
  std::string Out = W.str();
  EXPECT_NE(Out.find("idle_seconds_bucket{le=\"+Inf\"} 0"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("idle_seconds_count 0"), std::string::npos);
  EXPECT_NE(Out.find("idle_seconds_sum 0"), std::string::npos);
}

TEST(ProcessMetrics, CountersAreMonotonicAcrossScrapes) {
  PrometheusWriter W1;
  writeProcessMetrics(W1, snapshotPerf());
  double Before = metricValue(W1.str(), "se2gis_smt_queries_total");
  ASSERT_GE(Before, 0);

  perfAdd(PerfCounter::SmtQueries, 3);
  perfRecordNs(PerfHistogram::SmtCheckNs, 5000);

  PrometheusWriter W2;
  writeProcessMetrics(W2, snapshotPerf());
  double After = metricValue(W2.str(), "se2gis_smt_queries_total");
  EXPECT_EQ(After, Before + 3);
  // Every counter family renders; spot-check the corners of the table.
  EXPECT_GE(metricValue(W2.str(), "se2gis_chc_race_wins_total"), 0);
  EXPECT_GE(metricValue(W2.str(), "se2gis_gen_shrink_accepted_total"), 0);
  EXPECT_GE(metricValue(W2.str(), "se2gis_cache_smt_hits_total"), 0);
  EXPECT_GE(metricValue(W2.str(), "se2gis_smt_check_seconds_count"), 1);
  EXPECT_GE(metricValue(W2.str(), "se2gis_flight_enabled"), 0);
}

namespace {

/// One row of a telemetry table, read back through the generated lookups.
struct RegistryRow {
  std::string Key, Help;
};

template <typename Enum>
std::vector<RegistryRow> registryRows(Enum End, const char *(*Name)(Enum),
                                      const char *(*Help)(Enum)) {
  std::vector<RegistryRow> Rows;
  for (size_t I = 0; I < static_cast<size_t>(End); ++I)
    Rows.push_back({Name(static_cast<Enum>(I)), Help(static_cast<Enum>(I))});
  return Rows;
}

bool isSnakeCase(const std::string &S) {
  if (S.empty() || !std::islower(static_cast<unsigned char>(S[0])) ||
      S.back() == '_')
    return false;
  for (char C : S)
    if (!std::islower(static_cast<unsigned char>(C)) &&
        !std::isdigit(static_cast<unsigned char>(C)) && C != '_')
      return false;
  return true;
}

size_t countOf(const std::string &Body, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Body.find(Needle); At != std::string::npos;
       At = Body.find(Needle, At + 1))
    ++N;
  return N;
}

} // namespace

TEST(TelemetryRegistry, EveryRowHasAUniqueSnakeKeyAndHelp) {
  std::vector<std::vector<RegistryRow>> Tables = {
      registryRows(PerfCounter::NumPerfCounters, perfCounterName,
                   perfCounterHelp),
      registryRows(PerfTimer::NumPerfTimers, perfTimerName, perfTimerHelp),
      registryRows(PerfHistogram::NumPerfHistograms, perfHistogramName,
                   perfHistogramHelp),
      registryRows(Phase::NumPhases, phaseName, phaseHelp)};
  std::set<std::string> Keys, Helps;
  for (const auto &Table : Tables) {
    EXPECT_FALSE(Table.empty());
    for (const RegistryRow &R : Table) {
      EXPECT_TRUE(isSnakeCase(R.Key)) << R.Key;
      EXPECT_FALSE(R.Help.empty()) << R.Key;
      EXPECT_TRUE(Keys.insert(R.Key).second) << "duplicate key " << R.Key;
      EXPECT_TRUE(Helps.insert(R.Help).second) << "duplicate HELP " << R.Help;
    }
  }
  // The counters folded in from the algorithm drivers' old registry.
  for (const char *Key :
       {"witness_queries", "bounded_instantiations", "symbolic_unfoldings"})
    EXPECT_TRUE(Keys.count(Key)) << Key;
}

TEST(TelemetryRegistry, PerfJsonEmitsEveryKeyOnce) {
  std::ostringstream OS;
  writePerfJson(OS, PerfSnapshot{});
  const std::string J = OS.str();
  std::vector<std::string> Expected;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I)
    Expected.push_back(perfCounterName(static_cast<PerfCounter>(I)));
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I)
    Expected.push_back(std::string(perfTimerName(static_cast<PerfTimer>(I))) +
                       "_ms");
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I)
    for (const char *Suffix :
         {"_count", "_p50_ms", "_p90_ms", "_p99_ms", "_max_ms"})
      Expected.push_back(
          perfHistogramName(static_cast<PerfHistogram>(I)) +
          std::string(Suffix));
  for (const std::string &Key : Expected)
    EXPECT_EQ(countOf(J, "\"" + Key + "\":"), 1u) << Key;
  // ... and nothing else: one `":` per key.
  EXPECT_EQ(countOf(J, "\":"), Expected.size()) << J;
  JsonValue Parsed;
  std::string Err;
  EXPECT_TRUE(JsonValue::parse(J, Parsed, Err)) << Err;
}

TEST(TelemetryRegistry, ScrapeHasOneHelpPerFamily) {
  PrometheusWriter W;
  writeProcessMetrics(W, snapshotPerf());
  const std::string Body = W.str();
  std::vector<std::pair<std::string, std::string>> Families;
  for (size_t I = 0; I < static_cast<size_t>(PerfCounter::NumPerfCounters);
       ++I) {
    auto C = static_cast<PerfCounter>(I);
    Families.emplace_back(std::string("se2gis_") + perfCounterName(C) +
                              "_total",
                          perfCounterHelp(C));
  }
  for (size_t I = 0; I < static_cast<size_t>(PerfTimer::NumPerfTimers); ++I) {
    auto T = static_cast<PerfTimer>(I);
    Families.emplace_back(std::string("se2gis_") + perfTimerName(T) +
                              "_seconds_total",
                          perfTimerHelp(T));
  }
  for (size_t I = 0;
       I < static_cast<size_t>(PerfHistogram::NumPerfHistograms); ++I) {
    auto H = static_cast<PerfHistogram>(I);
    Families.emplace_back(std::string("se2gis_") + perfHistogramName(H) +
                              "_seconds",
                          perfHistogramHelp(H));
  }
  for (const auto &[Name, Help] : Families) {
    EXPECT_EQ(countOf(Body, "# HELP " + Name + " "), 1u) << Name;
    EXPECT_EQ(countOf(Body, "# HELP " + Name + " " + Help + "\n"), 1u)
        << Name;
  }
  std::set<std::string> HelpLines;
  std::istringstream In(Body);
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("# HELP ", 0) != 0)
      continue;
    std::string Family = Line.substr(7, Line.find(' ', 7) - 7);
    EXPECT_TRUE(HelpLines.insert(Family).second) << Line;
  }
}

//===----------------------------------------------------------------------===//
// The flight recorder
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, RecordsAndDumpsValidJson) {
  flightConfigure(true);
  std::uint64_t Before = flightRecordedEvents();
  flightRecord(FlightKind::Mark, "test.mark", 1000, 0, 7, "hello \"quoted\"");
  flightRecord(FlightKind::Span, "test.span", 2000, 500, 0, "cat");
  EXPECT_GE(flightRecordedEvents(), Before + 2);

  std::ostringstream OS;
  flightWriteJson(OS);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(OS.str(), V, Error)) << Error;
  const JsonValue *Events = V.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawMark = false, SawSpan = false;
  for (const JsonValue &E : Events->items()) {
    if (E.getString("name") == "test.mark")
      SawMark = true;
    if (E.getString("name") == "test.span") {
      SawSpan = true;
      EXPECT_EQ(E.getString("ph"), "X");
    }
  }
  EXPECT_TRUE(SawMark);
  EXPECT_TRUE(SawSpan);
}

TEST(FlightRecorder, RingOverwritesOldestAndCounts) {
  flightConfigure(true, /*RingCapacity=*/64);
  // A fresh thread gets a fresh (small) ring; overflow it.
  std::uint64_t OverBefore = flightOverwrittenEvents();
  std::thread T([&] {
    for (int I = 0; I < 200; ++I)
      flightRecord(FlightKind::Mark, "overflow.mark",
                   static_cast<std::uint64_t>(I), 0,
                   static_cast<std::uint64_t>(I));
  });
  T.join();
  EXPECT_GE(flightOverwrittenEvents(), OverBefore + (200 - 64));

  // The dump still parses and holds at most the ring's worth of
  // overflow.marks.
  std::ostringstream OS;
  flightWriteJson(OS);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(OS.str(), V, Error)) << Error;
  // Restore the default ring size for other tests' fresh threads.
  flightConfigure(true, 4096);
}

TEST(FlightRecorder, DisabledPathRecordsNothing) {
  flightConfigure(false);
  std::uint64_t Before = flightRecordedEvents();
  flightRecord(FlightKind::Mark, "while.disabled", 1, 0);
  EXPECT_EQ(flightRecordedEvents(), Before);
  flightConfigure(true);
}

TEST(FlightRecorder, ResetClearsBufferedEvents) {
  flightConfigure(true);
  flightRecord(FlightKind::Mark, "pre.reset", 1, 0);
  flightReset();
  std::ostringstream OS;
  flightWriteJson(OS);
  EXPECT_EQ(OS.str().find("pre.reset"), std::string::npos);
  JsonValue V;
  std::string Error;
  EXPECT_TRUE(JsonValue::parse(OS.str(), V, Error)) << Error;
}

//===----------------------------------------------------------------------===//
// The progress board
//===----------------------------------------------------------------------===//

TEST(ProgressBoard, PublishThroughThreadLocalTarget) {
  ProgressBoard B;
  EXPECT_EQ(threadProgressBoard(), nullptr);
  progressPublish([](ProgressSnapshot &) { FAIL() << "no board installed"; });
  {
    ProgressBoardScope Scope(&B);
    progressPublish([](ProgressSnapshot &P) {
      progressSetStr(P.Algorithm, "se2gis");
      progressSetStr(P.Activity, "round");
      P.Round = 7;
      P.Lemmas = 3;
    });
  }
  EXPECT_EQ(threadProgressBoard(), nullptr);
  ProgressSnapshot S = B.read();
  EXPECT_STREQ(S.Algorithm, "se2gis");
  EXPECT_STREQ(S.Activity, "round");
  EXPECT_EQ(S.Round, 7u);
  EXPECT_EQ(S.Lemmas, 3u);
}

TEST(ProgressBoard, ReadsAreConsistentUnderContention) {
  ProgressBoard B;
  std::atomic<bool> Stop{false};
  // Writer keeps Round and Lemmas in lockstep; a torn read would observe
  // them out of step.
  std::thread Writer([&] {
    std::uint64_t I = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      ++I;
      B.update([&](ProgressSnapshot &P) {
        P.Round = I;
        P.Lemmas = I * 2;
        progressSetStr(P.Activity, (I & 1) ? "refine" : "coarsen");
      });
    }
  });
  for (int I = 0; I < 20000; ++I) {
    ProgressSnapshot S = B.read();
    ASSERT_EQ(S.Lemmas, S.Round * 2) << "torn read at round " << S.Round;
  }
  Stop = true;
  Writer.join();
}

TEST(ProgressBoard, TruncatingStringCopyNulTerminates) {
  ProgressSnapshot P;
  progressSetStr(P.Activity, "a-very-long-activity-name-indeed");
  EXPECT_EQ(P.Activity[sizeof(P.Activity) - 1], '\0');
  EXPECT_EQ(std::string(P.Activity), "a-very-long-act");
  progressSetStr(P.Activity, nullptr);
  EXPECT_EQ(std::string(P.Activity), "");
}

//===----------------------------------------------------------------------===//
// Service wiring: metrics method, rid echo, progress, timeout dumps
//===----------------------------------------------------------------------===//

namespace {

/// Same shape as ServiceTest's fixture: an in-process daemon on an
/// ephemeral loopback port.
struct MetricsDaemon {
  std::unique_ptr<Server> S;
  std::thread Runner;
  std::string Addr;

  explicit MetricsDaemon(ServiceConfig Config) {
    Config.Listen = "tcp:127.0.0.1:0";
    S = std::make_unique<Server>(std::move(Config));
    std::string Error;
    if (!S->start(Error)) {
      ADD_FAILURE() << "daemon start failed: " << Error;
      return;
    }
    Addr = S->addr().str();
    Runner = std::thread([this] { S->run(); });
  }

  ~MetricsDaemon() {
    if (Runner.joinable()) {
      S->requestDrainAsync();
      Runner.join();
    }
  }

  std::unique_ptr<ServiceClient> client() {
    std::string Error;
    auto C = ServiceClient::connect(Addr, Error);
    EXPECT_NE(C, nullptr) << Error;
    return C;
  }
};

JsonValue mkSubmit(const char *Source, std::int64_t TimeoutMs,
                   const char *Label) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("submit"));
  Req.set("source", JsonValue::str(Source));
  Req.set("timeout_ms", JsonValue::number(TimeoutMs));
  Req.set("label", JsonValue::str(Label));
  return Req;
}

std::string awaitDone(ServiceClient &C, const std::string &JobId) {
  for (int Tries = 0; Tries < 3000; ++Tries) {
    JsonValue Req = JsonValue::object();
    Req.set("method", JsonValue::str("status"));
    Req.set("job", JsonValue::str(JobId));
    JsonValue Resp;
    std::string Error;
    if (!C.call(Req, Resp, Error)) {
      ADD_FAILURE() << "status call failed: " << Error;
      return "";
    }
    std::string State = Resp.getString("state");
    if (State == "done" || State == "cancelled")
      return State;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << JobId << " never terminalized";
  return "";
}

} // namespace

TEST(ServiceMetrics, MetricsMethodMatchesStats) {
  ServiceConfig Config;
  Config.Workers = 2;
  MetricsDaemon D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  ASSERT_TRUE(C->call(mkSubmit(se2gis_tests::kMinSortedSrc, 20000, "m1"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string Id = Resp.getString("job");
  EXPECT_EQ(awaitDone(*C, Id), "done");

  ASSERT_TRUE(C->call("metrics", Resp, Error)) << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  EXPECT_NE(Resp.getString("content_type").find("version=0.0.4"),
            std::string::npos);
  std::string Body = Resp.getString("body");
  ASSERT_FALSE(Body.empty());

  // Service families present and consistent with `stats`.
  JsonValue Stats;
  ASSERT_TRUE(C->call("stats", Stats, Error)) << Error;
  double Submitted = metricValue(Body, "se2gis_jobs_submitted_total");
  double DoneSum = metricFamilySum(Body, "se2gis_jobs_done_total");
  EXPECT_GE(Submitted, 1);
  EXPECT_EQ(DoneSum, static_cast<double>(Stats.getInt("completed")));
  EXPECT_GE(metricValue(Body, "se2gis_queue_depth"), 0);
  EXPECT_EQ(metricValue(Body, "se2gis_workers"), 2);
  EXPECT_GE(metricValue(Body, "se2gis_job_latency_seconds_count"), 1);
  // Process families ride along in the same scrape.
  EXPECT_GE(metricValue(Body, "se2gis_smt_queries_total"), 0);
}

TEST(ServiceMetrics, EveryResponseCarriesARequestId) {
  ServiceConfig Config;
  MetricsDaemon D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  ASSERT_TRUE(C->call("ping", Resp, Error)) << Error;
  std::int64_t R1 = Resp.getInt("rid", 0);
  EXPECT_GT(R1, 0);
  ASSERT_TRUE(C->call("stats", Resp, Error)) << Error;
  std::int64_t R2 = Resp.getInt("rid", 0);
  EXPECT_GT(R2, R1) << "rids must be minted per request";
  // Typed errors carry one too.
  ASSERT_TRUE(C->call("frobnicate", Resp, Error)) << Error;
  EXPECT_GT(Resp.getInt("rid", 0), R2);
}

TEST(ServiceMetrics, TimeoutJobLeavesAFlightDump) {
  std::string Dir = ::testing::TempDir() + "se2gis-flight-test";
  std::remove((Dir + "/flight-j1.json").c_str());
  ::mkdir(Dir.c_str(), 0755);

  ServiceConfig Config;
  Config.FlightDir = Dir;
  MetricsDaemon D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  // A 1 ms budget forces a Timeout verdict — the worker must dump the
  // rings before completing the job.
  ASSERT_TRUE(C->call(mkSubmit(se2gis_tests::kMinSortedSrc, 1, "dump"), Resp,
                      Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string Id = Resp.getString("job");
  EXPECT_EQ(awaitDone(*C, Id), "done");

  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("result"));
  Req.set("job", JsonValue::str(Id));
  ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
  ASSERT_EQ(Resp.getString("verdict"), "timeout") << Resp.dump();

  std::ifstream In(Dir + "/flight-" + Id + ".json");
  ASSERT_TRUE(In.good()) << "missing flight dump for " << Id;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  JsonValue Dump;
  ASSERT_TRUE(JsonValue::parse(Buf.str(), Dump, Error)) << Error;
  const JsonValue *Events = Dump.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_FALSE(Events->items().empty())
      << "a timed-out run must have buffered flight events";
  // The job's admission mark is in the dump, rid-tagged.
  bool SawJobMark = false;
  for (const JsonValue &E : Events->items())
    if (E.getString("name") == "job.start")
      SawJobMark = true;
  EXPECT_TRUE(SawJobMark);
}

TEST(ServiceMetrics, StatusOfRunningJobReportsProgress) {
  ServiceConfig Config;
  Config.Workers = 1;
  MetricsDaemon D(Config);
  auto C = D.client();
  ASSERT_NE(C, nullptr);

  JsonValue Resp;
  std::string Error;
  // A generous budget keeps the job observable in the Running state for a
  // few polls on most machines; the assertion is conditional on actually
  // catching it mid-run so the test cannot flake on fast boxes.
  ASSERT_TRUE(C->call(mkSubmit(se2gis_tests::kMinUnsortedSrc, 20000, "live"),
                      Resp, Error))
      << Error;
  ASSERT_TRUE(Resp.getBool("ok")) << Resp.dump();
  std::string Id = Resp.getString("job");

  bool SawProgress = false;
  for (int Tries = 0; Tries < 3000; ++Tries) {
    JsonValue Req = JsonValue::object();
    Req.set("method", JsonValue::str("status"));
    Req.set("job", JsonValue::str(Id));
    ASSERT_TRUE(C->call(Req, Resp, Error)) << Error;
    std::string State = Resp.getString("state");
    if (State == "running") {
      if (const JsonValue *P = Resp.get("progress")) {
        // Once the first round publishes, the snapshot names the
        // algorithm.
        if (!P->getString("algorithm", "").empty()) {
          SawProgress = true;
          EXPECT_GE(P->getInt("round", -1), 0) << Resp.dump();
        }
      }
    }
    if (State == "done" || State == "cancelled")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The unrealizable witness search runs long enough that missing every
  // running-state poll would itself be a scheduling anomaly; still, only
  // assert the shape when the state was actually observed.
  if (SawProgress)
    SUCCEED();
}

TEST(ServiceMetrics, RenderMetricsIsParseableWithoutASocket) {
  ServiceConfig Config;
  MetricsDaemon D(Config);
  std::string Body = D.S->renderMetrics();
  // Never empty, every line is a comment or `name{labels} value`.
  ASSERT_FALSE(Body.empty());
  std::istringstream In(Body);
  std::string Line;
  int Samples = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      EXPECT_TRUE(Line.rfind("# HELP ", 0) == 0 ||
                  Line.rfind("# TYPE ", 0) == 0)
          << Line;
      continue;
    }
    std::size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    EXPECT_NO_THROW((void)std::stod(Line.substr(Sp + 1))) << Line;
    ++Samples;
  }
  EXPECT_GT(Samples, 40) << "expected every counter family to render";
}
