//===- CacheNetTest.cpp - Shared cache tier tests -------------------------===//
//
// Covers src/cachenet/: the cache daemon's protocol surface (get/put/
// stats/drain, admission negatives, frame-level negatives), the
// RemoteStore client (read-through miss/hit, circuit-breaker transitions
// against a dead-then-revived daemon, write-behind flush), the
// CacheConfig remote tier (remote hit populated downward into the local
// DiskStore), concurrent multi-client traffic, and the soundness
// property the whole tier leans on: a poisoned remote entry is
// re-validated on reuse and can never change a verdict.
//
//===----------------------------------------------------------------------===//

#include "ast/Term.h"
#include "cache/CacheConfig.h"
#include "cachenet/CacheDaemon.h"
#include "cachenet/RemoteStore.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "suite/Runner.h"
#include "support/PerfCounters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace se2gis;

namespace {

namespace fs = std::filesystem;

/// Each test gets a private scratch directory (daemon store + node cache
/// dirs + the unix socket) and a clean process-wide cache state.
class CacheNetTest : public ::testing::Test {
protected:
  void SetUp() override {
    shutdownCache();
    Root = (fs::temp_directory_path() /
            ("se2gis-cachenet-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()) +
             "-" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed())))
               .string();
    fs::remove_all(Root);
    fs::create_directories(Root);
  }
  void TearDown() override {
    // A failed ASSERT can leave a test early with its daemons still
    // serving: drain and join them here so no joinable thread is destroyed.
    for (auto &D : Daemons)
      D->drain();
    joinDaemons();
    Daemons.clear();
    shutdownCache();
    fs::remove_all(Root);
  }

  std::string path(const std::string &Leaf) { return Root + "/" + Leaf; }

  /// Starts an in-process daemon on a unix socket under the scratch dir.
  /// The fixture owns it until TearDown.
  CacheDaemon *startDaemon(const std::string &Tag,
                           CacheDaemonConfig Config = {}) {
    Config.Listen = "unix:" + path(Tag + ".sock");
    Config.Dir = path(Tag + ".store");
    Config.Log.Level = LogLevel::Error;
    auto D = std::make_unique<CacheDaemon>(std::move(Config));
    std::string Error;
    if (!D->start(Error)) {
      ADD_FAILURE() << "daemon start: " << Error;
      return nullptr;
    }
    RunThreads.emplace_back([Ptr = D.get()] { Ptr->run(); });
    Daemons.push_back(std::move(D));
    return Daemons.back().get();
  }

  void stopDaemon(CacheDaemon &D) { D.drain(); }

  /// Joins the run() threads of every daemon started in this test. Call
  /// after drain()ing them.
  void joinDaemons() {
    for (std::thread &T : RunThreads)
      if (T.joinable())
        T.join();
    RunThreads.clear();
  }

  std::string Root;
  std::vector<std::unique_ptr<CacheDaemon>> Daemons;
  std::vector<std::thread> RunThreads;
};

/// Blocking one-shot request against \p Addr; fails the test on transport
/// problems.
JsonValue rawCall(const ServiceAddr &Addr, const JsonValue &Req) {
  std::string Error;
  int Fd = connectTo(Addr, Error, /*TimeoutMs=*/2000);
  EXPECT_GE(Fd, 0) << Error;
  JsonValue Resp;
  if (Fd >= 0) {
    setFdIoTimeout(Fd, 5000);
    std::string Payload;
    EXPECT_TRUE(writeFrame(Fd, Req.dump()));
    EXPECT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
    EXPECT_TRUE(JsonValue::parse(Payload, Resp, Error)) << Error;
    closeFd(Fd);
  }
  return Resp;
}

JsonValue makeGet(const std::string &Segment, const std::string &KeyHex) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("cache.get"));
  Req.set("segment", JsonValue::str(Segment));
  Req.set("key", JsonValue::str(KeyHex));
  return Req;
}

JsonValue makePut(const std::string &Segment, const std::string &KeyHex,
                  const std::string &Payload) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str("cache.put"));
  Req.set("segment", JsonValue::str(Segment));
  Req.set("key", JsonValue::str(KeyHex));
  Req.set("payload", JsonValue::str(Payload));
  return Req;
}

std::string errorCodeOf(const JsonValue &Resp) {
  const JsonValue *E = Resp.get("error");
  return E ? E->getString("code") : "";
}

Hash128 keyOf(unsigned char Tag) {
  std::string Hex(32, '0');
  static const char Digits[] = "0123456789abcdef";
  Hex[30] = Digits[(Tag >> 4) & 0xf];
  Hex[31] = Digits[Tag & 0xf];
  Hash128 K{};
  EXPECT_TRUE(Hash128::fromHex(Hex, K));
  return K;
}

} // namespace

//===----------------------------------------------------------------------===//
// Segment-name admission
//===----------------------------------------------------------------------===//

TEST(CacheNetNames, SegmentCharsetIsStrict) {
  EXPECT_TRUE(validCacheSegmentName("smt"));
  EXPECT_TRUE(validCacheSegmentName("suite"));
  EXPECT_TRUE(validCacheSegmentName("a0-z9_x"));
  EXPECT_FALSE(validCacheSegmentName(""));
  EXPECT_FALSE(validCacheSegmentName("SMT"));          // uppercase
  EXPECT_FALSE(validCacheSegmentName("../etc"));       // traversal
  EXPECT_FALSE(validCacheSegmentName("a/b"));          // separator
  EXPECT_FALSE(validCacheSegmentName("a.b"));          // dot
  EXPECT_FALSE(validCacheSegmentName(std::string(65, 'a'))); // too long
}

//===----------------------------------------------------------------------===//
// Daemon protocol surface
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, DaemonGetPutStatsDrain) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);
  const ServiceAddr &A = D->addr();
  Hash128 K = keyOf(1);

  // Miss first.
  JsonValue R = rawCall(A, makeGet("smt", K.hex()));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_FALSE(R.getBool("found"));

  // Put, then hit with the same bytes.
  R = rawCall(A, makePut("smt", K.hex(), "payload-bytes"));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_TRUE(R.getBool("stored"));
  R = rawCall(A, makeGet("smt", K.hex()));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_TRUE(R.getBool("found"));
  EXPECT_EQ(R.getString("payload"), "payload-bytes");

  // Content-addressed dedup: the second identical put is acknowledged but
  // not re-stored.
  R = rawCall(A, makePut("smt", K.hex(), "payload-bytes"));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_FALSE(R.getBool("stored"));

  R = rawCall(A, JsonValue::object().set("method", JsonValue::str("ping")));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_EQ(R.getString("role"), "cached");

  R = rawCall(A,
              JsonValue::object().set("method", JsonValue::str("cache.stats")));
  EXPECT_TRUE(R.getBool("ok"));
  EXPECT_EQ(R.getInt("gets"), 2);
  EXPECT_EQ(R.getInt("hits"), 1);
  EXPECT_EQ(R.getInt("misses"), 1);
  EXPECT_EQ(R.getInt("puts"), 2);
  EXPECT_EQ(R.getInt("puts_stored"), 1);
  EXPECT_EQ(R.getInt("entries"), 1);

  // The daemon's own Prometheus exposition carries the same counters.
  std::string Metrics = D->renderMetrics();
  EXPECT_NE(Metrics.find("se2gis_cached_hits_total 1"), std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("se2gis_cached_entries{segment=\"smt\"} 1"),
            std::string::npos)
      << Metrics;

  stopDaemon(*D);
  joinDaemons();

  // Restarting on the same directory reloads the entry (same DiskStore
  // format as a node cache dir).
  CacheDaemonConfig C2;
  C2.Listen = "unix:" + path("d2.sock");
  C2.Dir = path("d.store");
  C2.Log.Level = LogLevel::Error;
  CacheDaemon D2(std::move(C2));
  std::string Error;
  ASSERT_TRUE(D2.start(Error)) << Error;
  std::thread T([&D2] { D2.run(); });
  R = rawCall(D2.addr(), makeGet("smt", K.hex()));
  EXPECT_TRUE(R.getBool("found"));
  EXPECT_EQ(R.getString("payload"), "payload-bytes");
  D2.drain();
  T.join();
}

TEST_F(CacheNetTest, DaemonAdmissionNegatives) {
  CacheDaemonConfig Config;
  Config.MaxPayloadBytes = 64; // tiny bound to exercise rejection
  auto D = startDaemon("d", std::move(Config));
  ASSERT_NE(D, nullptr);
  const ServiceAddr &A = D->addr();
  std::string GoodKey = keyOf(2).hex();

  // Hostile segment names are refused, not turned into file paths.
  EXPECT_EQ(errorCodeOf(rawCall(A, makeGet("../../etc", GoodKey))),
            "bad_request");
  EXPECT_EQ(errorCodeOf(rawCall(A, makePut("a/b", GoodKey, "x"))),
            "bad_request");
  // Keys must be exactly 32 hex chars.
  EXPECT_EQ(errorCodeOf(rawCall(A, makeGet("smt", "zz"))), "bad_request");
  EXPECT_EQ(errorCodeOf(rawCall(A, makePut("smt", "abc", "x"))),
            "bad_request");
  // Payloads over the admission bound are refused as bad_request (the
  // frame itself is fine — this is the entry bound, not the frame bound).
  EXPECT_EQ(errorCodeOf(
                rawCall(A, makePut("smt", GoodKey, std::string(65, 'p')))),
            "bad_request");
  // Unknown method.
  EXPECT_EQ(errorCodeOf(rawCall(
                A, JsonValue::object().set("method", JsonValue::str("nope")))),
            "unknown_method");

  // Nothing above got stored.
  JsonValue R = rawCall(
      A, JsonValue::object().set("method", JsonValue::str("cache.stats")));
  EXPECT_EQ(R.getInt("entries"), 0);
  EXPECT_GE(R.getInt("rejected"), 5);

  // After drain, puts are refused with the typed draining error (via a
  // connection opened before the drain completes the socket teardown).
  stopDaemon(*D);
  joinDaemons();
}

TEST_F(CacheNetTest, DaemonFrameNegatives) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);
  const ServiceAddr &A = D->addr();
  std::string Error;

  // Oversized frame announcement: typed error response, then hangup.
  {
    int Fd = connectTo(A, Error, 2000);
    ASSERT_GE(Fd, 0) << Error;
    setFdIoTimeout(Fd, 5000);
    std::uint32_t Huge = htonl(kMaxFrameBytes + 1);
    ASSERT_EQ(::write(Fd, &Huge, 4), 4);
    std::string Payload;
    ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
    JsonValue Resp;
    ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error));
    EXPECT_FALSE(Resp.getBool("ok"));
    EXPECT_EQ(errorCodeOf(Resp), "oversized_frame");
    // The stream cannot be resynchronized: the daemon hangs up.
    EXPECT_EQ(readFrame(Fd, Payload), FrameStatus::Eof);
    closeFd(Fd);
  }

  // Truncated frame: announce 100 bytes, send 3, close. The daemon must
  // drop the connection without dying.
  {
    int Fd = connectTo(A, Error, 2000);
    ASSERT_GE(Fd, 0) << Error;
    std::uint32_t Len = htonl(100);
    ASSERT_EQ(::write(Fd, &Len, 4), 4);
    ASSERT_EQ(::write(Fd, "{\"m", 3), 3);
    closeFd(Fd);
  }

  // Non-JSON payload on a cache method: typed parse_error.
  {
    int Fd = connectTo(A, Error, 2000);
    ASSERT_GE(Fd, 0) << Error;
    setFdIoTimeout(Fd, 5000);
    ASSERT_TRUE(writeFrame(Fd, "this is not json"));
    std::string Payload;
    ASSERT_EQ(readFrame(Fd, Payload), FrameStatus::Ok);
    JsonValue Resp;
    ASSERT_TRUE(JsonValue::parse(Payload, Resp, Error));
    EXPECT_EQ(errorCodeOf(Resp), "parse_error");
    closeFd(Fd);
  }

  // Still alive and serving after all of the above.
  JsonValue R =
      rawCall(A, JsonValue::object().set("method", JsonValue::str("ping")));
  EXPECT_TRUE(R.getBool("ok"));

  stopDaemon(*D);
  joinDaemons();
}

//===----------------------------------------------------------------------===//
// RemoteStore client
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, RemoteStoreMissPutHitAndFlush) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);

  RemoteStoreOptions Opts;
  Opts.Addr = "unix:" + path("d.sock");
  std::string Error;
  auto Store = RemoteStore::create(Opts, Error);
  ASSERT_NE(Store, nullptr) << Error;

  Hash128 K = keyOf(3);
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_TRUE(Store->putSync("smt", K, "remote-payload"));
  auto Got = Store->get("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "remote-payload");

  // Write-behind: enqueue, flush, observe on the daemon.
  Hash128 K2 = keyOf(4);
  Store->putAsync("smt", K2, "async-payload");
  EXPECT_TRUE(Store->flush(5000));
  auto Got2 = Store->get("smt", K2);
  ASSERT_TRUE(Got2.has_value());
  EXPECT_EQ(*Got2, "async-payload");

  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Closed);

  // Malformed address is the one construction failure.
  RemoteStoreOptions Bad;
  Bad.Addr = "tcp:nonsense";
  EXPECT_EQ(RemoteStore::create(Bad, Error), nullptr);
  EXPECT_FALSE(Error.empty());

  stopDaemon(*D);
  joinDaemons();
}

TEST_F(CacheNetTest, BreakerOpensOnDeadDaemonAndRecloses) {
  std::string Sock = path("revive.sock");

  RemoteStoreOptions Opts;
  Opts.Addr = "unix:" + Sock;
  Opts.ConnectTimeoutMs = 100;
  Opts.RequestTimeoutMs = 200;
  Opts.MaxAttempts = 1;
  Opts.BackoffBaseMs = 1;
  Opts.BreakerThreshold = 2;
  Opts.BreakerCooldownMs = 150;
  std::string Error;
  auto Store = RemoteStore::create(Opts, Error);
  ASSERT_NE(Store, nullptr) << Error;

  PerfSnapshot Before = snapshotPerf();

  // Nothing listens: consecutive failures open the breaker.
  Hash128 K = keyOf(5);
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_FALSE(Store->get("smt", K).has_value());
  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Open);

  // Open breaker = near-zero-cost degraded fast fails, counted as such.
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(Store->get("smt", K).has_value());
  auto FastMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_LT(FastMs, 50);

  PerfSnapshot Mid = snapshotPerf().since(Before);
  EXPECT_GE(Mid.get(PerfCounter::CacheRemoteErrors), 2u);
  EXPECT_GE(Mid.get(PerfCounter::CacheRemoteDegraded), 1u);

  // Revive a daemon on the same socket path ("revive.sock"); after the
  // cooldown the next probe goes half-open, succeeds, and closes the
  // breaker.
  CacheDaemon *D = startDaemon("revive");
  ASSERT_NE(D, nullptr);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(Store->get("smt", K).has_value()); // miss, but transport OK
  EXPECT_EQ(Store->breakerState(), RemoteStore::Breaker::Closed);

  EXPECT_TRUE(Store->putSync("smt", K, "after-revival"));
  auto Got = Store->get("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "after-revival");

  stopDaemon(*D);
  joinDaemons();
}

//===----------------------------------------------------------------------===//
// CacheConfig remote tier (read-through / write-behind / populate-down)
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, RemoteHitPopulatesLocalTiers) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);
  std::string Addr = "unix:" + path("d.sock");

  // Node A (this process, first configuration): insert an entry; the
  // write-behind fan-out ships it to the daemon.
  CacheSettings SA;
  SA.Mode = CacheMode::Remote;
  SA.Dir = path("nodeA");
  SA.Addr = Addr;
  configureCache(SA);
  Hash128 K = keyOf(6);
  persistentInsert("smt", K, "shared-entry");
  flushCache(); // drains the write-behind queue
  shutdownCache();

  // "Node B": same daemon, fresh local dir. The local probe misses, the
  // remote probe hits, and the hit lands in B's own DiskStore.
  PerfSnapshot Before = snapshotPerf();
  CacheSettings SB = SA;
  SB.Dir = path("nodeB");
  configureCache(SB);
  auto Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "shared-entry");
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::CacheRemoteHits), 1u);

  // Second lookup is local: no further remote traffic.
  ASSERT_TRUE(persistentLookup("smt", K).has_value());
  Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::CacheRemoteHits), 1u);
  flushCache();
  shutdownCache();

  // The populated-down entry survives in B's store even with the daemon
  // gone: disk-only reconfigure on B's dir still hits.
  stopDaemon(*D);
  joinDaemons();
  CacheSettings SDisk;
  SDisk.Mode = CacheMode::Disk;
  SDisk.Dir = path("nodeB");
  configureCache(SDisk);
  Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "shared-entry");
}

TEST_F(CacheNetTest, DeadDaemonDegradesToLocalOnly) {
  // Remote mode against an address nobody serves: configuration succeeds,
  // lookups and inserts behave exactly like Disk mode, and the breaker
  // caps the cost.
  CacheSettings S;
  S.Mode = CacheMode::Remote;
  S.Dir = path("node");
  S.Addr = "unix:" + path("nobody-home.sock");
  configureCache(S);

  Hash128 K = keyOf(7);
  EXPECT_FALSE(persistentLookup("smt", K).has_value());
  persistentInsert("smt", K, "local-value");
  auto Got = persistentLookup("smt", K);
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, "local-value");
  flushCache(); // must not hang on the dead daemon
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST_F(CacheNetTest, ConcurrentMultiClientTraffic) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);
  std::string Addr = "unix:" + path("d.sock");

  constexpr unsigned Clients = 4, Ops = 32;
  std::atomic<unsigned> Hits{0};
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C) {
    Threads.emplace_back([&, C] {
      RemoteStoreOptions Opts;
      Opts.Addr = Addr;
      std::string Error;
      auto Store = RemoteStore::create(Opts, Error);
      ASSERT_NE(Store, nullptr) << Error;
      for (unsigned I = 0; I < Ops; ++I) {
        // Shared key space: every client writes and reads the same keys,
        // exercising concurrent dedup on one segment map.
        Hash128 K = keyOf(static_cast<unsigned char>(I % 8));
        std::string Payload = "v" + std::to_string(I % 8);
        EXPECT_TRUE(Store->putSync("smt", K, Payload));
        auto Got = Store->get("smt", K);
        ASSERT_TRUE(Got.has_value());
        EXPECT_EQ(*Got, Payload);
        ++Hits;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Hits.load(), Clients * Ops);

  JsonValue R = rawCall(
      D->addr(), JsonValue::object().set("method", JsonValue::str("cache.stats")));
  EXPECT_EQ(R.getInt("entries"), 8); // 8 distinct keys, last-wins dedup
  EXPECT_EQ(R.getInt("gets"), static_cast<std::int64_t>(Clients * Ops));

  stopDaemon(*D);
  joinDaemons();
}

//===----------------------------------------------------------------------===//
// Soundness: a poisoned remote entry cannot change a verdict
//===----------------------------------------------------------------------===//

namespace {

/// Builds a well-formed but wrong warm-start payload for \p P: every
/// unknown gets a trivially-typed body (a parameter of the return type, or
/// a constant). \returns "" when no such body exists for some unknown.
std::string wrongSolutionPayload(const Problem &P) {
  UnknownBindings Sol;
  for (const UnknownSig &Sig : P.Unknowns) {
    std::vector<VarPtr> Params;
    for (size_t I = 0; I < Sig.ArgTypes.size(); ++I)
      Params.push_back(namedVar("w" + std::to_string(I), Sig.ArgTypes[I]));
    TermPtr Body;
    for (const VarPtr &V : Params)
      if (V->Ty->str() == Sig.RetTy->str()) {
        Body = mkVar(V);
        break;
      }
    if (!Body && Sig.RetTy->isInt())
      Body = mkIntLit(41);
    if (!Body && Sig.RetTy->isBool())
      Body = mkBoolLit(false);
    if (!Body)
      return "";
    Sol[Sig.Name] = UnknownDef{std::move(Params), std::move(Body)};
  }
  return encodeSuiteSolution(P, Sol);
}

} // namespace

TEST_F(CacheNetTest, PoisonedRemoteEntryCannotFlipVerdict) {
  auto D = startDaemon("d");
  ASSERT_NE(D, nullptr);
  std::string Addr = "unix:" + path("d.sock");

  // An unrealizable benchmark: any warm-start entry claiming Realizable is
  // a lie, and re-verification must catch it.
  const BenchmarkDef *Def = findBenchmark("unreal/min_no_invariant");
  ASSERT_NE(Def, nullptr);
  ASSERT_FALSE(Def->ExpectRealizable);
  Problem P = loadBenchmark(*Def);

  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 15000;
  Opts.Config.Filter = Def->Name;
  Opts.Config.Verbose = false;
  Opts.Config.Cache.Mode = CacheMode::Remote;
  Opts.Config.Cache.Dir = path("node");
  Opts.Config.Cache.Addr = Addr;
  Opts.Algorithms = {AlgorithmKind::SE2GIS};

  // Poison the daemon under the exact warm-start key the runner computes,
  // with (a) a decodable-but-wrong solution and (b) garbage bytes for a
  // second algorithm's key.
  Hash128 Key =
      suiteWarmStartKey(*Def, AlgorithmKind::SE2GIS, Opts.Config);
  std::string Poison = wrongSolutionPayload(P);
  ASSERT_FALSE(Poison.empty());
  // The wrong payload must actually decode — otherwise this test would
  // only cover the decoder-reject path.
  ASSERT_TRUE(decodeSuiteSolution(P, Poison).has_value());
  {
    RemoteStoreOptions ROpts;
    ROpts.Addr = Addr;
    std::string Error;
    auto Store = RemoteStore::create(ROpts, Error);
    ASSERT_NE(Store, nullptr) << Error;
    ASSERT_TRUE(Store->putSync("suite", Key, Poison));
    Hash128 GarbageKey =
        suiteWarmStartKey(*Def, AlgorithmKind::SEGISUC, Opts.Config);
    ASSERT_TRUE(Store->putSync("suite", GarbageKey, "v1\nnot a solution"));
  }

  // Run the sweep: the poisoned entry is fetched from the daemon
  // (cache_remote_hits > 0), fails re-verification, and the benchmark is
  // solved normally — the verdict is unchanged.
  PerfSnapshot Before = snapshotPerf();
  auto Recs = runSuite(Opts);
  PerfSnapshot Delta = snapshotPerf().since(Before);

  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].Result.V, Verdict::Unrealizable) << Recs[0].Result.Detail;
  EXPECT_NE(Recs[0].Result.Ev.Source, VerdictSource::Cache);
  EXPECT_GE(Delta.get(PerfCounter::CacheRemoteHits), 1u);
  EXPECT_EQ(Delta.get(PerfCounter::CacheSuiteHits), 0u);

  // The garbage entry exercises the decoder-reject path the same way.
  shutdownCache();
  Opts.Algorithms = {AlgorithmKind::SEGISUC};
  Recs = runSuite(Opts);
  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_EQ(Recs[0].Result.V, Verdict::Unrealizable) << Recs[0].Result.Detail;
  EXPECT_NE(Recs[0].Result.Ev.Source, VerdictSource::Cache);

  stopDaemon(*D);
  joinDaemons();
}
