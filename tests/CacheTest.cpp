//===- CacheTest.cpp - Memoization subsystem tests ------------------------===//
//
// Covers the content-addressed cache stack (src/cache/): canonical hashing
// determinism, the sharded in-memory caches under concurrency, SMT-query
// memoization semantics (soft assertions, deadline bypass), the persistent
// store's corruption tolerance, and configuration validation.
//
//===----------------------------------------------------------------------===//

#include "cache/CacheConfig.h"
#include "cache/Canonical.h"
#include "cache/DiskStore.h"
#include "cache/SgeSolutionCache.h"
#include "cache/ShardedCache.h"
#include "cache/SmtQueryCache.h"
#include "cache/TermIO.h"
#include "core/SynthesisTask.h"
#include "smt/Solver.h"
#include "suite/Runner.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "support/ThreadPool.h"
#include "synth/Enumerator.h"
#include "synth/SgeSolver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>

using namespace se2gis;

namespace {

namespace fs = std::filesystem;

/// Every test in this file runs with a clean cache state and restores the
/// process-wide default (Off) afterwards, so the rest of the suite is
/// unaffected.
class CacheTest : public ::testing::Test {
protected:
  void SetUp() override { shutdownCache(); }
  void TearDown() override {
    shutdownCache();
    if (!TempDir.empty())
      fs::remove_all(TempDir);
  }

  /// Creates (and remembers, for cleanup) a fresh cache directory.
  std::string freshDir(const std::string &Tag) {
    TempDir = (fs::temp_directory_path() /
               ("se2gis-cache-test-" + Tag + "-" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed())))
                  .string();
    fs::remove_all(TempDir);
    return TempDir;
  }

  void enableMem() {
    CacheSettings S;
    S.Mode = CacheMode::Mem;
    configureCache(S);
  }

  std::string TempDir;
};

// --- Canonical hashing --------------------------------------------------===//

TEST_F(CacheTest, CanonicalHashIgnoresConstructionOrder) {
  // The same query built in two different orders — operands of commutative
  // operators swapped, assertions added in reverse, fresh (different-id)
  // variables — must produce the same key. This is the determinism
  // regression: nothing pointer- or id-dependent may reach the hash.
  VarPtr X1 = freshVar("x", Type::intTy());
  VarPtr Y1 = freshVar("y", Type::intTy());
  TermPtr A1 = mkOp(OpKind::Gt, {mkAdd(mkVar(X1), mkVar(Y1)), mkIntLit(3)});
  TermPtr B1 = mkOp(OpKind::Lt, {mkVar(X1), mkIntLit(10)});
  CanonicalQuery Q1 = canonicalizeQuery({A1, B1}, {}, {});

  VarPtr X2 = freshVar("u", Type::intTy());
  VarPtr Y2 = freshVar("v", Type::intTy());
  // y + x instead of x + y; B before A.
  TermPtr A2 = mkOp(OpKind::Gt, {mkAdd(mkVar(Y2), mkVar(X2)), mkIntLit(3)});
  TermPtr B2 = mkOp(OpKind::Lt, {mkVar(X2), mkIntLit(10)});
  CanonicalQuery Q2 = canonicalizeQuery({B2, A2}, {}, {});

  EXPECT_EQ(Q1.Key, Q2.Key);
  EXPECT_EQ(Q1.VarOrder.size(), Q2.VarOrder.size());
}

TEST_F(CacheTest, CanonicalHashSeparatesDistinctQueries) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Plus = mkEq(mkAdd(mkVar(X), mkVar(Y)), mkIntLit(5));
  TermPtr Minus = mkEq(mkSub(mkVar(X), mkVar(Y)), mkIntLit(5));
  EXPECT_NE(canonicalizeQuery({Plus}, {}, {}).Key,
            canonicalizeQuery({Minus}, {}, {}).Key);
  // Subtraction is NOT commutative: x - 1 and 1 - x must differ. (x - y vs
  // y - x would NOT differ: as closed queries over fresh variables they are
  // alpha-equivalent, and the renamer canonicalizes both to #0 - #1.)
  TermPtr SubLit = mkEq(mkSub(mkVar(X), mkIntLit(1)), mkIntLit(5));
  TermPtr LitSub = mkEq(mkSub(mkIntLit(1), mkVar(X)), mkIntLit(5));
  EXPECT_NE(canonicalizeQuery({SubLit}, {}, {}).Key,
            canonicalizeQuery({LitSub}, {}, {}).Key);
  TermPtr MinusSwapped = mkEq(mkSub(mkVar(Y), mkVar(X)), mkIntLit(5));
  EXPECT_EQ(canonicalizeQuery({Minus}, {}, {}).Key,
            canonicalizeQuery({MinusSwapped}, {}, {}).Key);
  // Literals matter.
  TermPtr Plus6 = mkEq(mkAdd(mkVar(X), mkVar(Y)), mkIntLit(6));
  EXPECT_NE(canonicalizeQuery({Plus}, {}, {}).Key,
            canonicalizeQuery({Plus6}, {}, {}).Key);
}

TEST_F(CacheTest, CanonicalHashSeparatesHardFromSoft) {
  // The same assertion as hard vs as soft changes the query's meaning
  // (soft assertions are droppable), so the keys must differ.
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(0)});
  EXPECT_NE(canonicalizeQuery({A}, {}, {}).Key,
            canonicalizeQuery({}, {A}, {}).Key);
}

TEST_F(CacheTest, CanonicalVarOrderTracksAlphaRenaming) {
  // VarOrder lists this query's concrete variables in canonical-slot order;
  // alpha-equivalent queries get the same key with their own variables.
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  CanonicalQuery Q1 = canonicalizeQuery({A}, {}, {});
  ASSERT_EQ(Q1.VarOrder.size(), 1u);
  EXPECT_EQ(Q1.VarOrder[0]->Id, X->Id);

  VarPtr Z = freshVar("z", Type::intTy());
  TermPtr B = mkOp(OpKind::Gt, {mkVar(Z), mkIntLit(3)});
  CanonicalQuery Q2 = canonicalizeQuery({B}, {}, {});
  EXPECT_EQ(Q1.Key, Q2.Key);
  ASSERT_EQ(Q2.VarOrder.size(), 1u);
  EXPECT_EQ(Q2.VarOrder[0]->Id, Z->Id);
}

TEST_F(CacheTest, Hash128HexRoundTrip) {
  Hash128 H = hash128String(hash128Seed(7), "roundtrip");
  Hash128 Back{};
  ASSERT_TRUE(Hash128::fromHex(H.hex(), Back));
  EXPECT_EQ(H, Back);
  EXPECT_FALSE(Hash128::fromHex("not hex", Back));
  EXPECT_FALSE(Hash128::fromHex(H.hex().substr(1), Back));
}

// --- TermIO -------------------------------------------------------------===//

TEST_F(CacheTest, ValueTextRoundTrip) {
  ValuePtr V = Value::mkTuple(
      {Value::mkInt(-42), Value::mkBool(true),
       Value::mkTuple({Value::mkInt(0), Value::mkBool(false)})});
  ValuePtr Back = valueFromText(valueToText(V));
  ASSERT_NE(Back, nullptr);
  EXPECT_TRUE(valueEquals(V, Back));
  EXPECT_EQ(valueFromText("(tup 1"), nullptr);
  EXPECT_EQ(valueFromText("zzz"), nullptr);
}

TEST_F(CacheTest, TermTextRoundTripAcrossVariables) {
  // A body serialized against one parameter list re-instantiates against
  // another (leaf-indexed form): the cross-process transfer property.
  VarPtr P0 = freshVar("p0", Type::intTy());
  VarPtr P1 = freshVar("p1", Type::intTy());
  TermPtr Body = mkIte(mkOp(OpKind::Ge, {mkVar(P0), mkVar(P1)}), mkVar(P0),
                       mkVar(P1));
  std::string Text = termToText(Body, std::vector<VarPtr>{P0, P1});
  ASSERT_FALSE(Text.empty());

  VarPtr Q0 = freshVar("q0", Type::intTy());
  VarPtr Q1 = freshVar("q1", Type::intTy());
  TermPtr Back = termFromText(Text, std::vector<VarPtr>{Q0, Q1});
  ASSERT_NE(Back, nullptr);
  Env E;
  E[Q0->Id] = Value::mkInt(3);
  E[Q1->Id] = Value::mkInt(8);
  EXPECT_EQ(evalScalarTerm(Back, E)->getInt(), 8);

  // Malformed input and out-of-range leaf indices degrade to nullptr.
  EXPECT_EQ(termFromText("(max (v 0)", std::vector<VarPtr>{Q0}), nullptr);
  EXPECT_EQ(termFromText("(v 5)", std::vector<VarPtr>{Q0}), nullptr);
}

// --- ShardedCache concurrency -------------------------------------------===//

TEST_F(CacheTest, ShardedCacheConcurrentAccess) {
  // Hammer one cache from a pool of workers (run under the tsan preset to
  // check the locking): every inserted entry must be retrievable and
  // identical to what was inserted.
  ShardedCache<int> C(1 << 16);
  constexpr int Workers = 8, PerWorker = 500;
  ThreadPool Pool(Workers);
  std::vector<std::future<void>> Pending;
  for (int W = 0; W < Workers; ++W)
    Pending.push_back(Pool.enqueue([&C, W] {
      for (int I = 0; I < PerWorker; ++I) {
        Hash128 K = hash128Combine(hash128Seed(0xAB),
                                   static_cast<std::uint64_t>(I));
        C.insert(K, I);
        auto V = C.lookup(K);
        ASSERT_TRUE(V.has_value());
        EXPECT_EQ(*V, I); // existing entries win; all writers agree anyway
        (void)W;
      }
    }));
  for (auto &F : Pending)
    F.get();
  EXPECT_EQ(C.size(), static_cast<std::size_t>(PerWorker));
}

TEST_F(CacheTest, ShardedCacheEvictsBeyondCapacity) {
  ShardedCache<int> C(16); // one entry per shard
  std::size_t Evicted = 0;
  for (int I = 0; I < 320; ++I) {
    Hash128 K = hash128Combine(hash128Seed(0xCD),
                               static_cast<std::uint64_t>(I));
    Evicted += C.insert(K, I).Evicted;
  }
  EXPECT_LE(C.size(), 16u);
  EXPECT_EQ(C.size() + Evicted, 320u);
}

// --- SMT query cache ----------------------------------------------------===//

TEST_F(CacheTest, SmtCacheHitOnAlphaEquivalentQuery) {
  enableMem();
  PerfSnapshot Before = snapshotPerf();

  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A1 = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  SmtModel M1;
  ASSERT_EQ(quickCheck({A1}, 1000, &M1), SmtResult::Sat);
  ASSERT_NE(M1.lookup(X->Id), nullptr);
  long long V1 = M1.lookup(X->Id)->getInt();
  EXPECT_GT(V1, 3);

  // Same query over a different variable: must hit, and the cached model
  // value must be rebound to the new variable.
  VarPtr Z = freshVar("z", Type::intTy());
  TermPtr A2 = mkOp(OpKind::Gt, {mkVar(Z), mkIntLit(3)});
  SmtModel M2;
  ASSERT_EQ(quickCheck({A2}, 1000, &M2), SmtResult::Sat);
  ASSERT_NE(M2.lookup(Z->Id), nullptr);
  EXPECT_EQ(M2.lookup(Z->Id)->getInt(), V1);

  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::CacheSmtHits), 1u);
  EXPECT_GE(Delta.get(PerfCounter::CacheSmtInserts), 1u);
}

TEST_F(CacheTest, SmtCacheCachesUnsat) {
  enableMem();
  VarPtr X = freshVar("x", Type::intTy());
  std::vector<TermPtr> Q = {mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)}),
                            mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})};
  ASSERT_EQ(quickCheck(Q, 1000), SmtResult::Unsat);
  PerfSnapshot Before = snapshotPerf();
  ASSERT_EQ(quickCheck(Q, 1000), SmtResult::Unsat);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::CacheSmtHits), 1u);
  // The hit skipped Z3 but still counted the verdict.
  EXPECT_GE(Delta.get(PerfCounter::SmtUnsat), 1u);
}

TEST_F(CacheTest, SmtCacheRespectsSoftAssertionSemantics) {
  enableMem();
  // Hard x>5 with soft x==0: the MaxSAT-lite loop drops the soft and
  // answers Sat. The memoized answer must reproduce that, and must not
  // be confused with the all-hard variant (which is Unsat).
  auto RunSoft = [] {
    VarPtr X = freshVar("x", Type::intTy());
    SmtQuery Q;
    Q.add(mkOp(OpKind::Gt, {mkVar(X), mkIntLit(5)}));
    Q.addSoft(mkEq(mkVar(X), mkIntLit(0)));
    SmtModel M;
    SmtResult R = Q.checkSat(1000, &M);
    return std::make_pair(R, M.lookup(X->Id) ? M.lookup(X->Id)->getInt() : 0);
  };
  auto [R1, V1] = RunSoft();
  ASSERT_EQ(R1, SmtResult::Sat);
  EXPECT_GT(V1, 5);

  PerfSnapshot Before = snapshotPerf();
  auto [R2, V2] = RunSoft();
  EXPECT_EQ(R2, SmtResult::Sat);
  EXPECT_EQ(V2, V1); // reproduced from the cache
  EXPECT_GE(snapshotPerf().since(Before).get(PerfCounter::CacheSmtHits), 1u);

  // All-hard variant: distinct key, genuinely Unsat.
  VarPtr X = freshVar("x", Type::intTy());
  SmtQuery Hard;
  Hard.add(mkOp(OpKind::Gt, {mkVar(X), mkIntLit(5)}));
  Hard.add(mkEq(mkVar(X), mkIntLit(0)));
  EXPECT_EQ(Hard.checkSat(1000), SmtResult::Unsat);
}

TEST_F(CacheTest, SmtCacheBypassedOnExpiredDeadline) {
  enableMem();
  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(100)});

  // Populate the cache with the true verdict first.
  ASSERT_EQ(quickCheck({A}, 1000), SmtResult::Sat);

  // An expired deadline must return Unknown without consulting the cache —
  // an early-exit answer may not masquerade as the query's verdict — and
  // must not insert anything.
  Deadline Expired = Deadline::afterMs(1);
  while (!Expired.expired()) {
  }
  PerfSnapshot Before = snapshotPerf();
  EXPECT_EQ(quickCheck({A}, 1000, nullptr, &Expired), SmtResult::Unknown);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(Delta.get(PerfCounter::CacheSmtHits), 0u);
  EXPECT_EQ(Delta.get(PerfCounter::CacheSmtMisses), 0u);
  EXPECT_EQ(Delta.get(PerfCounter::CacheSmtInserts), 0u);
  EXPECT_GE(Delta.get(PerfCounter::SmtBudget), 1u);
}

TEST_F(CacheTest, SmtEntryCodecRejectsGarbage) {
  SmtCacheEntry E;
  E.Result = CachedSmtResult::Sat;
  E.ModelBySlot = {Value::mkInt(7), Value::mkBool(true)};
  E.RequestValues = {Value::mkTuple({Value::mkInt(1), Value::mkInt(2)})};
  auto Back = decodeSmtEntry(encodeSmtEntry(E));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Result, CachedSmtResult::Sat);
  ASSERT_EQ(Back->ModelBySlot.size(), 2u);
  EXPECT_TRUE(valueEquals(Back->ModelBySlot[0], E.ModelBySlot[0]));
  ASSERT_EQ(Back->RequestValues.size(), 1u);
  EXPECT_TRUE(valueEquals(Back->RequestValues[0], E.RequestValues[0]));

  EXPECT_FALSE(decodeSmtEntry("").has_value());
  EXPECT_FALSE(decodeSmtEntry("x 1 2").has_value());
  EXPECT_FALSE(decodeSmtEntry("s 2 0 7").has_value());      // missing value
  EXPECT_FALSE(decodeSmtEntry("s 1 0 7 junk").has_value()); // trailing junk
}

// --- PBE memo and SGE warm start ----------------------------------------===//

TEST_F(CacheTest, PbeMemoHitsAcrossEnumeratorInstances) {
  enableMem();
  GrammarConfig G;
  G.AllowMinMax = true;

  auto RunOnce = [&G](VarPtr P0, VarPtr P1) {
    Enumerator En(G, {mkVar(P0), mkVar(P1)});
    std::vector<PbeExample> Ex;
    for (auto [A, B] : {std::pair{3, 8}, {9, 2}, {5, 5}}) {
      PbeExample E;
      E.Inputs[P0->Id] = Value::mkInt(A);
      E.Inputs[P1->Id] = Value::mkInt(B);
      E.Output = Value::mkInt(std::max(A, B));
      Ex.push_back(std::move(E));
    }
    return En.synthesize(Type::intTy(), Ex, 5, Deadline::afterMs(10000));
  };

  VarPtr A0 = freshVar("a0", Type::intTy());
  VarPtr A1 = freshVar("a1", Type::intTy());
  ASSERT_TRUE(RunOnce(A0, A1).has_value());

  // A second enumerator over *different* variables: the leaf-value keyed
  // memo must hit and return a term over the new leaves.
  PerfSnapshot Before = snapshotPerf();
  VarPtr B0 = freshVar("b0", Type::intTy());
  VarPtr B1 = freshVar("b1", Type::intTy());
  auto R = RunOnce(B0, B1);
  ASSERT_TRUE(R.has_value());
  Env E;
  E[B0->Id] = Value::mkInt(4);
  E[B1->Id] = Value::mkInt(11);
  EXPECT_EQ(evalScalarTerm(*R, E)->getInt(), 11);
  EXPECT_GE(snapshotPerf().since(Before).get(PerfCounter::CachePbeHits), 1u);
}

TEST_F(CacheTest, SgeSolverWarmStartsFromSolutionCache) {
  enableMem();
  auto Solve = [] {
    VarPtr A = freshVar("a", Type::intTy());
    VarPtr B = freshVar("b", Type::intTy());
    std::vector<UnknownSig> Unknowns = {
        UnknownSig{"join", {Type::intTy(), Type::intTy()}, Type::intTy()}};
    Sge System;
    System.Eqns.push_back(SgeEquation{
        mkTrue(), mkUnknown("join", Type::intTy(), {mkVar(A), mkVar(B)}),
        mkAdd(mkVar(A), mkVar(B)), 0});
    GrammarConfig G;
    SgeSolver Solver(Unknowns, G);
    return Solver.solve(System, Deadline::afterMs(30000));
  };
  SgeResult R1 = Solve();
  ASSERT_EQ(R1.Status, SgeStatus::Solved);

  // Alpha-renamed rebuild of the same system: the second solve must hit the
  // solution cache and succeed in a single (verification-only) round.
  PerfSnapshot Before = snapshotPerf();
  SgeResult R2 = Solve();
  ASSERT_EQ(R2.Status, SgeStatus::Solved);
  EXPECT_EQ(R2.Rounds, 1);
  EXPECT_GE(snapshotPerf().since(Before).get(PerfCounter::CacheSgeHits), 1u);
}

// --- DiskStore ----------------------------------------------------------===//

TEST_F(CacheTest, DiskStoreRoundTrip) {
  std::string Dir = freshDir("roundtrip");
  std::string Err;
  auto Store = DiskStore::open(Dir, Err);
  ASSERT_NE(Store, nullptr) << Err;
  Hash128 K1 = hash128Seed(1), K2 = hash128Seed(2);
  Store->append("seg", K1, "payload one");
  Store->append("seg", K2, "payload\ntwo \"quoted\"");
  Store->append("seg", K1, "payload one revised"); // last wins on reload

  auto Reopened = DiskStore::open(Dir, Err);
  ASSERT_NE(Reopened, nullptr) << Err;
  DiskStore::SegmentMap Seg = Reopened->loadSegment("seg");
  ASSERT_EQ(Seg.size(), 2u);
  EXPECT_EQ(Seg.at(K1), "payload one revised");
  EXPECT_EQ(Seg.at(K2), "payload\ntwo \"quoted\"");
  EXPECT_EQ(Reopened->corruptLinesSkipped(), 0u);
}

TEST_F(CacheTest, DiskStoreSkipsCorruptAndTornLines) {
  std::string Dir = freshDir("corrupt");
  std::string Err;
  {
    auto Store = DiskStore::open(Dir, Err);
    ASSERT_NE(Store, nullptr) << Err;
    Store->append("seg", hash128Seed(1), "good one");
    Store->append("seg", hash128Seed(2), "good two");
  }
  {
    // Corrupt the middle and tear the tail, as a crash would.
    std::ofstream OS(Dir + "/seg.jsonl", std::ios::app);
    OS << "{\"k\":\"zzzz\",\"p\":\"bad\",\"c\":0}\n";     // malformed key
    std::string Line = formatStoreLine(hash128Seed(3), "flipped");
    Line[Line.size() / 2] ^= 1; // CRC mismatch
    OS << Line << "\n";
    OS << "{\"k\":\"0123"; // torn tail: partial final line, no newline
  }
  auto Store = DiskStore::open(Dir, Err);
  ASSERT_NE(Store, nullptr) << Err;
  DiskStore::SegmentMap Seg = Store->loadSegment("seg");
  EXPECT_EQ(Seg.size(), 2u);
  EXPECT_EQ(Seg.at(hash128Seed(1)), "good one");
  EXPECT_EQ(Seg.at(hash128Seed(2)), "good two");
  EXPECT_GE(Store->corruptLinesSkipped(), 2u);
}

TEST_F(CacheTest, DiskStoreRefusesUnknownVersion) {
  std::string Dir = freshDir("version");
  fs::create_directories(Dir);
  std::ofstream(Dir + "/store.meta") << "se2gis-cache v999\n";
  std::string Err;
  EXPECT_EQ(DiskStore::open(Dir, Err), nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST_F(CacheTest, StoreLineParserIsStrict) {
  Hash128 K = hash128Seed(42);
  std::string Line = formatStoreLine(K, "abc");
  Hash128 KeyOut{};
  std::string Payload;
  ASSERT_TRUE(parseStoreLine(Line, KeyOut, Payload));
  EXPECT_EQ(KeyOut, K);
  EXPECT_EQ(Payload, "abc");
  EXPECT_FALSE(parseStoreLine("", KeyOut, Payload));
  EXPECT_FALSE(parseStoreLine("{}", KeyOut, Payload));
  EXPECT_FALSE(parseStoreLine(Line.substr(0, Line.size() - 4), KeyOut,
                              Payload));
}

// --- Persistent end-to-end ----------------------------------------------===//

TEST_F(CacheTest, DiskModePersistsSmtVerdictsAcrossReconfiguration) {
  std::string Dir = freshDir("e2e");
  CacheSettings S;
  S.Mode = CacheMode::Disk;
  S.Dir = Dir;
  configureCache(S);

  VarPtr X = freshVar("x", Type::intTy());
  TermPtr A = mkEq(mkAdd(mkVar(X), mkIntLit(2)), mkIntLit(9));
  SmtModel M;
  ASSERT_EQ(quickCheck({A}, 1000, &M), SmtResult::Sat);
  EXPECT_EQ(M.lookup(X->Id)->getInt(), 7);

  // Simulate a fresh process: drop all in-memory state, re-open the store.
  shutdownCache();
  configureCache(S);

  PerfSnapshot Before = snapshotPerf();
  VarPtr Z = freshVar("z", Type::intTy());
  TermPtr B = mkEq(mkAdd(mkVar(Z), mkIntLit(2)), mkIntLit(9));
  SmtModel M2;
  ASSERT_EQ(quickCheck({B}, 1000, &M2), SmtResult::Sat);
  EXPECT_EQ(M2.lookup(Z->Id)->getInt(), 7);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::CacheSmtHits), 1u);
}

// The suite-level warm start: a second disk-mode sweep in a fresh process
// takes every Realizable verdict from the "suite" segment (re-verified, so
// the SMT segment pays off too) and reaches the same verdicts.
TEST_F(CacheTest, SuiteDiskWarmStartReusesVerifiedSolutions) {
  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 20000;
  Opts.Config.Filter = "sortedlist/m"; // min, max, min_max
  Opts.Config.Jobs = 2;
  Opts.Config.Verbose = false;
  Opts.Config.Cache.Mode = CacheMode::Disk;
  Opts.Config.Cache.Dir = freshDir("suite");

  PerfSnapshot Before = snapshotPerf();
  std::vector<SuiteRecord> Cold = runSuite(Opts);
  PerfSnapshot ColdDelta = snapshotPerf().since(Before);
  ASSERT_GE(Cold.size(), 2u) << "filter no longer matches a sub-suite";
  EXPECT_GT(ColdDelta.hist(PerfHistogram::SmtCheckNs).Count, 0u);

  shutdownCache(); // a fresh process: only the store on disk remains
  Before = snapshotPerf();
  std::vector<SuiteRecord> Warm = runSuite(Opts);
  PerfSnapshot WarmDelta = snapshotPerf().since(Before);

  ASSERT_EQ(Cold.size(), Warm.size());
  std::uint64_t Realizable = 0;
  for (size_t I = 0; I < Cold.size(); ++I) {
    SCOPED_TRACE(Cold[I].Def->Name);
    EXPECT_EQ(Cold[I].Result.V, Warm[I].Result.V);
    if (Warm[I].Result.V == Verdict::Realizable) {
      ++Realizable;
      EXPECT_EQ(Warm[I].Result.Ev.Source, VerdictSource::Cache)
          << Warm[I].Result.Detail;
    }
  }
  EXPECT_GT(Realizable, 0u);
  EXPECT_EQ(WarmDelta.get(PerfCounter::CacheSuiteHits), Realizable);
  EXPECT_GT(WarmDelta.get(PerfCounter::CacheSmtHits), 0u);
}

// --- Configuration ------------------------------------------------------===//

TEST_F(CacheTest, ParseCacheModeAcceptsAliases) {
  EXPECT_EQ(parseCacheMode("off"), CacheMode::Off);
  EXPECT_EQ(parseCacheMode("mem"), CacheMode::Mem);
  EXPECT_EQ(parseCacheMode("MEMORY"), CacheMode::Mem);
  EXPECT_EQ(parseCacheMode("disk"), CacheMode::Disk);
  EXPECT_EQ(parseCacheMode("bogus"), std::nullopt);
}

TEST_F(CacheTest, ValidateCacheDirRejectsRegularFile) {
  std::string Dir = freshDir("notadir");
  fs::create_directories(fs::path(Dir).parent_path());
  std::ofstream(Dir) << "I am a file, not a directory\n";
  EXPECT_FALSE(validateCacheDir(Dir).empty());
}

TEST_F(CacheTest, FromEnvRejectsUnusableCacheDir) {
  std::string Dir = freshDir("envreject");
  std::ofstream(Dir) << "occupied\n";
  ::setenv("SE2GIS_CACHE", "disk", 1);
  ::setenv("SE2GIS_CACHE_DIR", Dir.c_str(), 1);
  EXPECT_THROW((void)SolverConfig::fromEnv(), UserError);
  ::setenv("SE2GIS_CACHE", "bogus", 1);
  EXPECT_THROW((void)SolverConfig::fromEnv(), UserError);
  ::unsetenv("SE2GIS_CACHE");
  ::unsetenv("SE2GIS_CACHE_DIR");
}

TEST_F(CacheTest, ConfigureCacheThrowsOnUnusableDir) {
  std::string Dir = freshDir("confreject");
  std::ofstream(Dir) << "occupied\n";
  CacheSettings S;
  S.Mode = CacheMode::Disk;
  S.Dir = Dir;
  EXPECT_THROW(configureCache(S), UserError);
  EXPECT_EQ(cacheMode(), CacheMode::Off); // failed configure leaves Off
}

} // namespace
