//===- ChcChannelTest.cpp - CHC channel, encoder, and Evidence tests ------===//

#include "chc/ChcChannel.h"

#include "chc/ChcEncoder.h"
#include "chc/FixedpointSolver.h"
#include "core/Portfolio.h"
#include "core/SynthesisTask.h"
#include "frontend/Elaborate.h"
#include "suite/Benchmarks.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "synth/Grammar.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

using namespace se2gis;

namespace {

Problem load(const char *Name) {
  const BenchmarkDef *Def = findBenchmark(Name);
  EXPECT_NE(Def, nullptr) << Name;
  return loadBenchmark(*Def);
}

bool anyRuleContains(const FixedpointSolver &FP, const std::string &Needle) {
  for (const std::string &R : FP.rules())
    if (R.find(Needle) != std::string::npos)
      return true;
  return false;
}

// --- Encoder golden clauses ---------------------------------------------===//

TEST(ChcEncoderTest, EmitsRelationsAndGoalForTinyProblem) {
  Problem P = load("unreal/sum");
  GrammarConfig G = inferGrammar(P);
  FixedpointSolver FP;
  ChcEncoder Enc(P, G);
  ChcSystem Sys = Enc.encode(FP);
  ASSERT_TRUE(Sys.Encodable) << Sys.Reason;

  // Shape of the system, not exact counts: some bounded terms, at least one
  // evaluation point per unknown use, and constraints that mention them.
  EXPECT_GT(Sys.NumTerms, 0u);
  EXPECT_GT(Sys.NumPoints, 0u);
  EXPECT_GT(Sys.NumEquations, 0u);
  EXPECT_EQ(Sys.NumRules, FP.numRules());
  EXPECT_GT(Sys.NumRules, 0u);

  // Golden structure: the per-unknown integer relation, the ∀k constant
  // rule (an unbound `chc_k` column), and the realizable goal rule.
  EXPECT_TRUE(anyRuleContains(FP, "chc_int_"));
  EXPECT_TRUE(anyRuleContains(FP, "chc_k"));
  EXPECT_TRUE(anyRuleContains(FP, "chc_realizable"));
  // The goal atom is the 0-ary realizable relation.
  EXPECT_EQ(Enc.goal().to_string(), "chc_realizable");
}

TEST(ChcEncoderTest, GrammarGatesOperatorRules) {
  Problem P = load("unreal/sum");
  GrammarConfig G; // default: no min/max, no mul
  G.AllowMinMax = false;
  G.AllowMul = false;
  FixedpointSolver FP;
  ChcEncoder Enc(P, G, ChcOptions{});
  ChcSystem Sys = Enc.encode(FP);
  ASSERT_TRUE(Sys.Encodable) << Sys.Reason;
  size_t Base = FP.numRules();

  GrammarConfig G2 = G;
  G2.AllowMinMax = true;
  G2.AllowMul = true;
  FixedpointSolver FP2;
  ChcEncoder Enc2(P, G2, ChcOptions{});
  ChcSystem Sys2 = Enc2.encode(FP2);
  ASSERT_TRUE(Sys2.Encodable) << Sys2.Reason;
  EXPECT_GT(FP2.numRules(), Base); // min/max/mul rules were added
}

// --- Coverage-gap counters ----------------------------------------------===//

TEST(ChcEncoderTest, CountsNonscalarBailInPerfCounters) {
  // A tuple-returning unknown (list/range_span's $g0 : int * int) is
  // outside the CHC fragment; the encoder must refuse AND record the
  // coverage gap, so "how often does the channel sit out" is answerable
  // from perf JSON alone.
  Problem P = load("list/range_span");
  PerfSnapshot Before = snapshotPerf();
  FixedpointSolver FP;
  ChcEncoder Enc(P, inferGrammar(P));
  ChcSystem Sys = Enc.encode(FP);
  EXPECT_FALSE(Sys.Encodable);
  EXPECT_NE(Sys.Reason.find("non-base type"), std::string::npos)
      << Sys.Reason;
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::ChcSkippedNonscalar), 1u);
  EXPECT_EQ(Delta.get(PerfCounter::ChcSkippedEquations), 0u);
}

TEST(ChcEncoderTest, CountsSkippedEquationsInPerfCounters) {
  // A triply-recursive reference costs ~3^depth evaluation steps, so the
  // deeper bounded shapes exhaust the symbolic-evaluation fuel; the
  // encoder must drop exactly those equations (soundly — fewer
  // constraints only weakens the system) and record each skip in the
  // counters so the coverage loss is measurable.
  Problem P = loadProblem("type v = VZ | VS of int * v\n"
                          "\n"
                          "let rec vspec : int = function\n"
                          "  | VZ -> 0\n"
                          "  | VS (a, l) -> vspec l + vspec l + vspec l\n"
                          "\n"
                          "let rec vtgt : int = function\n"
                          "  | VZ -> $v0\n"
                          "  | VS (a, l) -> $v1 a (vtgt l)\n"
                          "\n"
                          "synthesize vtgt equiv vspec\n");
  PerfSnapshot Before = snapshotPerf();
  ChcOptions Opts;
  Opts.MaxTerms = 24; // deep enough that the tail shapes blow the fuel
  FixedpointSolver FP;
  ChcEncoder Enc(P, inferGrammar(P), Opts);
  ChcSystem Sys = Enc.encode(FP);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GT(Delta.get(PerfCounter::ChcSkippedEquations), 0u);
  // The shallow shapes still made it in.
  EXPECT_TRUE(Sys.Encodable) << Sys.Reason;
  EXPECT_GT(Sys.NumTerms, 0u);
}

// --- Verdict parity witness vs CHC --------------------------------------===//

TEST(ChcChannelTest, ProvesUnrealizableWhereWitnessDoes) {
  for (const char *Name : {"unreal/sum", "unreal/min_no_invariant"}) {
    Problem P = load(Name);
    AlgoOptions Opts;
    Opts.TimeoutMs = 20000;
    Outcome Chc = runChcChannel(P, Opts);
    EXPECT_EQ(Chc.V, Verdict::Unrealizable) << Name << ": " << Chc.Detail;
    Outcome Wit = runSE2GIS(P, Opts);
    EXPECT_EQ(Wit.V, Verdict::Unrealizable) << Name << ": " << Wit.Detail;
  }
}

TEST(ChcChannelTest, NeverCallsRealizableProblemUnrealizable) {
  for (const char *Name : {"list/sum", "list/length"}) {
    Problem P = load(Name);
    AlgoOptions Opts;
    Opts.TimeoutMs = 10000;
    Outcome R = runChcChannel(P, Opts);
    // One-sided channel: inconclusive (Failed/Timeout) is fine, a
    // contradictory verdict is not.
    EXPECT_NE(R.V, Verdict::Unrealizable) << Name << ": " << R.Detail;
    EXPECT_NE(R.V, Verdict::Realizable) << Name << ": " << R.Detail;
  }
}

TEST(ChcChannelTest, RaceAgreesWithWitnessOnUnrealizable) {
  // Plain SEGIS has no unrealizability outcome of its own, so under
  // UnrealMode::Race every Unrealizable verdict must come from the raced
  // CHC channel — and must agree with the witness loop's verdict.
  Problem P = load("unreal/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.Unreal = UnrealMode::Race;
  PerfSnapshot Before = snapshotPerf();
  Outcome R = runAlgorithm(AlgorithmKind::SEGIS, P, Opts);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
  EXPECT_EQ(R.Ev.Source, VerdictSource::Chc);
  EXPECT_GT(Delta.get(PerfCounter::ChcQueries), 0u);
  EXPECT_GE(Delta.get(PerfCounter::ChcRaceWins), 1u);
}

// --- Budgets and cancellation -------------------------------------------===//

TEST(ChcChannelTest, ExpiredBudgetIsTimeoutNotFailed) {
  Problem P = load("unreal/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 1; // expires during (or before) the first encode/query
  Outcome R = runChcChannel(P, Opts);
  EXPECT_EQ(R.V, Verdict::Timeout) << R.Detail;
}

TEST(ChcChannelTest, PreCancelledTokenIsTimeout) {
  Problem P = load("unreal/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.Token = CancellationToken::create();
  Opts.Token.requestCancel();
  Outcome R = runChcChannel(P, Opts);
  EXPECT_EQ(R.V, Verdict::Timeout) << R.Detail;
}

TEST(ChcChannelTest, CancellationMidRunStopsTheChannel) {
  // count_between_swap spends several hundred ms in the channel; cancel
  // early and the run must come back promptly as Timeout.
  Problem P = load("unreal/count_between_swap");
  AlgoOptions Opts;
  Opts.TimeoutMs = 60000;
  Opts.Token = CancellationToken::create();
  std::thread Cancel([T = Opts.Token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    T.requestCancel();
  });
  Outcome R = runChcChannel(P, Opts);
  Cancel.join();
  EXPECT_EQ(R.V, Verdict::Timeout) << R.Detail;
  EXPECT_LT(R.Stats.ElapsedMs, 30000.0);
}

// --- Evidence provenance ------------------------------------------------===//

TEST(EvidenceTest, ChcVerdictCarriesClauseCount) {
  Problem P = load("unreal/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runChcChannel(P, Opts);
  ASSERT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
  EXPECT_EQ(R.Ev.Source, VerdictSource::Chc);
  EXPECT_EQ(R.Ev.Channel, "CHC");
  EXPECT_GT(R.Ev.ChcClauses, 0u);
  EXPECT_NE(R.Ev.str().find("clauses"), std::string::npos);
}

TEST(EvidenceTest, WitnessVerdictsCarryWitnessSource) {
  Problem P = load("list/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runSE2GIS(P, Opts);
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  EXPECT_EQ(R.Ev.Source, VerdictSource::Witness);
  EXPECT_EQ(R.Ev.Channel, "SE2GIS");

  Problem U = load("unreal/min_no_invariant");
  Outcome RU = runSEGIS(U, Opts, /*WithUnrealizabilityChecker=*/true);
  ASSERT_EQ(RU.V, Verdict::Unrealizable) << RU.Detail;
  EXPECT_EQ(RU.Ev.Source, VerdictSource::Witness);
  EXPECT_EQ(RU.Ev.Channel, "SEGIS+UC");
}

TEST(EvidenceTest, PortfolioKeepsWinnersEvidence) {
  Problem P = load("unreal/min_no_invariant");
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runPortfolio(P, Opts);
  ASSERT_EQ(R.V, Verdict::Unrealizable) << R.Detail;
  EXPECT_NE(R.Ev.Source, VerdictSource::None);
  EXPECT_FALSE(R.Ev.Channel.empty());
}

TEST(EvidenceTest, InconclusiveOutcomesHaveNoEvidence) {
  Problem P = load("unreal/sum");
  AlgoOptions Opts;
  Opts.TimeoutMs = 1;
  Outcome R = runChcChannel(P, Opts);
  ASSERT_EQ(R.V, Verdict::Timeout) << R.Detail;
  EXPECT_EQ(R.Ev.Source, VerdictSource::None);
  EXPECT_TRUE(R.Ev.str().empty());
}

// --- Mode plumbing ------------------------------------------------------===//

TEST(UnrealModeTest, ParseAndResolve) {
  EXPECT_EQ(parseUnrealMode("witness"), UnrealMode::Witness);
  EXPECT_EQ(parseUnrealMode("CHC"), UnrealMode::Chc);
  EXPECT_EQ(parseUnrealMode("Race"), UnrealMode::Race);
  EXPECT_EQ(parseUnrealMode("auto"), UnrealMode::Auto);
  EXPECT_FALSE(parseUnrealMode("bogus").has_value());

  EXPECT_EQ(resolveUnrealMode(UnrealMode::Auto, AlgorithmKind::Portfolio),
            UnrealMode::Race);
  EXPECT_EQ(resolveUnrealMode(UnrealMode::Auto, AlgorithmKind::SE2GIS),
            UnrealMode::Witness);
  EXPECT_EQ(resolveUnrealMode(UnrealMode::Chc, AlgorithmKind::SE2GIS),
            UnrealMode::Chc);
}

TEST(UnrealModeTest, FromEnvParsesAndRejects) {
  ::setenv("SE2GIS_UNREAL", "chc", 1);
  SolverConfig C = SolverConfig::fromEnv();
  EXPECT_EQ(C.Algo.Unreal, UnrealMode::Chc);
  ::setenv("SE2GIS_UNREAL", "nonsense", 1);
  EXPECT_THROW(SolverConfig::fromEnv(), UserError);
  ::unsetenv("SE2GIS_UNREAL");
}

TEST(UnrealModeTest, ChcModeSuppressesWitnessChannel) {
  // Under UnrealMode::Chc the witness loop is disabled, so an unrealizable
  // verdict can only come from the CHC member of the race.
  Problem P = load("unreal/min_no_invariant");
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.Unreal = UnrealMode::Chc;
  Outcome R = runAlgorithm(AlgorithmKind::SE2GIS, P, Opts);
  if (R.V == Verdict::Unrealizable) {
    EXPECT_EQ(R.Ev.Source, VerdictSource::Chc) << R.Ev.str();
  }
}

} // namespace
