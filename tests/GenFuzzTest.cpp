//===- GenFuzzTest.cpp - Generator, shrinker, and corpus replay tests -----===//
//
// Covers the three halves of the fuzzing subsystem that don't need a
// solver run: deterministic sampling, greedy shrinking against synthetic
// predicates, and the committed corpus replaying clean through the full
// differential matrix (the solver-backed half, kept small).
//
//===----------------------------------------------------------------------===//

#include "gen/Differential.h"
#include "gen/Generator.h"
#include "gen/Shrink.h"

#include "support/PerfCounters.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace se2gis;

namespace {

// --- Determinism --------------------------------------------------------===//

TEST(GeneratorTest, SameSeedSameCases) {
  for (unsigned Case = 0; Case < 20; ++Case) {
    auto A = generateCase(/*GenSeed=*/7, Case);
    auto B = generateCase(/*GenSeed=*/7, Case);
    ASSERT_TRUE(A && B) << Case;
    EXPECT_EQ(caseSource(*A), caseSource(*B)) << Case;
  }
}

TEST(GeneratorTest, DifferentSeedsDiverge) {
  // Not every individual case differs, but across a window the streams
  // must not be identical.
  unsigned Differences = 0;
  for (unsigned Case = 0; Case < 10; ++Case) {
    auto A = generateCase(/*GenSeed=*/7, Case);
    auto B = generateCase(/*GenSeed=*/8, Case);
    ASSERT_TRUE(A && B);
    if (caseSource(*A) != caseSource(*B))
      ++Differences;
  }
  EXPECT_GT(Differences, 0u);
}

TEST(GeneratorTest, CasesAreIndependentOfEarlierCases) {
  // Case N's source depends only on (seed, N), never on how many attempts
  // earlier cases burned — the per-case RNG stream is keyed, not shared.
  auto Late = generateCase(/*GenSeed=*/7, 15);
  for (unsigned Prefix = 0; Prefix < 15; ++Prefix)
    generateCase(/*GenSeed=*/7, Prefix);
  auto LateAgain = generateCase(/*GenSeed=*/7, 15);
  ASSERT_TRUE(Late && LateAgain);
  EXPECT_EQ(caseSource(*Late), caseSource(*LateAgain));
}

TEST(GeneratorTest, CountsGenerationInPerfCounters) {
  PerfSnapshot Before = snapshotPerf();
  for (unsigned Case = 0; Case < 5; ++Case)
    generateCase(/*GenSeed=*/11, Case);
  PerfSnapshot Delta = snapshotPerf().since(Before);
  EXPECT_GE(Delta.get(PerfCounter::GenCases), 5u);
}

// --- Shrinking ----------------------------------------------------------===//

/// A deterministic seed-scan for a case with the structure a test needs.
template <typename Pred> GenCase findCase(Pred Want) {
  for (unsigned Case = 0; Case < 200; ++Case) {
    auto C = generateCase(/*GenSeed=*/99, Case);
    if (C && Want(*C))
      return *C;
  }
  ADD_FAILURE() << "no seed-99 case matches the structural predicate";
  return GenCase{};
}

TEST(ShrinkTest, ShrinksToMinimalStructure) {
  // "Fails" unconditionally, so everything optional must go. The minimal
  // reproducer is the base constructor alone (a one-value finite type),
  // no optional features, trivial bodies.
  GenCase Fat = findCase([](const GenCase &C) {
    return C.Ctors.size() >= 3 && C.WithInvariant && C.HasExtraParam;
  });
  auto AlwaysFails = [](const GenCase &) { return true; };
  GenCase Min = shrinkCase(Fat, AlwaysFails);
  EXPECT_EQ(Min.Ctors.size(), 1u);
  EXPECT_FALSE(Min.WithInvariant);
  EXPECT_FALSE(Min.WithExplicitRepr);
  EXPECT_FALSE(Min.HasExtraParam);
  for (const GenCtor &Ct : Min.Ctors)
    EXPECT_EQ(Ct.IntFields, 0u);
  for (const auto &Args : Min.TargetArgs)
    EXPECT_TRUE(Args.empty());
  // Shrunk cases must still load through the real frontend.
  EXPECT_NO_THROW(loadCase(Min));
}

TEST(ShrinkTest, PreservesThePredicate) {
  // "Fails" iff the invariant is present: shrinking must keep it while
  // discarding everything else it can.
  GenCase Fat = findCase([](const GenCase &C) {
    return C.WithInvariant && C.Ctors.size() >= 3;
  });
  auto NeedsInvariant = [](const GenCase &C) { return C.WithInvariant; };
  GenCase Min = shrinkCase(Fat, NeedsInvariant);
  EXPECT_TRUE(Min.WithInvariant);
  EXPECT_EQ(Min.Ctors.size(), 1u);
  EXPECT_NO_THROW(loadCase(Min));
}

TEST(ShrinkTest, RespectsTheEvaluationBudget) {
  GenCase Fat = findCase([](const GenCase &C) { return C.Ctors.size() >= 3; });
  ShrinkStats SS;
  shrinkCase(Fat, [](const GenCase &) { return true; }, /*MaxEvals=*/7, &SS);
  EXPECT_LE(SS.Attempts, 7u);
}

TEST(ShrinkTest, ReturnsInputWhenNothingShrinks) {
  GenCase Min = shrinkCase(
      findCase([](const GenCase &C) { return C.Ctors.size() >= 2; }),
      [](const GenCase &) { return false; });
  // Nothing "still fails", so no candidate is ever accepted.
  EXPECT_EQ(caseSource(Min),
            caseSource(findCase(
                [](const GenCase &C) { return C.Ctors.size() >= 2; })));
}

// --- Corpus replay ------------------------------------------------------===//

TEST(FuzzCorpusTest, CommittedReproducersStayFixed) {
  // Every shrunk reproducer the fuzzer ever committed must keep passing
  // the full differential matrix: these are regression tests for real
  // bugs found by fuzzing. TimeoutOnly is tolerated (slow CI), failure
  // kinds are not.
  namespace fs = std::filesystem;
  fs::path Dir(SE2GIS_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  DiffOptions Opts;
  Opts.TimeoutMs = 10000;
  std::vector<FuzzConfigSpec> Matrix = defaultMatrix(/*Full=*/false);
  unsigned Replayed = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".se2")
      continue;
    SCOPED_TRACE(E.path().filename().string());
    std::ifstream In(E.path());
    ASSERT_TRUE(In.good());
    std::ostringstream SS;
    SS << In.rdbuf();
    CaseReport Rep = runSourceDifferential(SS.str(), Replayed, Matrix, Opts);
    EXPECT_FALSE(isFailure(Rep.Kind)) << Rep.str();
    ++Replayed;
  }
  EXPECT_GT(Replayed, 0u) << "corpus directory holds no .se2 cases";
}

TEST(FuzzHarnessTest, InjectedBugIsCaughtAndShrunk) {
  // End-to-end self-test of the failure path on healthy code: flip one
  // verdict, expect a Contradiction, and expect shrinking to keep it
  // while making the case no larger.
  DiffOptions Opts;
  Opts.TimeoutMs = 4000;
  Opts.InjectBug = true;
  std::vector<FuzzConfigSpec> Matrix = defaultMatrix(/*Full=*/false);
  // Seed-1 case 0 resolves quickly and conclusively on every config.
  auto C = generateCase(/*GenSeed=*/1, 0);
  ASSERT_TRUE(C);
  CaseReport Rep = runCaseDifferential(*C, Matrix, Opts);
  ASSERT_EQ(Rep.Kind, FailureKind::Contradiction) << Rep.str();
  auto StillFails = [&](const GenCase &Cand) {
    return runCaseDifferential(Cand, Matrix, Opts).Kind ==
           FailureKind::Contradiction;
  };
  ShrinkStats SS;
  GenCase Min = shrinkCase(*C, StillFails, /*MaxEvals=*/40, &SS);
  EXPECT_LE(caseSource(Min).size(), caseSource(*C).size());
  EXPECT_EQ(runCaseDifferential(Min, Matrix, Opts).Kind,
            FailureKind::Contradiction);
}

} // namespace
