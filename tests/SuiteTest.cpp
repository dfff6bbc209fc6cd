//===- SuiteTest.cpp - Benchmark registry integration tests ---------------===//

#include "suite/Runner.h"

#include "eval/Interp.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

using namespace se2gis;

namespace {

TEST(SuiteTest, RegistryIsWellFormed) {
  const auto &All = allBenchmarks();
  ASSERT_GE(All.size(), 100u);
  int Realizable = 0, Unrealizable = 0;
  std::set<std::string> Names;
  for (const BenchmarkDef &B : All) {
    EXPECT_TRUE(Names.insert(B.Name).second) << "duplicate " << B.Name;
    EXPECT_FALSE(B.Category.empty());
    (B.ExpectRealizable ? Realizable : Unrealizable) += 1;
  }
  // The paper's split: 95 realizable / 45 unrealizable of 140.
  EXPECT_GE(Realizable, 60);
  EXPECT_GE(Unrealizable, 40);
}

TEST(SuiteTest, EveryBenchmarkLoadsAndValidates) {
  for (const BenchmarkDef &B : allBenchmarks()) {
    try {
      Problem P = loadBenchmark(B);
      EXPECT_FALSE(P.Unknowns.empty()) << B.Name;
      EXPECT_NE(P.Theta, nullptr) << B.Name;
    } catch (const UserError &E) {
      ADD_FAILURE() << B.Name << ": " << E.what();
    }
  }
}

TEST(SuiteTest, FindBenchmarkByName) {
  EXPECT_NE(findBenchmark("sortedlist/min"), nullptr);
  EXPECT_NE(findBenchmark("bst/frequency"), nullptr);
  EXPECT_NE(findBenchmark("unreal/forced_unknown_nesting"), nullptr);
  EXPECT_EQ(findBenchmark("no/such"), nullptr);
}

// Quick end-to-end spot checks through the runner: one easy realizable, one
// easy unrealizable, filtered to keep CI time small.
TEST(SuiteTest, RunnerSolvesFilteredSubset) {
  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 15000;
  Opts.Algorithms = {AlgorithmKind::SE2GIS};
  Opts.Config.Filter = "alist/count_key";
  Opts.Config.Verbose = false;
  auto Recs = runSuite(Opts);
  ASSERT_EQ(Recs.size(), 1u);
  EXPECT_TRUE(isSolved(Recs[0])) << Recs[0].Result.Detail;
}

TEST(SuiteTest, RunnerDetectsUnrealizableSubset) {
  SuiteOptions Opts;
  Opts.Config.Algo.TimeoutMs = 15000;
  Opts.Algorithms = {AlgorithmKind::SE2GIS, AlgorithmKind::SEGISUC};
  Opts.Config.Filter = "unreal/min_no_invariant";
  Opts.Config.Verbose = false;
  auto Recs = runSuite(Opts);
  ASSERT_EQ(Recs.size(), 2u);
  for (const SuiteRecord &R : Recs)
    EXPECT_TRUE(isSolved(R))
        << algorithmName(R.Algorithm) << ": " << R.Result.Detail;
}

// The per-run perf delta carries the counts of the paper's Tables 1–2 (the
// CLI's `telemetry:` line prints them).
TEST(SuiteTest, RunStatsCarryAlgorithmCounters) {
  Problem P = loadBenchmark(*findBenchmark("list/sum"));
  AlgoOptions Opts;
  Opts.TimeoutMs = 15000;
  Outcome R = runAlgorithm(AlgorithmKind::SE2GIS, P, Opts);
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;
  for (PerfCounter C :
       {PerfCounter::SmtQueries, PerfCounter::EnumCandidates,
        PerfCounter::WitnessQueries, PerfCounter::SymbolicUnfoldings})
    EXPECT_GT(R.Stats.Perf.get(C), 0u) << perfCounterName(C);
  EXPECT_NE(R.Stats.Perf.str().find("witness_queries="), std::string::npos)
      << R.Stats.Perf.str();
}

// A correctness property over solved realizable benchmarks: the synthesized
// solution agrees with the reference on random invariant-satisfying inputs
// (parameterized over a fast representative subset).
class SolutionAgreement : public ::testing::TestWithParam<const char *> {};

TEST_P(SolutionAgreement, MatchesReferenceOnSamples) {
  const BenchmarkDef *Def = findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  Problem P = loadBenchmark(*Def);
  AlgoOptions Opts;
  Opts.TimeoutMs = 20000;
  Outcome R = runSE2GIS(P, Opts);
  ASSERT_EQ(R.V, Verdict::Realizable) << R.Detail;

  // Sample bounded inputs satisfying the invariant and compare.
  Interpreter Ref(*P.Prog);
  Interpreter Tgt(*P.Prog);
  Tgt.bindUnknowns(&R.Solution);

  // Deterministic pseudo-random input values.
  unsigned Seed = 12345;
  auto NextInt = [&]() {
    Seed = Seed * 1103515245 + 12345;
    return static_cast<long long>((Seed >> 16) % 11) - 5;
  };
  std::function<ValuePtr(const Datatype *, int)> Gen =
      [&](const Datatype *D, int Depth) -> ValuePtr {
    unsigned CI = Depth <= 0 ? 0 : (Seed >> 8) % D->numConstructors();
    Seed = Seed * 1103515245 + 12345;
    if (Depth <= 0) {
      for (unsigned K = 0; K < D->numConstructors(); ++K)
        if (D->isBaseConstructor(K)) {
          CI = K;
          break;
        }
    }
    const ConstructorDecl &C = D->getConstructor(CI);
    std::vector<ValuePtr> Fields;
    for (const TypePtr &FT : C.Fields) {
      if (FT->isData())
        Fields.push_back(Gen(FT->getDatatype(), Depth - 1));
      else if (FT->isInt())
        Fields.push_back(Value::mkInt(NextInt()));
      else
        Fields.push_back(Value::mkBool(NextInt() > 0));
    }
    return Value::mkData(&C, std::move(Fields));
  };

  const RecFunction *RefFn = P.Prog->findFunction(P.Reference);
  int Checked = 0;
  for (int Trial = 0; Trial < 200 && Checked < 25; ++Trial) {
    ValuePtr X = Gen(P.Theta, 3);
    if (!P.Invariant.empty() &&
        !Ref.call(P.Invariant, {X})->getBool())
      continue;
    ++Checked;
    std::vector<ValuePtr> RefArgs, TgtArgs;
    for (const VarPtr &E : RefFn->getParams()) {
      (void)E;
      ValuePtr V = Value::mkInt(NextInt());
      RefArgs.push_back(V);
      TgtArgs.push_back(V);
    }
    RefArgs.push_back(Ref.call(P.Repr, {X}));
    TgtArgs.push_back(X);
    ValuePtr Want = Ref.call(P.Reference, RefArgs);
    ValuePtr Got = Tgt.call(P.Target, TgtArgs);
    EXPECT_TRUE(valueEquals(Want, Got))
        << "input " << X->str() << ": reference " << Want->str()
        << ", synthesized " << Got->str();
  }
  EXPECT_GT(Checked, 0) << "no invariant-satisfying samples generated";
}

INSTANTIATE_TEST_SUITE_P(
    FastRealizable, SolutionAgreement,
    ::testing::Values("list/sum", "list/count_eq", "sortedlist/min",
                      "sortedlist/max", "tree/sum", "parallel/sum",
                      "postcond/min_max", "evenlist/parity_of_sum",
                      "constlist/max"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
