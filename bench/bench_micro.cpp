//===- bench_micro.cpp - Microbenchmarks of the core operations -----------===//
///
/// \file
/// Google-benchmark microbenchmarks of the primitive operations the SE²GIS
/// loops are built from: symbolic unfolding, recursion elimination, frame
/// computation, SGE construction, witness SMT queries, the SMT wrapper on a
/// warm session, and PBE enumeration.
/// These are ours (the paper reports end-to-end numbers only); they document
/// where the time goes.
///
//===----------------------------------------------------------------------===//

#include "cache/CacheConfig.h"
#include "core/Approximation.h"
#include "core/Witness.h"
#include "eval/SymbolicEval.h"
#include "frontend/Elaborate.h"
#include "smt/Solver.h"
#include "suite/Benchmarks.h"
#include "support/PerfCounters.h"
#include "synth/Enumerator.h"
#include "synth/Grammar.h"

#include <benchmark/benchmark.h>

using namespace se2gis;

namespace {

const Problem &minSortedProblem() {
  static Problem P = loadBenchmark(*findBenchmark("sortedlist/min"));
  return P;
}

const Problem &parallelMpsProblem() {
  static Problem P = loadBenchmark(*findBenchmark("postcond/mps"));
  return P;
}

void BM_LoadProblem(benchmark::State &State) {
  const BenchmarkDef *Def = findBenchmark("sortedlist/min");
  for (auto _ : State)
    benchmark::DoNotOptimize(loadBenchmark(*Def));
}
BENCHMARK(BM_LoadProblem);

void BM_SymbolicUnfold(benchmark::State &State) {
  const Problem &P = minSortedProblem();
  SymbolicEvaluator SE(*P.Prog);
  const Datatype *List = P.Theta;
  const ConstructorDecl *Elt = List->findConstructor("Elt");
  const ConstructorDecl *Cons = List->findConstructor("Cons");
  // Build a depth-N bounded list and unfold lmin over it.
  TermPtr T = mkCtor(Elt, {mkIntLit(0)});
  for (int I = 0; I < State.range(0); ++I)
    T = mkCtor(Cons, {mkIntLit(I), T});
  TermPtr Call = mkCall(P.Reference, P.RetTy, {T});
  for (auto _ : State)
    benchmark::DoNotOptimize(SE.eval(Call));
}
BENCHMARK(BM_SymbolicUnfold)->Arg(4)->Arg(16)->Arg(64);

void BM_RecursionElimination(benchmark::State &State) {
  const Problem &P = minSortedProblem();
  RecursionEliminator Elim(P);
  const ConstructorDecl *Cons = P.Theta->findConstructor("Cons");
  TermPtr T = mkCtor(Cons, {mkVar(freshVar("a", Type::intTy())),
                            mkVar(freshVar("l", Type::dataTy(P.Theta)))});
  for (auto _ : State)
    benchmark::DoNotOptimize(Elim.eliminate(T));
}
BENCHMARK(BM_RecursionElimination);

void BM_BuildSge(benchmark::State &State) {
  const Problem &P = parallelMpsProblem();
  Approximation Approx(P);
  Approx.initialize();
  for (auto _ : State)
    benchmark::DoNotOptimize(Approx.buildSge());
}
BENCHMARK(BM_BuildSge);

void BM_ComputeFrame(benchmark::State &State) {
  // u1(max(x,0)) + u2(y): the §6 example.
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Lhs = mkAdd(
      mkUnknown("u1", Type::intTy(),
                {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
      mkUnknown("u2", Type::intTy(), {mkVar(Y)}));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeFrame(Lhs));
}
BENCHMARK(BM_ComputeFrame);

void BM_WitnessQuery(benchmark::State &State) {
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  Sge System;
  System.Eqns.push_back(SgeEquation{
      mkTrue(),
      mkAdd(mkUnknown("h1", Type::intTy(),
                      {mkOp(OpKind::Max, {mkVar(X), mkIntLit(0)})}),
            mkUnknown("h2", Type::intTy(), {mkVar(Y)})),
      mkOp(OpKind::Max, {mkAdd(mkVar(X), mkVar(Y)), mkIntLit(0)}), 0});
  for (auto _ : State)
    benchmark::DoNotOptimize(
        findFunctionalWitness(System, 1000, Deadline()));
}
BENCHMARK(BM_WitnessQuery);

void BM_SmtQueryWarmSession(benchmark::State &State) {
  // One small sat and one small unsat query per iteration on the thread's
  // warm session, cache off: what the SMT wrapper costs around z3::check.
  configureCache(CacheSettings{});
  VarPtr X = freshVar("x", Type::intTy());
  VarPtr Y = freshVar("y", Type::intTy());
  TermPtr Gt3 = mkOp(OpKind::Gt, {mkVar(X), mkIntLit(3)});
  std::vector<TermPtr> Sat = {Gt3, mkOp(OpKind::Lt, {mkVar(Y), mkVar(X)})};
  std::vector<TermPtr> Unsat = {Gt3, mkOp(OpKind::Lt, {mkVar(X), mkIntLit(2)})};
  quickCheck(Sat, 1000); // create the session outside the timed loop
  for (auto _ : State) {
    SmtModel M;
    if (quickCheck(Sat, 1000, &M) != SmtResult::Sat ||
        quickCheck(Unsat, 1000) != SmtResult::Unsat) {
      State.SkipWithError("wrong verdict");
      break;
    }
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_SmtQueryWarmSession);

void BM_PbeEnumeration(benchmark::State &State) {
  GrammarConfig G;
  G.AllowMinMax = true;
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  std::vector<PbeExample> Ex;
  for (long long V = -2; V <= 2; ++V)
    Ex.push_back(PbeExample{
        {{A->Id, Value::mkInt(V)}, {B->Id, Value::mkInt(-V)}},
        Value::mkInt(std::max(V, -V))});
  for (auto _ : State) {
    Enumerator En(G, {mkVar(A), mkVar(B)});
    benchmark::DoNotOptimize(
        En.synthesize(Type::intTy(), Ex, State.range(0), Deadline()));
  }
}
// The target max(a, b) is found at size 3, so a larger size bound would
// time the same search; BM_PbeEnumerationIte is the case that runs to its
// bound.
BENCHMARK(BM_PbeEnumeration)->Arg(3);

/// A search that runs to its size bound: 16 examples, conditionals on, and
/// a target (|a - b| + 1) that no term of size <= 9 fits, so the time is the
/// per-candidate cost times every candidate up to that size.
void BM_PbeEnumerationIte(benchmark::State &State) {
  GrammarConfig G;
  G.AllowIte = true;
  VarPtr A = freshVar("a", Type::intTy());
  VarPtr B = freshVar("b", Type::intTy());
  std::vector<PbeExample> Ex;
  for (long long V = 0; V < 16; ++V) {
    long long X = V % 5 - 2, Y = V / 5 * 2 - 3;
    Ex.push_back(
        PbeExample{{{A->Id, Value::mkInt(X)}, {B->Id, Value::mkInt(Y)}},
                   Value::mkInt((X > Y ? X - Y : Y - X) + 1)});
  }
  PerfSnapshot Before = snapshotPerf();
  bool Found = false;
  for (auto _ : State) {
    Enumerator En(G, {mkVar(A), mkVar(B)});
    auto R = En.synthesize(Type::intTy(), Ex, State.range(0), Deadline());
    Found = R.has_value();
    benchmark::DoNotOptimize(R);
  }
  State.counters["found"] = Found;
  State.counters["candidates"] = benchmark::Counter(
      static_cast<double>(
          snapshotPerf().since(Before).get(PerfCounter::EnumCandidates)),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PbeEnumerationIte)->Arg(9)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
