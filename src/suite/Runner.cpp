//===- Runner.cpp ---------------------------------------------------------===//

#include "suite/Runner.h"

#include "cache/CacheConfig.h"
#include "cache/TermIO.h"
#include "core/RunScope.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <ostream>

using namespace se2gis;

SuiteOptions se2gis::suiteOptionsFromEnv(std::int64_t DefaultTimeoutMs) {
  SuiteOptions Opts;
  Opts.Config = SolverConfig::fromEnv(DefaultTimeoutMs);
  return Opts;
}

namespace {

/// Emits progress lines through the structured logger (which serializes
/// concurrent workers), behind its [suite][info][ts][t=N] prefix.
class ProgressReporter {
public:
  explicit ProgressReporter(bool Enabled) : Enabled(Enabled) {}

  void report(const SuiteRecord &Rec) {
    if (!Enabled)
      return;
    logf(LogLevel::Info, "suite", "%-36s %-9s %-12s %8.1f ms  %s",
         Rec.Def->Name.c_str(), algorithmName(Rec.Algorithm),
         verdictName(Rec.Result.V), Rec.Result.Stats.ElapsedMs,
         Rec.Result.Stats.Steps.c_str());
  }

private:
  bool Enabled;
};

} // namespace

Hash128 se2gis::suiteWarmStartKey(const BenchmarkDef &Def,
                                  AlgorithmKind Algorithm,
                                  const SolverConfig &Config) {
  Hash128 K = hash128Seed(0x60);
  K = hash128String(K, Def.Name);
  K = hash128String(K, algorithmName(Algorithm));
  K = hash128Combine(K, static_cast<std::uint64_t>(Config.Algo.TimeoutMs));
  K = hash128Combine(
      K, static_cast<std::uint64_t>(Config.Algo.SgePerQueryTimeoutMs));
  K = hash128Combine(K, Config.Algo.Seed);
  K = hash128Combine(K, static_cast<std::uint64_t>(Config.Algo.Unreal));
  K = hash128Combine(K, (Config.Algo.DisableEufAnchoring ? 1ULL : 0ULL) |
                            (Config.Algo.DisableIteSplitting ? 2ULL : 0ULL) |
                            (Config.Algo.DisableLemmaReplay ? 4ULL : 0ULL));
  return K;
}

std::string se2gis::encodeSuiteSolution(const Problem &P,
                                        const UnknownBindings &Sol) {
  std::string Out = "v1";
  for (const UnknownSig &Sig : P.Unknowns) {
    auto It = Sol.find(Sig.Name);
    if (It == Sol.end() || It->second.Params.size() != Sig.ArgTypes.size())
      return "";
    std::string Body = termToText(It->second.Body, It->second.Params);
    if (Body.empty())
      return "";
    Out += "\n" + Sig.Name + "\n" + Body;
  }
  return Out;
}

std::optional<UnknownBindings>
se2gis::decodeSuiteSolution(const Problem &P, const std::string &S) {
  std::vector<std::string> Lines;
  for (size_t Start = 0; Start <= S.size();) {
    size_t End = S.find('\n', Start);
    if (End == std::string::npos) {
      Lines.push_back(S.substr(Start));
      break;
    }
    Lines.push_back(S.substr(Start, End - Start));
    Start = End + 1;
  }
  if (Lines.empty() || Lines[0] != "v1" ||
      Lines.size() != 1 + 2 * P.Unknowns.size())
    return std::nullopt;
  UnknownBindings Sol;
  size_t Pos = 1;
  for (const UnknownSig &Sig : P.Unknowns) {
    if (Lines[Pos] != Sig.Name)
      return std::nullopt;
    std::vector<VarPtr> Params;
    for (size_t I = 0; I < Sig.ArgTypes.size(); ++I)
      Params.push_back(namedVar("p" + std::to_string(I) + "_" + Sig.Name,
                                Sig.ArgTypes[I]));
    TermPtr Body = termFromText(Lines[Pos + 1], Params);
    if (!Body || Body->getType()->str() != Sig.RetTy->str())
      return std::nullopt;
    Sol[Sig.Name] = UnknownDef{std::move(Params), std::move(Body)};
    Pos += 2;
  }
  return Sol;
}

namespace {

/// Runs one (benchmark, algorithm) pair as a SynthesisTask; a UserError
/// from the stack becomes Verdict::Failed inside SynthesisTask::run, so a
/// pooled worker survives any single bad benchmark.
///
/// In Disk cache mode the pair first consults the persistent "suite"
/// segment: a Realizable result recorded by an earlier run under an
/// identical (benchmark, algorithm, config) key is *re-verified* against
/// the live problem — never trusted — and reused only when verification
/// passes, so a stale or corrupted store cannot change a verdict.
/// Unrealizable/Timeout/Failed verdicts are never short-circuited: their
/// warm-run speedup comes from the SMT and SGE caches underneath, and a
/// stale negative must not hide a newly solvable benchmark.
void runOne(SuiteRecord &Rec, std::shared_ptr<const Problem> P,
            const SolverConfig &Config, ProgressReporter &Progress) {
  TraceSpan Span("suite.run", "suite");
  Span.arg("benchmark", Rec.Def->Name);
  Span.arg("algorithm", algorithmName(Rec.Algorithm));
  Hash128 Key{};
  const bool TryWarm = cachePersistent() && P != nullptr;
  if (TryWarm) {
    Key = suiteWarmStartKey(*Rec.Def, Rec.Algorithm, Config);
    bool Hit = false;
    if (auto Payload = persistentLookup("suite", Key))
      if (auto Sol = decodeSuiteSolution(*P, *Payload)) {
        RunScope Run(Config.Algo);
        VerifyOptions VOpts;
        VOpts.Bounded = Config.Algo.Bounded;
        VOpts.Induction = Config.Algo.Induction;
        VerifyResult VR = verifySolution(*P, *Sol, VOpts, Run.budget());
        if (VR.Status != VerifyStatus::Counterexample &&
            !Run.budget().expired()) {
          Hit = true;
          perfAdd(PerfCounter::CacheSuiteHits);
          Rec.Result.V = Verdict::Realizable;
          Rec.Result.Solution = std::move(*Sol);
          Rec.Result.Detail = "suite cache (re-verified)";
          Rec.Result.Ev.Source = VerdictSource::Cache;
          Rec.Result.Ev.Channel = "suite-cache";
          Rec.Result.Stats.SolutionProvedInductive =
              VR.Status == VerifyStatus::ProvedInductive;
          Rec.Result = Run.finish(std::move(Rec.Result));
        }
      }
    if (Hit) {
      Span.arg("verdict", verdictName(Rec.Result.V));
      Progress.report(Rec);
      return;
    }
    perfAdd(PerfCounter::CacheSuiteMisses);
  }
  SynthesisTask Task(P, Rec.Algorithm);
  Rec.Result = Task.run(Config);
  if (TryWarm && Rec.Result.V == Verdict::Realizable) {
    std::string Payload = encodeSuiteSolution(*P, Rec.Result.Solution);
    if (!Payload.empty())
      persistentInsert("suite", Key, Payload);
  }
  Span.arg("verdict", verdictName(Rec.Result.V));
  Progress.report(Rec);
}

/// The one sweep loop: benchmarks are loaded once each in registry order on
/// the calling thread, then every (benchmark, algorithm) pair runs into its
/// pre-assigned record slot — inline on the calling thread when \p Jobs is
/// 1, else as one pool job each. Loaded problems are immutable after
/// validation and every SmtQuery solves on its own worker's thread-local
/// Z3 session (private fresh contexts when SE2GIS_SMT_INCREMENTAL=off —
/// never a solver shared across threads), so jobs never share mutable
/// state; records come back in registry order whatever the worker count.
std::vector<SuiteRecord> runRecords(const SuiteOptions &Opts, unsigned Jobs) {
  std::vector<SuiteRecord> Records;
  std::vector<std::shared_ptr<const Problem>> Problems; // one per record
  ProgressReporter Progress(Opts.Config.Verbose);

  for (const BenchmarkDef &Def : allBenchmarks()) {
    if (!Opts.Config.Filter.empty() &&
        Def.Name.find(Opts.Config.Filter) == std::string::npos)
      continue;
    if ((Opts.SkipRealizable && Def.ExpectRealizable) ||
        (Opts.SkipUnrealizable && !Def.ExpectRealizable))
      continue;
    std::shared_ptr<const Problem> P;
    try {
      P = std::make_shared<const Problem>(loadBenchmark(Def));
    } catch (const UserError &E) {
      logf(LogLevel::Warn, "suite", "%s: load error: %s", Def.Name.c_str(),
           E.what());
      continue;
    }
    for (AlgorithmKind K : Opts.Algorithms) {
      SuiteRecord Rec;
      Rec.Def = &Def;
      Rec.Algorithm = K;
      Records.push_back(std::move(Rec));
      Problems.push_back(P);
    }
  }

  auto RunAt = [&](size_t I) {
    runOne(Records[I], Problems[I], Opts.Config, Progress);
  };
  if (Jobs <= 1) {
    for (size_t I = 0; I < Records.size(); ++I)
      RunAt(I);
    return Records;
  }
  ThreadPool Pool(Jobs);
  std::vector<std::future<void>> Pending;
  Pending.reserve(Records.size());
  for (size_t I = 0; I < Records.size(); ++I)
    Pending.push_back(Pool.enqueue([&RunAt, I] { RunAt(I); }));
  for (std::future<void> &F : Pending)
    F.get(); // rethrows anything unexpected from a worker
  return Records;
}

} // namespace

std::vector<SuiteRecord> se2gis::runSuite(const SuiteOptions &Opts) {
  Stopwatch Wall;
  // Configure the memoization subsystem before the sweep starts (rather
  // than inside the first SynthesisTask::run) so the persistent segments
  // are loaded before any warm-start lookup. Logging and the trace path
  // likewise: progress lines must respect the config from the very first
  // benchmark.
  configureCache(Opts.Config.Cache);
  configureLogging(Opts.Config.Log);
  if (!Opts.Config.TracePath.empty())
    traceConfigure(Opts.Config.TracePath);
  PerfSnapshot Before = snapshotPerf();
  // Inside a service process the worker pool already occupies the
  // hardware; cap this sweep's inner parallelism so outer × inner stays
  // within hardware_concurrency (no-op standalone — see clampInnerJobs).
  unsigned Jobs = clampInnerJobs(
      Opts.Config.Jobs ? Opts.Config.Jobs : ThreadPool::defaultConcurrency());
  std::vector<SuiteRecord> Records = runRecords(Opts, Jobs);
  if (!Opts.Config.PerfJsonPath.empty()) {
    std::ofstream OS(Opts.Config.PerfJsonPath);
    if (OS)
      writeSuitePerfJson(OS, Records, snapshotPerf().since(Before),
                         Wall.elapsedMs(), Jobs);
    else
      logf(LogLevel::Error, "suite", "cannot write perf summary to %s",
           Opts.Config.PerfJsonPath.c_str());
  }
  if (!Opts.Config.TracePath.empty())
    traceFlush();
  return Records;
}

void se2gis::writeSuitePerfJson(std::ostream &OS,
                                const std::vector<SuiteRecord> &Records,
                                const PerfSnapshot &Delta, double WallMs,
                                unsigned Jobs) {
  int Solved = 0;
  for (const SuiteRecord &R : Records)
    Solved += isSolved(R);
  OS << "{\n  \"suite\": {\"records\": " << Records.size()
     << ", \"solved\": " << Solved << ", \"wall_ms\": " << WallMs
     << ", \"jobs\": " << Jobs << "},\n  \"perf\": ";
  writePerfJson(OS, Delta);
  OS << ",\n  \"records\": [";
  for (size_t I = 0; I < Records.size(); ++I) {
    const SuiteRecord &R = Records[I];
    OS << (I ? ",\n    " : "\n    ") << "{\"benchmark\": \""
       << R.Def->Name << "\", \"algorithm\": \""
       << algorithmName(R.Algorithm) << "\", \"outcome\": \""
       << verdictName(R.Result.V) << "\", \"solved\": "
       << (isSolved(R) ? "true" : "false")
       << ", \"elapsed_ms\": " << R.Result.Stats.ElapsedMs
       << ", \"evidence\": \"" << verdictSourceName(R.Result.Ev.Source)
       << "\", \"channel\": \"" << R.Result.Ev.Channel
       << "\", \"phase_ms\": {";
    for (size_t P = 0; P < static_cast<size_t>(Phase::NumPhases); ++P)
      OS << (P ? ", \"" : "\"") << phaseName(static_cast<Phase>(P))
         << "\": " << R.Result.Stats.Phases.getMs(static_cast<Phase>(P));
    OS << "}}";
  }
  OS << "\n  ]\n}\n";
}

bool se2gis::isSolved(const SuiteRecord &R) {
  if (R.Def->ExpectRealizable)
    return R.Result.V == Verdict::Realizable;
  return R.Result.V == Verdict::Unrealizable;
}
