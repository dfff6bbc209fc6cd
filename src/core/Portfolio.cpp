//===- Portfolio.cpp ------------------------------------------------------===//

#include "core/Portfolio.h"

#include "chc/ChcChannel.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/Progress.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <vector>

using namespace se2gis;

namespace {

/// Dispatches one race member to its bare runner. Members must not go
/// through runAlgorithm: it applies the UnrealMode race wrapper itself, so
/// routing a member back into it would spawn nested races.
Outcome runMember(AlgorithmKind K, const Problem &P, const AlgoOptions &Opts) {
  switch (K) {
  case AlgorithmKind::SE2GIS:
    return runSE2GIS(P, Opts);
  case AlgorithmKind::SEGIS:
    return runSEGIS(P, Opts, /*WithUnrealizabilityChecker=*/false);
  case AlgorithmKind::SEGISUC:
    return runSEGIS(P, Opts, /*WithUnrealizabilityChecker=*/true);
  case AlgorithmKind::CHC:
    return runChcChannel(P, Opts);
  case AlgorithmKind::Portfolio:
    break; // a race inside a race is a bug
  }
  fatalError("bad race member");
}

} // namespace

Outcome se2gis::runRace(const std::vector<AlgorithmKind> &Members,
                        const Problem &P, const AlgoOptions &Opts) {
  if (Members.empty())
    fatalError("race with no members");
  Stopwatch Timer;
  const size_t N = Members.size();

  std::mutex M;
  std::condition_variable Cv;
  std::vector<std::optional<Outcome>> Results(N);
  // All members share one token, itself chained to the caller's: a
  // cancelled caller stops the whole race, a conclusive member stops its
  // siblings.
  CancellationToken Token = CancellationToken::create();
  size_t Done = 0;

  auto IsConclusive = [](const Outcome &R) {
    return R.V == Verdict::Realizable || R.V == Verdict::Unrealizable;
  };

  // Race members run on a dedicated pool's threads, which carry neither the
  // caller's progress board nor its request id; re-install both so member
  // rounds stay visible to `status` and member logs stay correlated.
  ProgressBoard *CallerBoard = threadProgressBoard();
  const std::uint64_t CallerRid = threadRequestId();

  auto Worker = [&](size_t Slot) {
    ProgressBoardScope BoardScope(CallerBoard);
    RequestIdScope RidScope(CallerRid);
    AlgorithmKind K = Members[Slot];
    TraceSpan Span("portfolio.member", "portfolio");
    AlgoOptions Local = Opts;
    Local.Token = Token;
    Outcome R = runMember(K, P, Local);
    Span.arg("algorithm", algorithmName(K));
    Span.arg("verdict", verdictName(R.V));
    if (R.Detail.empty())
      R.Detail = std::string("portfolio: ") + algorithmName(K);
    std::lock_guard<std::mutex> Lock(M);
    Results[Slot] = std::move(R);
    ++Done;
    Cv.notify_all();
  };

  // A dedicated pool rather than the suite runner's: race members must
  // start immediately even when every shared worker is busy, and blocking
  // a shared worker on a job of the same pool could deadlock. The members
  // also share work through the process-wide memoization caches (cache/):
  // the synthesis algorithms walk overlapping refinement states, so an SMT
  // verdict or solved SGE produced by one member is a cache hit for the
  // other — no explicit cross-member channel is needed.
  ThreadPool Pool(static_cast<unsigned>(N));
  std::vector<std::future<void>> Futures;
  Futures.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Futures.push_back(Pool.enqueue([&Worker, I] { Worker(I); }));

  {
    std::unique_lock<std::mutex> Lock(M);
    auto DoneOrConclusive = [&] {
      if (Done == N)
        return true;
      for (const auto &R : Results)
        if (R && IsConclusive(*R))
          return true;
      return false;
    };
    while (!DoneOrConclusive()) {
      Cv.wait_for(Lock, std::chrono::milliseconds(50));
      // Forward the caller's cancellation to the members (the timed wait
      // doubles as the poll for it).
      if (Opts.Token.cancelRequested())
        Token.requestCancel(Opts.Token.reason());
    }
  }
  // First conclusive verdict wins; tell the other workers to stop.
  Token.requestCancel();
  for (auto &F : Futures)
    F.get();

  Outcome Final;
  // Prefer a conclusive result (earlier members first on ties), else the
  // first member's outcome.
  for (const auto &R : Results)
    if (R && IsConclusive(*R)) {
      Final = *R;
      break;
    }
  if (!IsConclusive(Final) && Results[0])
    Final = *Results[0];
  if (N > 1 && IsConclusive(Final) && Final.Ev.Source == VerdictSource::Chc)
    perfAdd(PerfCounter::ChcRaceWins);
  Final.Stats.ElapsedMs = Timer.elapsedMs();
  return Final;
}

Outcome se2gis::runPortfolio(const Problem &P, const AlgoOptions &Opts) {
  UnrealMode Mode = resolveUnrealMode(Opts.Unreal, AlgorithmKind::Portfolio);
  std::vector<AlgorithmKind> Members{AlgorithmKind::SE2GIS,
                                     AlgorithmKind::SEGISUC};
  if (Mode != UnrealMode::Witness)
    Members.push_back(AlgorithmKind::CHC);
  AlgoOptions Local = Opts;
  // Under `chc` the fixedpoint channel is the only unrealizability prover.
  Local.DisableWitnessChannel = Mode == UnrealMode::Chc;
  return runRace(Members, P, Local);
}
