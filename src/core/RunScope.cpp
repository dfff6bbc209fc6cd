//===- RunScope.cpp -------------------------------------------------------===//

#include "core/RunScope.h"

#include "smt/Solver.h"

using namespace se2gis;

RunScope::RunScope(const AlgoOptions &Opts)
    : Budget(Deadline::afterMs(Opts.TimeoutMs)) {
  Budget.setToken(Opts.Token);
  resetThreadSmtSession(Opts.Seed, Opts.SmtIncremental);
  PerfBefore = snapshotPerf();
  PhaseBefore = phaseSnapshot();
}

Outcome RunScope::finish(Outcome R) const {
  if (R.V == Verdict::Failed && Budget.expired())
    R.V = Verdict::Timeout;
  if (R.V != Verdict::Timeout)
    R.Stats.LastCandidate.clear();
  R.Stats.ElapsedMs = Timer.elapsedMs();
  R.Stats.Perf = snapshotPerf().since(PerfBefore);
  PhaseSnapshot Own = phaseSnapshot().since(PhaseBefore);
  for (size_t P = 0; P < static_cast<size_t>(Phase::NumPhases); ++P)
    R.Stats.Phases.Ns[P] += Own.Ns[P];
  return R;
}
