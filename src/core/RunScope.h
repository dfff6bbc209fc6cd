//===- RunScope.h - The lifecycle every synthesis run shares ----*- C++-*-===//
///
/// \file
/// One run of a synthesis driver (runSE2GIS, runSEGIS, runChcChannel,
/// runRace) opens a \c RunScope first and returns through \c finish. The
/// scope owns what every run needs and must not inherit from the runs
/// before it: the stopwatch, the budget, the calling thread's SMT settings
/// (a fresh session with the run's seed and incremental mode), and the
/// perf and phase baselines its statistics are measured against. A verdict
/// therefore depends on the run's own options, not on which runs the same
/// thread or process executed earlier.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CORE_RUNSCOPE_H
#define SE2GIS_CORE_RUNSCOPE_H

#include "core/Algorithms.h"
#include "support/Stopwatch.h"

namespace se2gis {

class RunScope {
public:
  /// Starts the stopwatch and the budget (\p Opts.TimeoutMs from now, or
  /// sooner once \p Opts.Token is cancelled), puts the calling thread on a
  /// fresh SMT session under \p Opts.Seed and \p Opts.SmtIncremental (solver
  /// state carried across runs would make a benchmark's trajectory depend
  /// on sweep order), and takes the perf and phase snapshots.
  explicit RunScope(const AlgoOptions &Opts);

  /// The run's budget; every poll point of the run checks it.
  const Deadline &budget() const { return Budget; }

  /// The epilogue every runner shares: a Failed verdict whose budget has
  /// expired reads Timeout, LastCandidate is kept only on a Timeout, and
  /// ElapsedMs and Perf cover the scope's lifetime. The calling thread's
  /// phase times since the scope opened are added to Phases, so a race
  /// keeps the phases its winner measured on its own thread.
  Outcome finish(Outcome R) const;

private:
  Stopwatch Timer;
  Deadline Budget;
  PerfSnapshot PerfBefore;
  PhaseSnapshot PhaseBefore;
};

} // namespace se2gis

#endif // SE2GIS_CORE_RUNSCOPE_H
