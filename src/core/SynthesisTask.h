//===- SynthesisTask.h - Unified solver entry point -------------*- C++-*-===//
///
/// \file
/// The one front door to the solver stack. Every driver — the CLI, the
/// bench tables, the portfolio, the suite runner — expresses a run as a
/// \c SynthesisTask (which problem, which algorithm) executed under a
/// \c SolverConfig (budgets, parallelism, seed, telemetry), producing an
/// \c Outcome (verdict, solution or witness description, stats).
///
/// SolverConfig's settings are declared once, in the table that
/// \c solverSettings returns: each row names its SE2GIS_* variable, its
/// command-line flag and its parser. \c fromEnv reads the environment
/// through it, and the `se2gis` and `se2gis_served` tools parse their
/// solver flags and print their usage through it, so a setting means the
/// same thing from every source. A driver that fills the fields
/// programmatically ignores the environment entirely, so sweeps are
/// reproducible from code alone.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CORE_SYNTHESISTASK_H
#define SE2GIS_CORE_SYNTHESISTASK_H

#include "cache/CacheConfig.h"
#include "core/Algorithms.h"
#include "support/Log.h"

#include <memory>
#include <span>

namespace se2gis {

/// Every knob of a solver invocation in one value.
struct SolverConfig {
  /// Algorithm knobs: the overall deadline (TimeoutMs), per-query Z3
  /// budgets, cancellation token, random seed, and ablation switches.
  AlgoOptions Algo;
  /// Concurrent (benchmark, algorithm) workers for suite sweeps. 0 = auto
  /// (hardware concurrency); 1 runs the sweep inline on the calling
  /// thread.
  unsigned Jobs = 0;
  /// Restrict suite sweeps to benchmarks whose name contains this
  /// substring ("" = all).
  std::string Filter;
  /// When non-empty, sweeps write their perf-counter JSON summary here
  /// (schema in DESIGN.md).
  std::string PerfJsonPath;
  /// Progress lines on stderr.
  bool Verbose = true;
  /// Memoization subsystem: mode (off/mem/disk) and, for disk, the store
  /// directory (DESIGN.md "Memoization model").
  CacheSettings Cache;
  /// Leveled logging: the admitted level (DESIGN.md "Observability
  /// model").
  LogSettings Log;
  /// When non-empty, the flight recorder's rings are dumped here as a
  /// Chrome trace_event JSON file at the end of the run / sweep and at
  /// exit (load it in Perfetto).
  std::string TracePath;

  /// Builds a config from the environment: \p DefaultTimeoutMs, then the
  /// value of every set variable of solverSettings(), then check(). Throws
  /// UserError, naming the variable, on a value its row cannot parse.
  static SolverConfig fromEnv(std::int64_t DefaultTimeoutMs = 5000);

  /// If \p Argv[I] is the flag of a row of solverSettings(), parses
  /// \p Argv[I + 1] into this config, advances \p I past it and returns
  /// true; returns false for any other argument. Throws UserError, naming
  /// the flag, on a missing or unparsable value.
  bool parseFlag(int Argc, char **Argv, int &I);

  /// Throws UserError when the cache settings cannot work: a disk or
  /// remote cache whose directory is unusable, or a remote cache with no
  /// daemon address.
  void check() const;
};

/// One solver setting: its SE2GIS_* variable, its flag on `se2gis` and
/// `se2gis_served` (nullptr for the settings only suite sweeps read), the
/// argument and help text usage() shows, and the parser that stores a value
/// into a config (throwing UserError when it cannot).
struct SolverSetting {
  const char *Env;
  const char *Flag;
  const char *Arg;
  const char *Help;
  void (*Parse)(SolverConfig &C, const std::string &Value);
};

/// Every solver setting, one row each.
std::span<const SolverSetting> solverSettings();

/// The usage lines of the flags of solverSettings(): each flag with its
/// argument and environment variable, then its help text.
std::string solverFlagUsage();

/// One unit of synthesis work: a problem and the algorithm to run on it.
/// The problem is shared so a suite can fan one parse out to several
/// algorithms (and worker threads) without copying.
struct SynthesisTask {
  std::shared_ptr<const Problem> Prob;
  AlgorithmKind Algorithm = AlgorithmKind::SE2GIS;

  SynthesisTask() = default;
  SynthesisTask(std::shared_ptr<const Problem> P,
                AlgorithmKind K = AlgorithmKind::SE2GIS)
      : Prob(std::move(P)), Algorithm(K) {}

  /// Runs the task to completion (or deadline) under \p Config. Never
  /// throws on solver-level failure: a UserError from the stack becomes a
  /// Failed outcome with the message in \c Detail, so pooled workers
  /// cannot be poisoned by one bad benchmark.
  Outcome run(const SolverConfig &Config) const;
};

} // namespace se2gis

#endif // SE2GIS_CORE_SYNTHESISTASK_H
