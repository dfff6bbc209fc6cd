//===- SynthesisTask.h - Unified solver entry point -------------*- C++-*-===//
///
/// \file
/// The one front door to the solver stack. Every driver — the CLI, the
/// bench tables, the portfolio, the suite runner — expresses a run as a
/// \c SynthesisTask (which problem, which algorithm) executed under a
/// \c SolverConfig (budgets, parallelism, seed, telemetry), producing an
/// \c Outcome (verdict, solution or witness description, stats).
///
/// SolverConfig is the only place that reads the SE2GIS_* environment
/// variables, and only as a fallback in \c fromEnv: a driver that fills the
/// fields programmatically ignores the environment entirely, so sweeps are
/// reproducible from code alone.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CORE_SYNTHESISTASK_H
#define SE2GIS_CORE_SYNTHESISTASK_H

#include "cache/CacheConfig.h"
#include "core/Algorithms.h"
#include "support/Log.h"

#include <memory>

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
  /// Benchmark-generator stream seed (src/gen/): the fuzz driver and any
  /// generator-backed sweep derive every sampled case from this value, so
  /// a run is reproducible from the config alone. Unlike Algo.Seed (the
  /// Z3 seed) 0 is a valid stream.
  std::uint64_t GenSeed = 0;

  /// Builds a config from the environment (the only SE2GIS_* reader):
  ///  - SE2GIS_TIMEOUT_MS — overall budget in milliseconds. Values <= 0
  ///    leave the default \p DefaultTimeoutMs.
  ///  - SE2GIS_SEED — Z3 random seed (0 = Z3's default).
  ///  - SE2GIS_GEN_SEED — benchmark-generator stream seed (see GenSeed).
  ///  - SE2GIS_SMT_INCREMENTAL — "on" (default) or "off"; off restores
  ///    fresh-context-per-query SMT solving (throws UserError on anything
  ///    else). See DESIGN.md "Incremental SMT model".
  ///  - SE2GIS_UNREAL — unrealizability channels: "witness" (functional
  ///    witnesses only), "chc" (fixedpoint channel only), "race" (both), or
  ///    "auto" (the default: race under Portfolio, witness elsewhere).
  ///    Throws UserError on anything else. See DESIGN.md "Unrealizability
  ///    channels".
  ///  - SE2GIS_FILTER, SE2GIS_JOBS, SE2GIS_PERF_JSON — as the fields above.
  ///  - SE2GIS_CACHE — "off" (default), "mem", or "disk"; SE2GIS_CACHE_DIR
  ///    — the disk-mode store directory (default ./.se2gis-cache). Throws
  ///    UserError on an unparsable mode or an unusable cache directory.
  ///  - SE2GIS_LOG — log level (error|warn|info|debug; throws UserError on
  ///    anything else).
  ///  - SE2GIS_TRACE — trace output path (a dump of the flight recorder).
  static SolverConfig fromEnv(std::int64_t DefaultTimeoutMs = 5000);
};

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
