//===- PerfCounters.h - Thread-safe performance telemetry ------*- C++-*-===//
///
/// \file
/// The solver's one telemetry registry: process-wide, thread-safe counters,
/// timers, and latency histograms for the hot primitives of the solver
/// stack (SMT queries and their verdicts, Z3 solve time, enumerator volume,
/// witness queries, unfoldings, caches, CHC, generator), plus per-thread
/// phase attribution. The suite runner snapshots them around a sweep and
/// dumps the deltas as a JSON summary (see \c writePerfJson and the schema
/// in DESIGN.md); the algorithm drivers attach a per-run delta to
/// \c RunStats, which the CLI prints.
///
/// All mutation paths are relaxed atomics, so concurrent suite workers and
/// portfolio members simply aggregate — there is no per-thread state to
/// merge and no lock on the hot path.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SUPPORT_PERFCOUNTERS_H
#define SE2GIS_SUPPORT_PERFCOUNTERS_H

#include "support/Histogram.h"

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace se2gis {

//===----------------------------------------------------------------------===//
// The telemetry tables
//===----------------------------------------------------------------------===//
//
// Every counter, timer, histogram, and phase is declared once, below, as
// X(Enumerator, "snake_key", "HELP text"). The enums, the name and HELP
// lookups, the perf-JSON keys, the Prometheus families, PerfSnapshot::str(),
// and the phase_ms objects are all generated from these lists, so a new
// row is exported everywhere without another edit.

/// Counted events. Perf JSON key `<key>`; Prometheus `se2gis_<key>_total`.
#define SE2GIS_PERF_COUNTERS(X)                                                \
  X(SmtQueries, "smt_queries", "checkSat calls issued")                        \
  X(SmtSat, "smt_sat", "checkSat calls that came back satisfiable")            \
  X(SmtUnsat, "smt_unsat", "checkSat calls that came back unsatisfiable")      \
  X(SmtUnknown, "smt_unknown", "checkSat calls where Z3 gave up")              \
  X(SmtBudget, "smt_budget_expired",                                           \
    "checkSat calls skipped or abandoned on deadline")                         \
  X(SmtSessionReuse, "smt_session_reuse",                                      \
    "queries served by a warm incremental session")                            \
  X(SmtSessionFresh, "smt_session_fresh",                                      \
    "queries that built a fresh Z3 context")                                   \
  X(SmtPush, "smt_push", "solver push operations")                             \
  X(SmtPop, "smt_pop", "solver pop operations")                                \
  X(EnumCandidates, "enum_candidates",                                         \
    "grammar terms generated by the PBE enumerator")                           \
  X(EnumPruned, "enum_pruned",                                                 \
    "candidates discarded as observationally equivalent")                      \
  X(WitnessQueries, "witness_queries", "Algorithm-1 frame-pair queries")       \
  X(BoundedInstantiations, "bounded_instantiations",                           \
    "bounded-term instantiations evaluated")                                   \
  X(SymbolicUnfoldings, "symbolic_unfoldings",                                 \
    "recursion-scheme rule unfoldings")                                        \
  X(CacheSmtHits, "cache_smt_hits", "SMT query cache hits")                    \
  X(CacheSmtMisses, "cache_smt_misses", "SMT query cache misses")              \
  X(CacheSmtInserts, "cache_smt_inserts", "SMT query cache insertions")        \
  X(CacheSmtEvictions, "cache_smt_evictions",                                  \
    "SMT query cache FIFO evictions")                                          \
  X(CachePbeHits, "cache_pbe_hits", "PBE enumeration memo hits")               \
  X(CachePbeMisses, "cache_pbe_misses", "PBE enumeration memo misses")         \
  X(CacheSgeHits, "cache_sge_hits", "SGE solution cache hits")                 \
  X(CacheSgeMisses, "cache_sge_misses", "SGE solution cache misses")           \
  X(CacheSuiteHits, "cache_suite_hits", "suite-level warm-start hits")         \
  X(CacheSuiteMisses, "cache_suite_misses", "suite-level warm-start misses")   \
  X(CacheBytesWritten, "cache_bytes_written",                                  \
    "bytes appended to the persistent store")                                  \
  X(CacheBytesLoaded, "cache_bytes_loaded",                                    \
    "bytes read back from the persistent store")                               \
  X(CacheRemoteHits, "cache_remote_hits",                                      \
    "remote cache-tier probes that returned a payload")                        \
  X(CacheRemoteMisses, "cache_remote_misses",                                  \
    "remote cache-tier probes with no entry")                                  \
  X(CacheRemoteErrors, "cache_remote_errors",                                  \
    "remote probes/puts lost to transport or protocol failure")                \
  X(CacheRemoteDegraded, "cache_remote_degraded",                              \
    "probes suppressed while the circuit breaker is open")                     \
  X(ChcQueries, "chc_queries", "fixedpoint queries issued by the CHC channel") \
  X(ChcUnsat, "chc_unsat", "CHC queries proving realizable underivable")       \
  X(ChcDerivable, "chc_derivable",                                             \
    "CHC queries where the instantiation was derivable")                       \
  X(ChcUnknown, "chc_unknown", "CHC queries where the engine gave up")         \
  X(ChcClauses, "chc_clauses", "Horn clauses asserted across CHC encodings")   \
  X(ChcRaceWins, "chc_race_wins", "races won by the CHC channel")              \
  X(ChcSkippedNonscalar, "chc_skipped_nonscalar",                              \
    "CHC encodings skipped on non-scalar signature")                           \
  X(ChcSkippedEquations, "chc_skipped_equations",                              \
    "bounded-term equations the encoder dropped")                              \
  X(GenCases, "gen_cases", "generator cases accepted through the frontend")    \
  X(GenRejected, "gen_rejected", "generator attempts rejected and resampled")  \
  X(GenShrinkAttempts, "gen_shrink_attempts", "shrink candidates evaluated")   \
  X(GenShrinkAccepted, "gen_shrink_accepted", "shrink candidates committed")

/// Accumulated durations. Perf JSON key `<key>_ms`; Prometheus
/// `se2gis_<key>_seconds_total`.
#define SE2GIS_PERF_TIMERS(X)                                                  \
  X(Z3SolveNs, "z3_time", "wall time inside z3::solver::check")                \
  X(SuiteRunNs, "run_time", "wall time inside runAlgorithm, summed over runs")

/// Latency distributions (log-bucketed, see support/Histogram.h): beyond a
/// cumulative timer, these answer "what does a typical / tail query cost".
/// Perf JSON keys `<key>_count`, `_p50_ms`, `_p90_ms`, `_p99_ms`, `_max_ms`;
/// Prometheus histogram `se2gis_<key>_seconds`.
#define SE2GIS_PERF_HISTOGRAMS(X)                                              \
  X(SmtCheckNs, "smt_check", "latency of one SmtQuery::checkSat")              \
  X(SmtTranslateNs, "smt_translate",                                           \
    "Term-to-Z3 translation time per checkSat")                                \
  X(EnumRoundNs, "enum_round", "latency of one PBE enumeration search")        \
  X(CacheProbeNs, "cache_probe", "latency of one memoization-cache lookup")    \
  X(CacheRemoteProbeNs, "cache_remote_probe",                                  \
    "latency of one remote cache-tier round trip")

/// The coarse phases a run's wall time decomposes into (the time dimension
/// of the paper's Table-1 step strings); keys of the `phase_ms` objects.
#define SE2GIS_PHASES(X)                                                       \
  X(Eval, "eval", "symbolic evaluation and normalization")                     \
  X(Smt, "smt", "inside SmtQuery::checkSat, Z3 and cache probe")               \
  X(Enum, "enum", "PBE enumeration searches")                                  \
  X(Induction, "induction", "the structural-induction prover minus its SMT")   \
  X(Chc, "chc", "the CHC channel's rungs: context, encoding and query")

#define SE2GIS_TELEMETRY_ENUMERATOR(Enumerator, Key, Help) Enumerator,

enum class PerfCounter : unsigned char {
  SE2GIS_PERF_COUNTERS(SE2GIS_TELEMETRY_ENUMERATOR) NumPerfCounters
};
enum class PerfTimer : unsigned char {
  SE2GIS_PERF_TIMERS(SE2GIS_TELEMETRY_ENUMERATOR) NumPerfTimers
};
enum class PerfHistogram : unsigned char {
  SE2GIS_PERF_HISTOGRAMS(SE2GIS_TELEMETRY_ENUMERATOR) NumPerfHistograms
};
enum class Phase : unsigned char {
  SE2GIS_PHASES(SE2GIS_TELEMETRY_ENUMERATOR) NumPhases
};

#undef SE2GIS_TELEMETRY_ENUMERATOR

/// The snake_case key and the HELP text of each table row.
const char *perfCounterName(PerfCounter C);
const char *perfCounterHelp(PerfCounter C);
const char *perfTimerName(PerfTimer T);
const char *perfTimerHelp(PerfTimer T);
const char *perfHistogramName(PerfHistogram H);
const char *perfHistogramHelp(PerfHistogram H);
const char *phaseName(Phase P);
const char *phaseHelp(Phase P);

/// Increments \p C by \p Delta (thread-safe, relaxed).
void perfAdd(PerfCounter C, std::uint64_t Delta = 1);

/// Adds \p Ns nanoseconds to \p T (thread-safe, relaxed).
void perfAddTimeNs(PerfTimer T, std::uint64_t Ns);

/// Records one \p Ns latency sample into \p H (thread-safe, lock-free).
void perfRecordNs(PerfHistogram H, std::uint64_t Ns);

/// RAII helper: adds the scope's wall-clock duration to a timer.
class PerfTimerScope {
public:
  explicit PerfTimerScope(PerfTimer T)
      : T(T), Start(std::chrono::steady_clock::now()) {}
  ~PerfTimerScope() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    perfAddTimeNs(T, static_cast<std::uint64_t>(Ns > 0 ? Ns : 0));
  }
  PerfTimerScope(const PerfTimerScope &) = delete;
  PerfTimerScope &operator=(const PerfTimerScope &) = delete;

private:
  PerfTimer T;
  std::chrono::steady_clock::time_point Start;
};

/// A point-in-time copy of every perf counter, timer, and histogram.
struct PerfSnapshot {
  std::uint64_t Counters[static_cast<size_t>(PerfCounter::NumPerfCounters)] =
      {};
  std::uint64_t TimersNs[static_cast<size_t>(PerfTimer::NumPerfTimers)] = {};
  HistogramSnapshot
      Hists[static_cast<size_t>(PerfHistogram::NumPerfHistograms)];

  std::uint64_t get(PerfCounter C) const {
    return Counters[static_cast<size_t>(C)];
  }
  std::uint64_t getNs(PerfTimer T) const {
    return TimersNs[static_cast<size_t>(T)];
  }
  double getMs(PerfTimer T) const { return getNs(T) / 1e6; }
  const HistogramSnapshot &hist(PerfHistogram H) const {
    return Hists[static_cast<size_t>(H)];
  }

  /// Componentwise difference (this - Earlier).
  PerfSnapshot since(const PerfSnapshot &Earlier) const;

  /// The nonzero counters as space-separated `key=value` pairs, in table
  /// order (the keys of a perf JSON object); empty when all are zero.
  std::string str() const;
};

/// Reads the current values.
PerfSnapshot snapshotPerf();

/// Writes \p Delta as the "perf" JSON object used by the suite summary:
/// one key per counter, one `<key>_ms` per timer, and the five quantile
/// keys per histogram, each named by the tables above.
void writePerfJson(std::ostream &OS, const PerfSnapshot &Delta);

//===----------------------------------------------------------------------===//
// Per-run phase attribution (eval / SMT / enumeration / induction / CHC)
//===----------------------------------------------------------------------===//

/// A copy of the calling thread's per-phase nanosecond totals. Unlike the
/// process-wide counters above, phase time is accumulated *per thread*, so
/// a run's delta is exact even under a parallel sweep (each run executes on
/// one worker thread).
struct PhaseSnapshot {
  std::uint64_t Ns[static_cast<size_t>(Phase::NumPhases)] = {};

  std::uint64_t getNs(Phase P) const { return Ns[static_cast<size_t>(P)]; }
  double getMs(Phase P) const { return getNs(P) / 1e6; }
  PhaseSnapshot since(const PhaseSnapshot &Earlier) const;
};

/// Reads the calling thread's accumulated phase times.
PhaseSnapshot phaseSnapshot();

/// RAII phase attribution with *exclusive* accounting: entering a nested
/// scope pauses the parent phase, so the per-phase times of one thread sum
/// to at most its wall time (an SMT query issued by the induction prover
/// counts as Smt, not twice). Scopes must nest strictly (guaranteed by
/// scoping); beyond a fixed nesting depth extra scopes attribute to the
/// innermost tracked phase.
/// Completed scopes whose exclusive-time slice is long enough (≥1ms) also
/// land in the always-on flight recorder as "phase" events, so a
/// post-mortem shows where a stuck run was spending its time.
class PhaseScope {
public:
  explicit PhaseScope(Phase P);
  ~PhaseScope();
  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  bool Tracked;
  Phase P;
  std::uint64_t FlightStartNs;
};

} // namespace se2gis

#endif // SE2GIS_SUPPORT_PERFCOUNTERS_H
