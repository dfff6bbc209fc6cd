//===- Algorithms.h - SE²GIS, SEGIS, and SEGIS+UC drivers -------*- C++-*-===//
///
/// \file
/// The three top-level synthesis algorithms of the paper's evaluation (§8):
///
///  - **SE²GIS** (Fig. 1/3): partial bounding with the refinement loop over
///    the canonical term set T and the dual coarsening loop that processes
///    functional-unrealizability witnesses and strengthens the guards P.
///  - **SEGIS**: the symbolic CEGIS baseline that uses only fully bounded
///    terms (invariants are "effectively present" because Iθ(t) evaluates
///    to a scalar guard) and has no unrealizability outcome.
///  - **SEGIS+UC**: SEGIS extended with the functional-unrealizability
///    checker; witnesses over bounded terms are valid by construction.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_CORE_ALGORITHMS_H
#define SE2GIS_CORE_ALGORITHMS_H

#include "core/Verify.h"
#include "lang/Program.h"
#include "support/Cancellation.h"
#include "support/PerfCounters.h"

#include <cstdint>
#include <optional>
#include <string>

namespace se2gis {

/// Which algorithm to run. CHC is the fixedpoint-based unrealizability
/// channel (src/chc/): it can prove Unrealizable but never Realizable.
/// Portfolio races SE²GIS against SEGIS+UC (plus the CHC channel, see
/// UnrealMode) and returns the first conclusive verdict (core/Portfolio).
enum class AlgorithmKind : unsigned char {
  SE2GIS,
  SEGIS,
  SEGISUC,
  CHC,
  Portfolio
};

/// Verdict of a synthesis run.
enum class Verdict : unsigned char {
  /// A solution was synthesized (and verified).
  Realizable,
  /// A valid unrealizability witness was produced.
  Unrealizable,
  /// The time budget expired.
  Timeout,
  /// The algorithm gave up (e.g. no functional witness exists, invariant
  /// inference diverged, or the synthesis step failed) — the paper's
  /// non-timeout failure modes (Appendix C.1).
  Failed
};

/// \returns a short name ("SE2GIS", "SEGIS+UC", ...).
const char *algorithmName(AlgorithmKind K);
const char *verdictName(Verdict V);

/// Parses "se2gis" / "segis" / "segis-uc" / "chc" / "portfolio" (also
/// accepts the display names, case-insensitively). \returns nullopt on
/// anything else.
std::optional<AlgorithmKind> parseAlgorithmName(const std::string &Name);

/// Which unrealizability channel(s) a run may use (--unreal /
/// SE2GIS_UNREAL). The functional-witness loop is part of the synthesis
/// algorithms themselves; the CHC channel (src/chc/) is an independent
/// fixedpoint-based prover that can be raced against them.
enum class UnrealMode : unsigned char {
  /// Resolve per algorithm: Race under Portfolio, Witness elsewhere.
  Auto,
  /// Functional witnesses only (the paper's configuration).
  Witness,
  /// CHC only: the witness channel is suppressed and the algorithm is
  /// raced against the CHC prover, so Unrealizable verdicts can come only
  /// from the fixedpoint engine.
  Chc,
  /// Both: the algorithm (witness channel intact) races the CHC prover;
  /// the first conclusive verdict wins.
  Race
};

/// \returns "auto" / "witness" / "chc" / "race".
const char *unrealModeName(UnrealMode M);

/// Parses "witness" / "chc" / "race" (and "auto"), case-insensitively.
/// \returns nullopt on anything else.
std::optional<UnrealMode> parseUnrealMode(const std::string &Name);

/// Resolves UnrealMode::Auto for algorithm \p K (Race under Portfolio,
/// Witness elsewhere); other modes pass through unchanged.
UnrealMode resolveUnrealMode(UnrealMode M, AlgorithmKind K);

/// Tuning knobs shared by the algorithms.
struct AlgoOptions {
  /// Overall budget per run (the paper uses 400 s; we default lower).
  std::int64_t TimeoutMs = 5000;
  /// Z3 timeout per query inside the SGE solver (ms).
  int SgePerQueryTimeoutMs = 600;
  /// Bounded-check and induction budgets.
  BoundedOptions Bounded;
  InductionOptions Induction;
  /// Optional cooperative cancellation: the run stops at the next budget
  /// poll once the token is cancelled (an invalid/default token is inert).
  /// The portfolio driver and the suite runner share one token per run.
  CancellationToken Token;
  /// Z3 random seed (0 = Z3's default) of the run's SMT sessions. Exposed
  /// for reproducible sweeps. Like SmtIncremental it applies to the run's
  /// thread only: RunScope installs both at run start (each race member on
  /// its own thread), see resetThreadSmtSession.
  unsigned Seed = 0;
  /// Incremental SMT sessions (DESIGN.md "Incremental SMT model"): queries
  /// run on long-lived per-thread Z3 solvers with push/pop deltas. Off
  /// restores the fresh-context-per-query model, which se2gis_fuzz's
  /// `se2gis-race-fresh` column and SmtSessionTest use as their reference;
  /// no environment variable or flag sets it.
  bool SmtIncremental = true;

  /// Which unrealizability channel(s) to use; see UnrealMode. Fed by
  /// SE2GIS_UNREAL / --unreal; resolved per algorithm by runAlgorithm.
  UnrealMode Unreal = UnrealMode::Auto;
  /// Internal (driven by UnrealMode::Chc, not user-facing): suppress the
  /// functional-witness channel inside runSE2GIS/runSEGIS so the raced CHC
  /// prover is the only source of Unrealizable verdicts.
  bool DisableWitnessChannel = false;

  /// Ablation switches (bench/bench_ablation measures their impact).
  bool DisableEufAnchoring = false;
  bool DisableIteSplitting = false;
  bool DisableLemmaReplay = false;
};

/// Per-run statistics (the inputs to Tables 1–2 and the invariant table).
struct RunStats {
  /// The paper's step string: '•' per refinement round, '◦' per coarsening.
  std::string Steps;
  int Refinements = 0;
  int Coarsenings = 0;
  /// Invariants inferred, by kind (§7.2.2 reference / §7.2.1 datatype).
  int ImageInvariants = 0;
  int DatatypeInvariants = 0;
  /// True when every inferred invariant was proved by induction ("I?"
  /// column of Tables 1–2).
  bool AllInvariantsByInduction = true;
  /// True when the final solution was proved by induction (fully verified).
  bool SolutionProvedInductive = false;
  double ElapsedMs = 0;
  /// Performance deltas for this run (support/PerfCounters.h). Under a
  /// parallel sweep the process-wide counters aggregate across workers, so
  /// a run's delta includes events of concurrently running jobs; the
  /// per-run numbers are exact only at SE2GIS_JOBS=1.
  PerfSnapshot Perf;
  /// Where this run's wall time went (eval / SMT / enumeration / induction
  /// / CHC, exclusive attribution — see PhaseScope). Thread-local, so exact
  /// even under a parallel sweep: each run executes on one worker thread (a
  /// race reports its winner's phases).
  PhaseSnapshot Phases;
  /// Graceful degradation: when the run times out, the last candidate the
  /// CEGIS loop tried (pretty-printed), so a sweep still shows how far the
  /// search got. Empty on conclusive verdicts.
  std::string LastCandidate;
};

/// Which channel produced a conclusive verdict (Evidence provenance).
enum class VerdictSource : unsigned char {
  /// No conclusive verdict (Timeout / Failed), so no provenance.
  None,
  /// The synthesis algorithm itself: a verified solution or a validated
  /// functional-unrealizability witness.
  Witness,
  /// The CHC fixedpoint channel proved `realizable` underivable.
  Chc,
  /// The suite runner replayed (and re-verified) a cached solution.
  Cache
};

/// \returns "none" / "witness" / "chc" / "cache".
const char *verdictSourceName(VerdictSource S);

/// Provenance of a conclusive verdict: which channel concluded and how much
/// supporting material it produced. Every Realizable/Unrealizable Outcome
/// carries one; races keep the winning member's Evidence.
struct Evidence {
  VerdictSource Source = VerdictSource::None;
  /// Display name of the concluding channel ("SE2GIS", "SEGIS+UC", "CHC",
  /// "suite-cache", ...). Empty iff Source is None.
  std::string Channel;
  /// Horn clauses in the CHC system that proved the verdict (CHC only).
  std::uint64_t ChcClauses = 0;
  /// Invariant lemmas learned by the witness loop (witness channel only).
  std::uint64_t Lemmas = 0;

  /// Compact rendering for the CLI verdict line, e.g. "witness/SE2GIS" or
  /// "chc (42 clauses)". Empty when Source is None.
  std::string str() const;
};

/// Result of one synthesis run: the verdict, the solution or witness
/// description, the verdict's provenance, and the run's statistics. A
/// timed-out Outcome still carries partial stats (rounds completed, last
/// candidate) — see RunStats.
struct Outcome {
  Verdict V = Verdict::Failed;
  UnknownBindings Solution;
  /// Human-readable witness description / failure reason.
  std::string Detail;
  /// Which channel concluded (set on conclusive verdicts only).
  Evidence Ev;
  RunStats Stats;
};

/// Runs SE²GIS on \p P.
Outcome runSE2GIS(const Problem &P, const AlgoOptions &Opts);

/// Runs the fully-bounded baseline; \p WithUnrealizabilityChecker selects
/// SEGIS+UC.
Outcome runSEGIS(const Problem &P, const AlgoOptions &Opts,
                 bool WithUnrealizabilityChecker);

/// Dispatches on \p K (including AlgorithmKind::CHC and ::Portfolio) and
/// applies the resolved UnrealMode: under Chc/Race the synthesis algorithm
/// is raced against the CHC channel (core/Portfolio).
Outcome runAlgorithm(AlgorithmKind K, const Problem &P,
                     const AlgoOptions &Opts);

} // namespace se2gis

#endif // SE2GIS_CORE_ALGORITHMS_H
