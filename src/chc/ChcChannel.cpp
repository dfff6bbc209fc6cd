//===- ChcChannel.cpp -----------------------------------------------------===//

#include "chc/ChcChannel.h"

#include "chc/ChcEncoder.h"
#include "chc/FixedpointSolver.h"
#include "core/RunScope.h"
#include "support/PerfCounters.h"
#include "support/Progress.h"
#include "support/Trace.h"
#include "synth/Grammar.h"

#include <sstream>

using namespace se2gis;

Outcome se2gis::runChcChannel(const Problem &P, const AlgoOptions &Opts) {
  RunScope Run(Opts);
  const Deadline &Budget = Run.budget();
  Outcome Result;

  GrammarConfig Grammar = inferGrammar(P);

  // Escalation ladder: a small instantiation first (cheap, and already
  // enough for conflicts between a handful of bounded terms), then a
  // larger one. Each rung is an independent encoding + query.
  static const unsigned TermLadder[] = {4, 8};
  for (unsigned Rung = 0; Rung < 2; ++Rung) {
    if (Budget.expired()) {
      Result.V = Verdict::Timeout;
      break;
    }

    // The rung's whole cost, not just its query: building the fixedpoint
    // context and encoding the system often cost more than solving it.
    PhaseScope ChcPhase(Phase::Chc);
    ChcOptions CO;
    CO.MaxTerms = TermLadder[Rung];
    CO.MaxInstantiationsPerEqn = 48 * (Rung + 1);

    progressPublish([&](ProgressSnapshot &Pr) {
      progressSetStr(Pr.ChcState, "encoding");
      Pr.ChcRung = TermLadder[Rung];
      Pr.UpdatedNs = detail::traceNowNs();
    });

    FixedpointSolver FP;
    ChcEncoder Enc(P, Grammar, CO);
    ChcSystem Sys = Enc.encode(FP);
    if (!Sys.Encodable) {
      Result.V = Verdict::Failed;
      Result.Detail = "CHC: not encodable (" + Sys.Reason + ")";
      break;
    }
    perfAdd(PerfCounter::ChcClauses,
            static_cast<std::uint64_t>(Sys.NumRules));

    TraceSpan Span("chc.query", "chc");
    Span.arg("terms", static_cast<std::int64_t>(Sys.NumTerms));
    Span.arg("rules", static_cast<std::int64_t>(Sys.NumRules));
    Span.arg("points", static_cast<std::int64_t>(Sys.NumPoints));
    Span.arg("constraints", static_cast<std::int64_t>(Sys.NumEquations));
    perfAdd(PerfCounter::ChcQueries);
    progressPublish([&](ProgressSnapshot &Pr) {
      progressSetStr(Pr.ChcState, "solving");
      Pr.ChcClauses = static_cast<std::uint64_t>(Sys.NumRules);
      Pr.UpdatedNs = detail::traceNowNs();
    });
    FixedpointSolver::Result QR =
        FP.query(Enc.goal(), Budget.queryBudgetMs(0), Budget);

    if (QR == FixedpointSolver::Result::Underivable) {
      perfAdd(PerfCounter::ChcUnsat);
      Span.arg("result", "unsat");
      progressPublish([&](ProgressSnapshot &Pr) {
        progressSetStr(Pr.ChcState, "unsat");
        Pr.UpdatedNs = detail::traceNowNs();
      });
      Result.V = Verdict::Unrealizable;
      Result.Ev.Source = VerdictSource::Chc;
      Result.Ev.Channel = "CHC";
      Result.Ev.ChcClauses = static_cast<std::uint64_t>(Sys.NumRules);
      std::ostringstream OS;
      OS << "CHC: `realizable` underivable over " << Sys.NumRules
         << " Horn clauses (" << Sys.NumTerms << " bounded terms, "
         << Sys.NumPoints << " points, " << Sys.NumEquations
         << " instantiated constraints)";
      Result.Detail = OS.str();
      break;
    }
    if (QR == FixedpointSolver::Result::Derivable) {
      perfAdd(PerfCounter::ChcDerivable);
      Span.arg("result", "sat");
      progressPublish([&](ProgressSnapshot &Pr) {
        progressSetStr(Pr.ChcState, "inconclusive");
        Pr.UpdatedNs = detail::traceNowNs();
      });
      // Derivable is inconclusive (the instantiation is an
      // underapproximation of the spec); try the next rung.
      Result.V = Verdict::Failed;
      Result.Detail = "CHC: `realizable` derivable (inconclusive)";
      continue;
    }
    perfAdd(PerfCounter::ChcUnknown);
    Span.arg("result", "unknown");
    Result.V = Budget.expired() ? Verdict::Timeout : Verdict::Failed;
    if (Result.V == Verdict::Failed)
      Result.Detail = "CHC: fixedpoint engine gave up";
    break;
  }

  return Run.finish(std::move(Result));
}
