//===- FixedpointSolver.cpp -----------------------------------------------===//

#include "chc/FixedpointSolver.h"

#include "smt/Solver.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"

#include <atomic>
#include <chrono>
#include <thread>

using namespace se2gis;

FixedpointSolver::FixedpointSolver() : Fp(Ctx) {}

void FixedpointSolver::registerRelation(const z3::func_decl &D) {
  z3::func_decl Decl = D;
  Fp.register_relation(Decl);
}

void FixedpointSolver::insert(z3::expr Rule, const char *Name) {
  Fp.add_rule(Rule, Ctx.str_symbol(Name));
  RuleTexts.push_back(Rule.to_string());
}

void FixedpointSolver::addFact(const z3::expr &Head, const char *Name) {
  insert(Head, Name);
}

void FixedpointSolver::addRule(const z3::expr_vector &Bound,
                               const z3::expr &Body, const z3::expr &Head,
                               const char *Name) {
  z3::expr Rule = z3::implies(Body, Head);
  if (!Bound.empty())
    Rule = z3::forall(Bound, Rule);
  insert(std::move(Rule), Name);
}

FixedpointSolver::Result FixedpointSolver::query(const z3::expr &Goal,
                                                 int TimeoutMs,
                                                 const Deadline &Budget) {
  PhaseScope ChcPhase(Phase::Chc);
  int Ms = Budget.queryBudgetMs(TimeoutMs);
  if (Ms <= 0)
    return Result::Unknown; // expired before the query even started

  try {
    z3::params P(Ctx);
    P.set("rlimit", smtRlimitForTimeoutMs(Ms));
    Fp.set(P);
  } catch (const z3::exception &) {
    // An engine build that rejects a generic rlimit still gets a budget:
    // the watchdog below enforces the wall-clock limit via interrupt.
  }

  // Watchdog: z3::fixedpoint has no poll point of its own, so a helper
  // thread watches the deadline/token and interrupts the engine. Interrupt
  // is a soft request — keep re-issuing it until the query returns.
  std::atomic<bool> QueryDone{false};
  Stopwatch Watch;
  std::thread Guard([&] {
    while (!QueryDone.load(std::memory_order_acquire)) {
      if (Budget.expired() || Watch.elapsedMs() > static_cast<double>(Ms))
        Ctx.interrupt();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  Result Out = Result::Unknown;
  try {
    PerfTimerScope Z3Timer(PerfTimer::Z3SolveNs);
    z3::expr G = Goal;
    switch (Fp.query(G)) {
    case z3::sat:
      Out = Result::Derivable;
      break;
    case z3::unsat:
      Out = Result::Underivable;
      break;
    case z3::unknown:
      Out = Result::Unknown;
      break;
    }
  } catch (const z3::exception &) {
    Out = Result::Unknown; // interrupted (or an engine error): inconclusive
  }
  QueryDone.store(true, std::memory_order_release);
  Guard.join();
  return Out;
}
