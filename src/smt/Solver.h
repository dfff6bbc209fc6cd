//===- Solver.h - Z3-backed SMT queries over scalar terms -------*- C++-*-===//
///
/// \file
/// The only interface to Z3 in the code base. By design every query the
/// SE²GIS stack emits is *scalar*: terms over Int/Bool/tuple variables,
/// builtin operators, and (optionally) unknown-function applications that are
/// encoded as uninterpreted functions (this is how the SGE synthesis step
/// finds candidate input/output tables, and how Algorithm 1 solves for
/// witness model pairs). Datatype values and recursive calls never reach the
/// solver; the evaluators reduce them away first.
///
/// Tuples are scalarized during translation: a tuple-typed variable becomes
/// one Z3 constant per flattened component, equality becomes a conjunction,
/// and tuple-returning unknowns become one uninterpreted function per
/// component.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SMT_SOLVER_H
#define SE2GIS_SMT_SOLVER_H

#include "ast/Term.h"
#include "eval/Value.h"
#include "support/Cancellation.h"

#include <memory>
#include <optional>
#include <vector>

namespace se2gis {

/// Outcome of a satisfiability query.
enum class SmtResult : unsigned char { Sat, Unsat, Unknown };

/// A scalar model: values for the free variables of a query.
class SmtModel {
public:
  void bind(const VarPtr &V, ValuePtr Val);

  /// \returns the value of variable \p Id, or nullptr.
  ValuePtr lookup(unsigned Id) const;

  const std::vector<std::pair<VarPtr, ValuePtr>> &assignments() const {
    return Assignments;
  }

  std::string str() const;

private:
  std::vector<std::pair<VarPtr, ValuePtr>> Assignments;
};

/// A single satisfiability query; cheap to construct. A query runs on an
/// *SMT session* — a long-lived per-thread Z3 context/solver pair — when
/// the incremental layer is enabled on the calling thread (the default; see
/// resetThreadSmtSession): construction attaches the query to the thread's
/// session and opens a push/pop frame for its assertions, destruction pops
/// the frame, so consecutive queries reuse a warm solver instead of
/// rebuilding a context. Construction falls back to a private fresh context
/// when the session is busy (a query nested inside another query's
/// lifetime) and replaces a session poisoned by a prior `unknown` — a
/// degraded session can therefore never change a verdict. With the layer
/// disabled every query owns a private fresh context (the historical
/// behavior). Either way the session's solver params are set at most once,
/// when it is created with a non-zero seed; each check's budget goes
/// through the context's "rlimit" param instead (see
/// smtRlimitForTimeoutMs).
class SmtQuery {
public:
  SmtQuery();
  ~SmtQuery();
  SmtQuery(const SmtQuery &) = delete;
  SmtQuery &operator=(const SmtQuery &) = delete;

  /// Adds a boolean scalar assertion.
  void add(const TermPtr &Assertion);

  /// Opens a nested assertion scope: assertions, soft assertions, and value
  /// requests issued after \c push are retracted again by the matching
  /// \c pop. Callers with families of closely related checks (CEGIS
  /// blockers, witness partner deltas) assert the shared base once and
  /// stack the per-check delta in a scope.
  void push();

  /// Closes the innermost scope opened by \c push, retracting everything
  /// asserted or requested inside it (including each variable or unknown
  /// first interned there, so a later re-appearance re-interns it).
  void pop();

  /// Permanently deactivates this query's soft assertions: subsequent
  /// \c checkSat calls behave (and cache-key) as if \c addSoft had never
  /// been called. Used when a caller's anchoring heuristic only applies to
  /// its first check (see SgeSolver).
  void disableSoft();

  /// Adds a *soft* assertion: \c checkSat tries to satisfy as many soft
  /// assertions as possible, iteratively dropping unsat-core members
  /// (MaxSAT-lite). Used to anchor EUF models to the previous candidate's
  /// predictions so underconstrained cells don't get arbitrary values.
  void addSoft(const TermPtr &Assertion);

  /// Requests the value of scalar term \p T in a sat model; results are
  /// returned by \c checkSat in request order.
  void requestValue(const TermPtr &T);

  /// Attaches an overall run deadline: \c checkSat clamps its per-query
  /// budget to the remaining time (the Z3 budget mapping) and returns
  /// Unknown immediately — without entering Z3 — once the deadline has
  /// expired. A Z3 `unknown` that coincides with an expired deadline is
  /// accounted as budget-exceeded (PerfCounter::SmtBudget), not solver
  /// incompleteness.
  void setDeadline(const Deadline &Budget);

  /// Runs the check with a per-query timeout (further clamped to the
  /// deadline set via \c setDeadline, if any). Every call is observable: it
  /// records an "smt.checkSat" trace span (verdict + cache hit/miss args),
  /// feeds the PerfHistogram::SmtCheckNs latency histogram, and attributes
  /// its wall time to Phase::Smt.
  /// \param ModelOut if non-null and Sat, receives values for all free
  ///        variables seen in assertions.
  /// \param ValuesOut if non-null and Sat, receives the requested values.
  SmtResult checkSat(int TimeoutMs, SmtModel *ModelOut = nullptr,
                     std::vector<ValuePtr> *ValuesOut = nullptr);

private:
  SmtResult checkSatImpl(int TimeoutMs, SmtModel *ModelOut,
                         std::vector<ValuePtr> *ValuesOut, bool &CacheHit);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// The deterministic budget mapping shared by every Z3 engine in the stack
/// (SmtQuery::checkSat and the CHC fixedpoint channel): milliseconds scaled
/// to a Z3 resource limit (~50k units/ms on commodity hardware), capped to
/// the engine's unsigned parameter space. Resource limits are preferred
/// over Z3's wall-clock "timeout" because the latter spawns a timer thread
/// per query and makes runs non-reproducible. SmtQuery sets the value as
/// the context param "rlimit" before each check: Z3's check() reads it when
/// the solver has no rlimit param of its own and scopes it to that call.
/// (Setting it through solver params instead costs ~1.1 ms per check in
/// Z3_solver_set_params; DESIGN.md "Incremental SMT model".) The CHC
/// fixedpoint engine, one query per problem, takes it as an engine param.
unsigned smtRlimitForTimeoutMs(int TimeoutMs);

// --- Incremental sessions (DESIGN.md "Incremental SMT model") ----------===//

/// Drops the calling thread's shared session (or, while it is serving a
/// live query, marks it for replacement at the next acquisition) and sets
/// the thread's run settings for every later query on it: the Z3 random
/// \p Seed of its sessions (0 = Z3's default; applied once, when a session
/// is created) and whether queries use the thread's session at all
/// (\p Incremental off = a private fresh context per query). The settings
/// are per thread; a thread that never calls this runs on the defaults.
/// RunScope (core/RunScope.h) calls it at the start of every run with
/// AlgoOptions::Seed and AlgoOptions::SmtIncremental. Queries never break:
/// the next one simply starts a fresh session.
void resetThreadSmtSession(unsigned Seed = 0, bool Incremental = true);

/// Observable state of the calling thread's session slot, for tests and
/// diagnostics.
struct SmtSessionInfo {
  /// A session currently exists on this thread.
  bool Live = false;
  /// It is attached to a live SmtQuery right now.
  bool Busy = false;
  /// Sessions created on this thread so far (bumps on every recycle).
  std::uint64_t Generation = 0;
  /// The Z3 random seed this thread's sessions are created with (0 = Z3's
  /// default), as last set by resetThreadSmtSession.
  unsigned Seed = 0;
  /// Queries the current session has served (0 when not Live).
  std::uint64_t QueriesServed = 0;
  /// Live solver scopes (0 when idle: every query pops its frames).
  unsigned Depth = 0;
};
SmtSessionInfo threadSmtSessionInfo();

/// RAII marker for an algorithm region that issues many related queries
/// (a CEGIS loop, a witness sweep, a bounded-check enumeration). Inside a
/// scope the thread session is exempt from served-query retirement, so the
/// region keeps one warm solver end to end; on exit of the outermost scope
/// a session due for retirement or replacement is dropped eagerly, which
/// bounds the Z3 memory carried between regions. Purely an optimization
/// hint — correctness never depends on scopes being present.
class SmtSessionScope {
public:
  SmtSessionScope();
  ~SmtSessionScope();
  SmtSessionScope(const SmtSessionScope &) = delete;
  SmtSessionScope &operator=(const SmtSessionScope &) = delete;
};

/// Convenience: is the conjunction of \p Assertions satisfiable?
/// \p Budget, when non-null, bounds the query like \c SmtQuery::setDeadline.
SmtResult quickCheck(const std::vector<TermPtr> &Assertions, int TimeoutMs,
                     SmtModel *ModelOut = nullptr,
                     const Deadline *Budget = nullptr);

/// Convenience: is \p Formula valid (i.e. its negation unsatisfiable)?
/// Returns Sat if a countermodel exists (stored in \p CounterOut), Unsat if
/// valid, Unknown otherwise. \p Budget as in \c quickCheck.
SmtResult checkValidity(const TermPtr &Formula, int TimeoutMs,
                        SmtModel *CounterOut = nullptr,
                        const Deadline *Budget = nullptr);

} // namespace se2gis

#endif // SE2GIS_SMT_SOLVER_H
