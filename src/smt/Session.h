//===- Session.h - Long-lived per-thread Z3 sessions ------------*- C++-*-===//
///
/// \file
/// Internal header of the incremental SMT layer (DESIGN.md "Incremental SMT
/// model"); only Solver.cpp and Session.cpp may include it — it exposes
/// z3++.h, which the rest of the code base must never see.
///
/// A \c SmtSession owns one z3::context + z3::solver pair that stays alive
/// across many \c SmtQuery objects on the same thread. Queries assert into
/// push/pop frames above an always-empty base level, so destroying a query
/// returns the solver to a clean state while Z3's interned AST tables, sort
/// caches, and allocator arenas stay warm — that reuse is where the
/// context-per-query model spent most of its time.
///
/// Sessions are deliberately dumb: all frame bookkeeping, term interning,
/// and cache keying live in SmtQuery::Impl. The session only carries the
/// state that must outlive a query (context, solver, serial counters) and
/// the flags the acquisition policy reads (busy, poisoned).
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SMT_SESSION_H
#define SE2GIS_SMT_SESSION_H

#include <z3++.h>

#include <cstdint>

namespace se2gis {

/// One long-lived Z3 context/solver pair. Not thread-safe (z3::context is
/// not); each instance is confined to the thread that created it, either as
/// the thread's shared session or as a query-private fallback.
class SmtSession {
public:
  /// Applies a non-zero \p Seed to the solver once, here; the per-query
  /// budget never touches solver params (see SmtQuery::checkSat). A
  /// thread's seed changes only through resetThreadSmtSession, which also
  /// drops the session, so a session is never re-seeded: solver-internal
  /// random state is not reset by re-applying params.
  explicit SmtSession(unsigned Seed) : Solver(Ctx) {
    if (Seed) {
      z3::params P(Ctx);
      P.set("random_seed", Seed);
      Solver.set(P);
    }
  }
  SmtSession(const SmtSession &) = delete;
  SmtSession &operator=(const SmtSession &) = delete;

  z3::context Ctx;
  z3::solver Solver;

  /// Queries that have attached to this session (reuse = served > 1).
  std::uint64_t QueriesServed = 0;
  /// Makes soft-assumption indicator names unique across all queries served
  /// by this session's context: indicator constants are interned by name,
  /// so two queries must never mint the same one.
  std::uint64_t SoftSerial = 0;
  /// Live push scopes on the solver (base frames + user frames).
  unsigned Depth = 0;
  /// A live SmtQuery currently owns the solver. A session serves exactly
  /// one query at a time: a query constructed while the thread session is
  /// busy (nested query lifetimes) gets a private fresh-context session
  /// instead, so it can never observe the outer query's assertions.
  bool Busy = false;
  /// The session must be replaced before serving another query: set after
  /// a Z3 `unknown` (budget expiry or incompleteness can leave the
  /// incremental core in a half-explored state worth discarding) and by
  /// resetThreadSmtSession while busy.
  bool RecyclePending = false;
};

/// Acquires the calling thread's shared session for one query, creating or
/// recycling it per the fallback policy (busy -> nullptr, poisoned /
/// served-query budget -> replace). \returns nullptr when the caller must
/// use a private fresh-context session instead (incremental mode off on
/// this thread, or the thread session is busy). Does NOT mark the session
/// busy; the caller does once it commits to it.
SmtSession *acquireThreadSmtSession();

/// The Z3 random seed (0 = Z3 default) of the calling thread's sessions,
/// as last set by resetThreadSmtSession on this thread.
unsigned threadSmtSeed();

} // namespace se2gis

#endif // SE2GIS_SMT_SESSION_H
