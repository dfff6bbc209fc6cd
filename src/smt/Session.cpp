//===- Session.cpp - Per-thread sessions and run settings ----------------===//

#include "smt/Session.h"

#include "smt/Solver.h"

#include <memory>

using namespace se2gis;

namespace {

/// A session is retired after serving this many queries (when no
/// SmtSessionScope is open): it bounds the memory a long-running worker
/// thread can pin in one Z3 context without measurably hurting reuse.
constexpr std::uint64_t MaxQueriesPerSession = 512;

/// The per-thread session slot. Generation counts sessions created on this
/// thread — tests and callers observe recycling through it. Seed and
/// Incremental are the thread's run settings (see resetThreadSmtSession):
/// the seed every session on this thread is created with, and whether
/// queries use the thread's session at all (off = a private fresh context
/// per query).
struct SessionSlot {
  std::unique_ptr<SmtSession> S;
  std::uint64_t Generation = 0;
  unsigned Seed = 0;
  bool Incremental = true;
};

SessionSlot &threadSlot() {
  thread_local SessionSlot Slot;
  return Slot;
}

/// Open SmtSessionScope nesting depth on this thread. While a scope is
/// open, the served-query retirement is deferred to scope exit so a tight
/// CEGIS/witness region keeps its warm solver mid-region; poisoning is
/// never deferred.
thread_local unsigned GScopeDepth = 0;

bool overServedBudget(const SmtSession &S) {
  return S.QueriesServed >= MaxQueriesPerSession;
}

} // namespace

unsigned se2gis::threadSmtSeed() { return threadSlot().Seed; }

SmtSession *se2gis::acquireThreadSmtSession() {
  SessionSlot &Slot = threadSlot();
  if (!Slot.Incremental)
    return nullptr;
  // One live query per session: a nested query would otherwise solve under
  // the outer query's assertions. The caller falls back to a private
  // fresh-context session.
  if (Slot.S && Slot.S->Busy)
    return nullptr;
  if (Slot.S && (Slot.S->RecyclePending ||
                 (GScopeDepth == 0 && overServedBudget(*Slot.S))))
    Slot.S.reset();
  if (!Slot.S) {
    Slot.S = std::make_unique<SmtSession>(Slot.Seed);
    ++Slot.Generation;
  }
  return Slot.S.get();
}

void se2gis::resetThreadSmtSession(unsigned Seed, bool Incremental) {
  SessionSlot &Slot = threadSlot();
  Slot.Seed = Seed;
  Slot.Incremental = Incremental;
  if (!Slot.S)
    return;
  // A busy session is owned by a live query whose Impl holds a raw pointer
  // into it; defer the drop to the next acquisition instead.
  if (Slot.S->Busy) {
    Slot.S->RecyclePending = true;
    return;
  }
  Slot.S.reset();
}

SmtSessionInfo se2gis::threadSmtSessionInfo() {
  SessionSlot &Slot = threadSlot();
  SmtSessionInfo Info;
  Info.Generation = Slot.Generation;
  Info.Seed = Slot.Seed;
  if (Slot.S) {
    Info.Live = true;
    Info.Busy = Slot.S->Busy;
    Info.QueriesServed = Slot.S->QueriesServed;
    Info.Depth = Slot.S->Depth;
  }
  return Info;
}

SmtSessionScope::SmtSessionScope() { ++GScopeDepth; }

SmtSessionScope::~SmtSessionScope() {
  if (--GScopeDepth)
    return;
  SessionSlot &Slot = threadSlot();
  if (Slot.S && !Slot.S->Busy &&
      (Slot.S->RecyclePending || overServedBudget(*Slot.S)))
    Slot.S.reset();
}
