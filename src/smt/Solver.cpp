//===- Solver.cpp ---------------------------------------------------------===//

#include "smt/Solver.h"

#include "cache/CacheConfig.h"
#include "cache/Canonical.h"
#include "cache/SmtQueryCache.h"
#include "smt/Session.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <z3++.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>
#include <unordered_map>

using namespace se2gis;

unsigned se2gis::smtRlimitForTimeoutMs(int TimeoutMs) {
  // ~50k resource units approximate one millisecond on commodity hardware;
  // the cap keeps the product inside Z3's unsigned parameter space.
  unsigned long long Rlimit =
      static_cast<unsigned long long>(TimeoutMs > 0 ? TimeoutMs : 1) *
      50000ULL;
  return static_cast<unsigned>(Rlimit > 4000000000ULL ? 4000000000ULL
                                                      : Rlimit);
}

// --- SmtModel -----------------------------------------------------------===//

void SmtModel::bind(const VarPtr &V, ValuePtr Val) {
  Assignments.emplace_back(V, std::move(Val));
}

ValuePtr SmtModel::lookup(unsigned Id) const {
  for (const auto &[V, Val] : Assignments)
    if (V->Id == Id)
      return Val;
  return nullptr;
}

std::string SmtModel::str() const {
  std::ostringstream OS;
  OS << '[';
  for (size_t I = 0; I < Assignments.size(); ++I) {
    if (I)
      OS << ", ";
    OS << Assignments[I].first->Name << " <- " << Assignments[I].second->str();
  }
  OS << ']';
  return OS.str();
}

// --- Translation --------------------------------------------------------===//

namespace {

/// Appends the scalar leaf types of \p Ty (tuples flattened) to \p Out.
void flattenType(const TypePtr &Ty, std::vector<TypePtr> &Out) {
  if (Ty->isTuple()) {
    for (const TypePtr &E : Ty->tupleElems())
      flattenType(E, Out);
    return;
  }
  if (!Ty->isInt() && !Ty->isBool())
    fatalError("non-scalar type reached the SMT solver: " + Ty->str());
  Out.push_back(Ty);
}

size_t flatWidth(const TypePtr &Ty) {
  std::vector<TypePtr> Leaves;
  flattenType(Ty, Leaves);
  return Leaves.size();
}

} // namespace

struct SmtQuery::Impl {
  // The session this query runs on: the thread's shared one (Borrowed,
  // reused across queries) or a private fresh-context fallback (Owned —
  // incremental mode off, or the shared session was busy/poisoned).
  SmtSession *Borrowed = nullptr;
  std::unique_ptr<SmtSession> Owned;

  Deadline Budget;
  bool HasDeadline = false;

  // Hit on every Var/Unknown node of every translated term; hash maps with
  // reserved capacity keep the hot path rehash- and rebalance-free. Model
  // readback sorts the entries by Id (below), so iteration order stays the
  // deterministic order the rest of the stack depends on. Both caches are
  // query-local and frame-scoped: the journals record insertion order, and
  // a pop erases exactly the entries interned while the popped frame was
  // open — so an unknown re-declared with a different signature in a later
  // frame, or a variable first seen in a retracted scope, can never alias
  // a stale z3 handle.
  std::unordered_map<unsigned, std::pair<VarPtr, std::vector<z3::expr>>>
      VarCache;
  std::unordered_map<std::string, std::vector<z3::func_decl>> UnknownCache;
  std::vector<unsigned> VarJournal;
  std::vector<std::string> UnknownJournal;

  std::vector<TermPtr> Requests;
  std::vector<z3::expr> SoftIndicators;
  // Cleared-for-checking by disableSoft(): the asserted soft implications
  // stay in the solver but their indicators are no longer assumed (or
  // cache-keyed), which makes them vacuous.
  bool SoftActive = true;
  // Source-level copies of the asserted terms, kept for cache keying: the
  // canonical hasher works on Term structure, which the eager translation
  // into Z3 ASTs discards.
  std::vector<TermPtr> HardTerms;
  std::vector<TermPtr> SoftTerms;

  /// Rollback marks of one push() scope; everything past a mark is
  /// retracted by the matching pop().
  struct FrameMarks {
    size_t Vars, Unknowns, Hard, Soft, Indicators, Reqs;
  };
  std::vector<FrameMarks> Frames;

  // Cumulative Term->Z3 translation wall time; checkSat reports the delta
  // since the previous check into the smt_translate histogram, so repeated
  // checks on a warm query show up as near-zero samples.
  std::uint64_t TranslateNs = 0;
  std::uint64_t TranslateReportedNs = 0;

  SmtSession &session() { return Borrowed ? *Borrowed : *Owned; }
  z3::context &ctx() { return session().Ctx; }
  z3::solver &solver() { return session().Solver; }

  Impl() {
    Borrowed = acquireThreadSmtSession();
    if (Borrowed) {
      perfAdd(Borrowed->QueriesServed ? PerfCounter::SmtSessionReuse
                                      : PerfCounter::SmtSessionFresh);
      Borrowed->Busy = true;
      ++Borrowed->QueriesServed;
      // The query's base frame: everything it asserts lives above this
      // mark, so the destructor can return the shared solver to its
      // always-empty base state.
      try {
        Borrowed->Solver.push();
      } catch (const z3::exception &E) {
        fatalError(std::string("Z3 error opening a session frame: ") +
                   E.msg());
      }
      ++Borrowed->Depth;
      perfAdd(PerfCounter::SmtPush);
    } else {
      Owned = std::make_unique<SmtSession>(currentSmtRandomSeed());
      ++Owned->QueriesServed;
      perfAdd(PerfCounter::SmtSessionFresh);
    }
    VarCache.reserve(64);
    UnknownCache.reserve(16);
  }

  ~Impl() {
    if (!Borrowed)
      return;
    // Unwind every scope this query still holds — unpopped user frames plus
    // the base frame — so the shared solver is assertion-free again. A Z3
    // failure here poisons the session instead of throwing from a dtor.
    unsigned ToPop = static_cast<unsigned>(Frames.size()) + 1;
    try {
      Borrowed->Solver.pop(ToPop);
      perfAdd(PerfCounter::SmtPop, ToPop);
    } catch (const z3::exception &) {
      Borrowed->RecyclePending = true;
    }
    Borrowed->Depth = Borrowed->Depth >= ToPop ? Borrowed->Depth - ToPop : 0;
    Borrowed->Busy = false;
  }

  z3::sort sortOf(const TypePtr &Ty) {
    return Ty->isInt() ? ctx().int_sort() : ctx().bool_sort();
  }

  const std::vector<z3::expr> &varExprs(const VarPtr &V) {
    auto It = VarCache.find(V->Id);
    if (It != VarCache.end())
      return It->second.second;
    std::vector<TypePtr> Leaves;
    flattenType(V->Ty, Leaves);
    std::vector<z3::expr> Exprs;
    for (size_t I = 0; I < Leaves.size(); ++I) {
      std::string Name = "v" + std::to_string(V->Id) +
                         (Leaves.size() > 1 ? "_" + std::to_string(I) : "");
      Exprs.push_back(ctx().constant(Name.c_str(), sortOf(Leaves[I])));
    }
    auto [Pos, Inserted] =
        VarCache.emplace(V->Id, std::make_pair(V, std::move(Exprs)));
    (void)Inserted;
    VarJournal.push_back(V->Id);
    return Pos->second.second;
  }

  const std::vector<z3::func_decl> &unknownDecls(const Term &U) {
    auto It = UnknownCache.find(U.getCallee());
    if (It != UnknownCache.end())
      return It->second;
    z3::sort_vector Domain(ctx());
    for (const TermPtr &A : U.getArgs()) {
      std::vector<TypePtr> Leaves;
      flattenType(A->getType(), Leaves);
      for (const TypePtr &L : Leaves)
        Domain.push_back(sortOf(L));
    }
    std::vector<TypePtr> RetLeaves;
    flattenType(U.getType(), RetLeaves);
    std::vector<z3::func_decl> Decls;
    for (size_t I = 0; I < RetLeaves.size(); ++I) {
      std::string Name = "u_" + U.getCallee() +
                         (RetLeaves.size() > 1 ? "_" + std::to_string(I) : "");
      Decls.push_back(
          ctx().function(Name.c_str(), Domain, sortOf(RetLeaves[I])));
    }
    auto [Pos, Inserted] =
        UnknownCache.emplace(U.getCallee(), std::move(Decls));
    (void)Inserted;
    UnknownJournal.push_back(U.getCallee());
    return Pos->second;
  }

  /// Translates \p T into its flattened scalar components.
  std::vector<z3::expr> translate(const TermPtr &T) {
    switch (T->getKind()) {
    case TermKind::Var:
      return varExprs(T->getVar());
    case TermKind::IntLit:
      return {ctx().int_val(static_cast<int64_t>(T->getIntValue()))};
    case TermKind::BoolLit:
      return {ctx().bool_val(T->getBoolValue())};
    case TermKind::Tuple: {
      std::vector<z3::expr> Out;
      for (const TermPtr &A : T->getArgs())
        for (z3::expr &E : translate(A))
          Out.push_back(std::move(E));
      return Out;
    }
    case TermKind::Proj: {
      std::vector<z3::expr> Tup = translate(T->getArg(0));
      const auto &Elems = T->getArg(0)->getType()->tupleElems();
      size_t Offset = 0;
      for (unsigned I = 0; I < T->getIndex(); ++I)
        Offset += flatWidth(Elems[I]);
      size_t Width = flatWidth(Elems[T->getIndex()]);
      return std::vector<z3::expr>(Tup.begin() + Offset,
                                   Tup.begin() + Offset + Width);
    }
    case TermKind::Unknown: {
      const std::vector<z3::func_decl> &Decls = unknownDecls(*T);
      z3::expr_vector Args(ctx());
      for (const TermPtr &A : T->getArgs())
        for (z3::expr &E : translate(A))
          Args.push_back(E);
      std::vector<z3::expr> Out;
      for (const z3::func_decl &D : Decls)
        Out.push_back(D(Args));
      return Out;
    }
    case TermKind::Op:
      return translateOp(T);
    case TermKind::Ctor:
    case TermKind::Call:
    case TermKind::Hole:
      fatalError("unreduced term reached the SMT solver: " + T->str());
    }
    fatalError("bad term kind");
  }

  std::vector<z3::expr> translateOp(const TermPtr &T) {
    OpKind Op = T->getOp();

    if (Op == OpKind::Ite) {
      z3::expr C = translate(T->getArg(0))[0];
      std::vector<z3::expr> Then = translate(T->getArg(1));
      std::vector<z3::expr> Else = translate(T->getArg(2));
      std::vector<z3::expr> Out;
      for (size_t I = 0; I < Then.size(); ++I)
        Out.push_back(z3::ite(C, Then[I], Else[I]));
      return Out;
    }
    if (Op == OpKind::Eq || Op == OpKind::Ne) {
      std::vector<z3::expr> A = translate(T->getArg(0));
      std::vector<z3::expr> B = translate(T->getArg(1));
      z3::expr_vector Eqs(ctx());
      for (size_t I = 0; I < A.size(); ++I)
        Eqs.push_back(A[I] == B[I]);
      z3::expr All = z3::mk_and(Eqs);
      return {Op == OpKind::Eq ? All : !All};
    }
    if (Op == OpKind::And || Op == OpKind::Or) {
      z3::expr_vector Parts(ctx());
      for (const TermPtr &A : T->getArgs())
        Parts.push_back(translate(A)[0]);
      return {Op == OpKind::And ? z3::mk_and(Parts) : z3::mk_or(Parts)};
    }

    std::vector<z3::expr> Args;
    for (const TermPtr &A : T->getArgs())
      Args.push_back(translate(A)[0]);
    switch (Op) {
    case OpKind::Add:
      return {Args[0] + Args[1]};
    case OpKind::Sub:
      return {Args[0] - Args[1]};
    case OpKind::Neg:
      return {-Args[0]};
    case OpKind::Mul:
      return {Args[0] * Args[1]};
    case OpKind::Div:
      return {Args[0] / Args[1]};
    case OpKind::Mod:
      return {z3::mod(Args[0], Args[1])};
    case OpKind::Min:
      return {z3::ite(Args[0] <= Args[1], Args[0], Args[1])};
    case OpKind::Max:
      return {z3::ite(Args[0] >= Args[1], Args[0], Args[1])};
    case OpKind::Abs:
      return {z3::ite(Args[0] >= 0, Args[0], -Args[0])};
    case OpKind::Lt:
      return {Args[0] < Args[1]};
    case OpKind::Le:
      return {Args[0] <= Args[1]};
    case OpKind::Gt:
      return {Args[0] > Args[1]};
    case OpKind::Ge:
      return {Args[0] >= Args[1]};
    case OpKind::Not:
      return {!Args[0]};
    case OpKind::Implies:
      return {z3::implies(Args[0], Args[1])};
    default:
      fatalError("unhandled operator in SMT translation");
    }
  }

  /// Reads one scalar leaf back from the model.
  ValuePtr leafValue(const z3::model &M, const z3::expr &E,
                     const TypePtr &Ty) {
    z3::expr V = M.eval(E, /*model_completion=*/true);
    if (Ty->isInt()) {
      int64_t N = 0;
      if (!V.is_numeral_i64(N))
        fatalError("non-numeral model value");
      return Value::mkInt(N);
    }
    return Value::mkBool(V.is_true());
  }

  /// Reassembles a (possibly tuple) value from flattened components.
  ValuePtr rebuild(const z3::model &M, const TypePtr &Ty,
                   const std::vector<z3::expr> &Comps, size_t &Cursor) {
    if (Ty->isTuple()) {
      std::vector<ValuePtr> Elems;
      for (const TypePtr &E : Ty->tupleElems())
        Elems.push_back(rebuild(M, E, Comps, Cursor));
      return Value::mkTuple(std::move(Elems));
    }
    return leafValue(M, Comps[Cursor++], Ty);
  }
};

// --- SmtQuery -----------------------------------------------------------===//

SmtQuery::SmtQuery() : I(std::make_unique<Impl>()) {}
SmtQuery::~SmtQuery() = default;

void SmtQuery::add(const TermPtr &Assertion) {
  assert(Assertion->getType()->isBool() && "assertions must be boolean");
  try {
    Stopwatch Watch;
    z3::expr E = I->translate(Assertion)[0];
    I->TranslateNs += Watch.elapsedNs();
    I->solver().add(E);
    I->HardTerms.push_back(Assertion);
  } catch (const z3::exception &E) {
    fatalError(std::string("Z3 error while asserting: ") + E.msg());
  }
}

void SmtQuery::addSoft(const TermPtr &Assertion) {
  assert(Assertion->getType()->isBool() && "assertions must be boolean");
  try {
    // The session serial keeps indicator names unique across every query a
    // shared context serves: bool_const interns by name, so a per-query
    // index would tie unrelated queries' soft implications together.
    std::string Name = "soft!" + std::to_string(I->session().SoftSerial++);
    z3::expr B = I->ctx().bool_const(Name.c_str());
    Stopwatch Watch;
    z3::expr E = I->translate(Assertion)[0];
    I->TranslateNs += Watch.elapsedNs();
    I->solver().add(z3::implies(B, E));
    I->SoftIndicators.push_back(B);
    I->SoftTerms.push_back(Assertion);
  } catch (const z3::exception &E) {
    fatalError(std::string("Z3 error while asserting: ") + E.msg());
  }
}

void SmtQuery::push() {
  try {
    I->solver().push();
  } catch (const z3::exception &E) {
    fatalError(std::string("Z3 error on push: ") + E.msg());
  }
  ++I->session().Depth;
  I->Frames.push_back({I->VarJournal.size(), I->UnknownJournal.size(),
                       I->HardTerms.size(), I->SoftTerms.size(),
                       I->SoftIndicators.size(), I->Requests.size()});
  perfAdd(PerfCounter::SmtPush);
}

void SmtQuery::pop() {
  assert(!I->Frames.empty() && "pop without matching push");
  Impl::FrameMarks F = I->Frames.back();
  I->Frames.pop_back();
  try {
    I->solver().pop();
  } catch (const z3::exception &E) {
    fatalError(std::string("Z3 error on pop: ") + E.msg());
  }
  --I->session().Depth;
  // Retract the frame's interned handles along with its assertions: a var
  // or unknown first seen inside the frame re-interns on a later
  // appearance, so model readback and unknown signatures can never go
  // through a handle whose declaration context was popped.
  for (size_t K = F.Vars; K < I->VarJournal.size(); ++K)
    I->VarCache.erase(I->VarJournal[K]);
  I->VarJournal.resize(F.Vars);
  for (size_t K = F.Unknowns; K < I->UnknownJournal.size(); ++K)
    I->UnknownCache.erase(I->UnknownJournal[K]);
  I->UnknownJournal.resize(F.Unknowns);
  I->HardTerms.resize(F.Hard);
  I->SoftTerms.resize(F.Soft);
  I->SoftIndicators.erase(I->SoftIndicators.begin() +
                              static_cast<std::ptrdiff_t>(F.Indicators),
                          I->SoftIndicators.end());
  I->Requests.resize(F.Reqs);
  perfAdd(PerfCounter::SmtPop);
}

void SmtQuery::disableSoft() { I->SoftActive = false; }

void SmtQuery::requestValue(const TermPtr &T) { I->Requests.push_back(T); }

void SmtQuery::setDeadline(const Deadline &Budget) {
  I->Budget = Budget;
  I->HasDeadline = true;
}

SmtResult SmtQuery::checkSat(int TimeoutMs, SmtModel *ModelOut,
                             std::vector<ValuePtr> *ValuesOut) {
  TraceSpan Span("smt.checkSat", "smt");
  PhaseScope SmtPhase(Phase::Smt);
  Stopwatch Watch;
  bool CacheHit = false;
  SmtResult R = checkSatImpl(TimeoutMs, ModelOut, ValuesOut, CacheHit);
  perfRecordNs(PerfHistogram::SmtCheckNs, Watch.elapsedNs());
  // Translation cost since the last check: repeated checks on a live query
  // (blocker deltas, push/pop partners) translate almost nothing, and the
  // histogram is where that shows.
  perfRecordNs(PerfHistogram::SmtTranslateNs,
               I->TranslateNs - I->TranslateReportedNs);
  I->TranslateReportedNs = I->TranslateNs;
  Span.arg("verdict", R == SmtResult::Sat     ? "sat"
                      : R == SmtResult::Unsat ? "unsat"
                                              : "unknown");
  Span.arg("cache", CacheHit ? "hit" : "miss");
  return R;
}

SmtResult SmtQuery::checkSatImpl(int TimeoutMs, SmtModel *ModelOut,
                                 std::vector<ValuePtr> *ValuesOut,
                                 bool &CacheHit) {
  perfAdd(PerfCounter::SmtQueries);
  // The Z3 budget mapping: clamp the per-query slice to the remaining run
  // budget. An already-expired deadline skips the solver entirely — the
  // caller's poll point translates the Unknown into a Timeout verdict.
  if (I->HasDeadline) {
    TimeoutMs = I->Budget.queryBudgetMs(TimeoutMs);
    if (TimeoutMs <= 0) {
      perfAdd(PerfCounter::SmtBudget);
      return SmtResult::Unknown;
    }
  }
  // Consult the memoization cache before touching Z3. This sits after the
  // deadline check on purpose: an expired budget must never be answered
  // from (or recorded into) the cache.
  static const std::vector<TermPtr> NoSoft;
  const bool UseCache = cacheEnabled();
  CanonicalQuery CQ;
  if (UseCache) {
    Stopwatch ProbeWatch;
    CQ = canonicalizeQuery(I->HardTerms,
                           I->SoftActive ? I->SoftTerms : NoSoft,
                           I->Requests);
    auto Hit = smtQueryCache().lookup(CQ, I->Requests.size());
    perfRecordNs(PerfHistogram::CacheProbeNs, ProbeWatch.elapsedNs());
    if (Hit) {
      CacheHit = true;
      if (Hit->Result == CachedSmtResult::Unsat) {
        perfAdd(PerfCounter::SmtUnsat);
        return SmtResult::Unsat;
      }
      perfAdd(PerfCounter::SmtSat);
      if (ModelOut) {
        // Rebind the cached slot values to this query's own variables, in
        // the ascending-Id order the rest of the stack depends on.
        std::vector<std::pair<VarPtr, ValuePtr>> Bindings;
        Bindings.reserve(CQ.VarOrder.size());
        for (size_t K = 0; K < CQ.VarOrder.size(); ++K)
          Bindings.emplace_back(CQ.VarOrder[K], Hit->ModelBySlot[K]);
        std::sort(Bindings.begin(), Bindings.end(),
                  [](const auto &A, const auto &B) {
                    return A.first->Id < B.first->Id;
                  });
        for (auto &[V, Val] : Bindings)
          ModelOut->bind(V, std::move(Val));
      }
      if (ValuesOut)
        for (size_t K = 0; K < I->Requests.size(); ++K)
          ValuesOut->push_back(Hit->RequestValues[K]);
      return SmtResult::Sat;
    }
  }
  try {
    // Budget via Z3's deterministic resource limit rather than the
    // wall-clock "timeout" parameter (see smtRlimitForTimeoutMs), set on the
    // context: the solver carries no rlimit param, so check() falls back to
    // the context value and scopes it to the call, giving every query on a
    // long-lived session its own slice. Re-setting solver params here
    // instead cost ~1.1 ms per check.
    I->ctx().set("rlimit",
                 std::to_string(smtRlimitForTimeoutMs(TimeoutMs)).c_str());

    // Translate the requests before checking so their symbols exist.
    std::vector<std::vector<z3::expr>> RequestExprs;
    {
      Stopwatch Watch;
      for (const TermPtr &R : I->Requests)
        RequestExprs.push_back(I->translate(R));
      I->TranslateNs += Watch.elapsedNs();
    }

    // MaxSAT-lite over the soft assumptions: drop unsat-core members until
    // the hard assertions plus remaining assumptions are satisfiable.
    std::vector<z3::expr> Active =
        I->SoftActive ? I->SoftIndicators : std::vector<z3::expr>();
    z3::check_result R;
    while (true) {
      z3::expr_vector Assumptions(I->ctx());
      for (const z3::expr &B : Active)
        Assumptions.push_back(B);
      {
        PerfTimerScope Z3Timer(PerfTimer::Z3SolveNs);
        R = Active.empty() ? I->solver().check()
                           : I->solver().check(Assumptions);
      }
      if (R != z3::unsat || Active.empty())
        break;
      z3::expr_vector Core = I->solver().unsat_core();
      if (Core.empty()) {
        // The hard assertions alone are unsat.
        Active.clear();
        continue;
      }
      size_t Before = Active.size();
      for (unsigned K = 0; K < Core.size(); ++K) {
        z3::expr C = Core[K];
        Active.erase(std::remove_if(Active.begin(), Active.end(),
                                    [&](const z3::expr &B) {
                                      return z3::eq(B, C);
                                    }),
                     Active.end());
      }
      if (Active.size() == Before)
        Active.clear(); // defensive: guarantee progress
    }
    if (R == z3::unsat) {
      perfAdd(PerfCounter::SmtUnsat);
      if (UseCache)
        smtQueryCache().insert(CQ, SmtCacheEntry{CachedSmtResult::Unsat,
                                                 {}, {}});
      return SmtResult::Unsat;
    }
    if (R == z3::unknown) {
      // Distinguish "the run budget expired mid-query" from genuine solver
      // incompleteness: the former is a budget-exceeded signal that the
      // algorithm loops turn into a Timeout verdict.
      if (I->HasDeadline && I->Budget.expired())
        perfAdd(PerfCounter::SmtBudget);
      else
        perfAdd(PerfCounter::SmtUnknown);
      // Either way the shared solver gave up mid-search; retire it after
      // this query so a half-explored incremental core can never color a
      // later verdict.
      if (I->Borrowed)
        I->Borrowed->RecyclePending = true;
      return SmtResult::Unknown;
    }
    perfAdd(PerfCounter::SmtSat);

    if (ModelOut || ValuesOut || UseCache) {
      z3::model M = I->solver().get_model();
      // The requested values are needed both by the caller and by the
      // cache entry; rebuild them once.
      std::vector<ValuePtr> RequestVals;
      if (ValuesOut || UseCache)
        for (size_t K = 0; K < RequestExprs.size(); ++K) {
          size_t Cursor = 0;
          RequestVals.push_back(I->rebuild(M, I->Requests[K]->getType(),
                                           RequestExprs[K], Cursor));
        }
      if (ModelOut) {
        // Bind in ascending-Id order: witness projection, certificate
        // conjunctions, and invariant-inference domains all iterate the
        // model's assignment order, so it must not depend on hash layout.
        // The VarCache holds exactly the live frames' variables (popped
        // frames erase theirs), so a session query binds the same set a
        // fresh-context query would.
        std::vector<const std::pair<VarPtr, std::vector<z3::expr>> *> Entries;
        Entries.reserve(I->VarCache.size());
        for (const auto &[Id, Entry] : I->VarCache) {
          (void)Id;
          Entries.push_back(&Entry);
        }
        std::sort(Entries.begin(), Entries.end(),
                  [](const auto *A, const auto *B) {
                    return A->first->Id < B->first->Id;
                  });
        for (const auto *Entry : Entries) {
          size_t Cursor = 0;
          ModelOut->bind(Entry->first,
                         I->rebuild(M, Entry->first->Ty, Entry->second,
                                    Cursor));
        }
      }
      if (ValuesOut)
        for (const ValuePtr &V : RequestVals)
          ValuesOut->push_back(V);
      if (UseCache) {
        // One model value per canonical slot; the slot order is part of the
        // key's meaning, so alpha-equivalent queries can rebind them.
        SmtCacheEntry Entry;
        Entry.Result = CachedSmtResult::Sat;
        bool Complete = true;
        for (const VarPtr &V : CQ.VarOrder) {
          auto It = I->VarCache.find(V->Id);
          if (It == I->VarCache.end()) {
            Complete = false;
            break;
          }
          size_t Cursor = 0;
          Entry.ModelBySlot.push_back(
              I->rebuild(M, V->Ty, It->second.second, Cursor));
        }
        if (Complete) {
          Entry.RequestValues = std::move(RequestVals);
          smtQueryCache().insert(CQ, std::move(Entry));
        }
      }
    }
    return SmtResult::Sat;
  } catch (const z3::exception &E) {
    // fatalError does not return, but make sure a diagnosable session is
    // not reused if that ever changes.
    if (I->Borrowed)
      I->Borrowed->RecyclePending = true;
    fatalError(std::string("Z3 error during check: ") + E.msg());
  }
}

// --- Convenience wrappers ------------------------------------------------===//

SmtResult se2gis::quickCheck(const std::vector<TermPtr> &Assertions,
                             int TimeoutMs, SmtModel *ModelOut,
                             const Deadline *Budget) {
  SmtQuery Q;
  if (Budget)
    Q.setDeadline(*Budget);
  for (const TermPtr &A : Assertions)
    Q.add(A);
  return Q.checkSat(TimeoutMs, ModelOut);
}

SmtResult se2gis::checkValidity(const TermPtr &Formula, int TimeoutMs,
                                SmtModel *CounterOut,
                                const Deadline *Budget) {
  SmtQuery Q;
  if (Budget)
    Q.setDeadline(*Budget);
  Q.add(mkNot(Formula));
  return Q.checkSat(TimeoutMs, CounterOut);
}
