//===- SgeSolver.cpp ------------------------------------------------------===//

#include "synth/SgeSolver.h"

#include "ast/Simplify.h"
#include "cache/CacheConfig.h"
#include "cache/Canonical.h"
#include "cache/SgeSolutionCache.h"
#include "support/Diagnostics.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

using namespace se2gis;

// The CEGIS loop narrates itself at debug verbosity (SE2GIS_LOG=debug, or
// the legacy SE2GIS_DEBUG=1 which SolverConfig::fromEnv maps onto it).

// --- Sge printing -------------------------------------------------------===//

std::string Sge::str() const {
  std::ostringstream OS;
  for (const SgeEquation &E : Eqns) {
    OS << E.Guard->str() << "  =>  " << E.Lhs->str() << " = " << E.Rhs->str()
       << '\n';
  }
  return OS.str();
}

// --- Helpers ------------------------------------------------------------===//

TermPtr se2gis::valueToTerm(const ValuePtr &V) {
  switch (V->getKind()) {
  case Value::Kind::Int:
    return mkIntLit(V->getInt());
  case Value::Kind::Bool:
    return mkBoolLit(V->getBool());
  case Value::Kind::Tuple: {
    std::vector<TermPtr> Elems;
    for (const ValuePtr &E : V->getElems())
      Elems.push_back(valueToTerm(E));
    return mkTuple(std::move(Elems));
  }
  case Value::Kind::Data:
    fatalError("cannot lift a datatype value into a scalar term");
  }
  fatalError("bad value kind");
}

TermPtr se2gis::mkDefaultTerm(const TypePtr &Ty) {
  if (Ty->isInt())
    return mkIntLit(0);
  if (Ty->isBool())
    return mkFalse();
  if (Ty->isTuple()) {
    std::vector<TermPtr> Elems;
    for (const TypePtr &E : Ty->tupleElems())
      Elems.push_back(mkDefaultTerm(E));
    return mkTuple(std::move(Elems));
  }
  fatalError("no default term for type " + Ty->str());
}

TermPtr se2gis::applySolution(const TermPtr &T, const UnknownBindings &Defs) {
  return rewriteBottomUp(T, [&](const TermPtr &N) -> TermPtr {
    if (N->getKind() != TermKind::Unknown)
      return N;
    auto It = Defs.find(N->getCallee());
    if (It == Defs.end())
      return N;
    const UnknownDef &Def = It->second;
    assert(Def.Params.size() == N->numArgs() && "unknown arity mismatch");
    Substitution Map;
    for (size_t I = 0; I < Def.Params.size(); ++I)
      Map.emplace_back(Def.Params[I]->Id, N->getArg(I));
    return substitute(Def.Body, Map);
  });
}

namespace {

/// Appends scalar leaf terms for parameter \p Root (projecting tuples).
void collectLeaves(const TermPtr &Root, std::vector<TermPtr> &Out) {
  const TypePtr &Ty = Root->getType();
  if (Ty->isTuple()) {
    for (unsigned I = 0; I < Ty->tupleElems().size(); ++I)
      collectLeaves(mkProj(Root, I), Out);
    return;
  }
  Out.push_back(Root);
}

/// Builds a substitution sending every assigned variable of \p M to its
/// literal term.
Substitution substOfModel(const SmtModel &M) {
  Substitution Map;
  for (const auto &[V, Val] : M.assignments())
    Map.emplace_back(V->Id, valueToTerm(Val));
  return Map;
}

bool modelCoversVars(const SmtModel &M, const TermPtr &T) {
  for (const VarPtr &V : freeVars(T))
    if (!M.lookup(V->Id))
      return false;
  return true;
}

} // namespace

// --- SgeSolver ----------------------------------------------------------===//

SgeSolver::SgeSolver(std::vector<UnknownSig> Unknowns, GrammarConfig Config)
    : Config(std::move(Config)) {
  for (UnknownSig &Sig : Unknowns) {
    UnknownInfo Info;
    Info.Sig = Sig;
    for (size_t I = 0; I < Sig.ArgTypes.size(); ++I) {
      VarPtr P =
          namedVar("p" + std::to_string(I) + "_" + Sig.Name, Sig.ArgTypes[I]);
      Info.Params.push_back(P);
      collectLeaves(mkVar(P), Info.Leaves);
    }
    Infos.push_back(std::move(Info));
  }
}

const SgeSolver::UnknownInfo *
SgeSolver::findInfo(const std::string &Name) const {
  for (const UnknownInfo &I : Infos)
    if (I.Sig.Name == Name)
      return &I;
  return nullptr;
}

const std::vector<VarPtr> &
SgeSolver::paramsOf(const std::string &Name) const {
  const UnknownInfo *I = findInfo(Name);
  if (!I)
    fatalError("unknown '" + Name + "' is not registered with the solver");
  return I->Params;
}

std::optional<UnknownBindings>
SgeSolver::synthesizeFromPoints(const Sge &System,
                                const std::vector<SmtModel> &Points,
                                const UnknownBindings &Current,
                                const Deadline &Budget, bool &Infeasible) {
  Infeasible = false;

  // Ground the system on the points.
  std::vector<TermPtr> Ground;
  for (const SmtModel &P : Points) {
    for (const SgeEquation &E : System.Eqns) {
      if (!modelCoversVars(P, E.Guard) || !modelCoversVars(P, E.Lhs) ||
          !modelCoversVars(P, E.Rhs))
        continue;
      Substitution Map = substOfModel(P);
      TermPtr Guard = simplify(substitute(E.Guard, Map));
      if (Guard->getKind() == TermKind::BoolLit && !Guard->getBoolValue())
        continue;
      TermPtr Lhs = simplify(substitute(E.Lhs, Map));
      TermPtr Rhs = simplify(substitute(E.Rhs, Map));
      TermPtr Constraint = mkEq(Lhs, Rhs);
      if (Guard->getKind() != TermKind::BoolLit)
        Constraint = mkOp(OpKind::Implies, {Guard, Constraint});
      Ground.push_back(std::move(Constraint));
    }
  }

  UnknownBindings Defs;
  if (Ground.empty()) {
    // Unconstrained: default everything.
    for (const UnknownInfo &I : Infos)
      Defs[I.Sig.Name] = UnknownDef{I.Params, mkDefaultTerm(I.Sig.RetTy)};
    return Defs;
  }

  // Collect the distinct unknown applications appearing in the constraints.
  std::vector<TermPtr> Occurrences;
  for (const TermPtr &G : Ground) {
    visitTerm(G, [&](const TermPtr &N) {
      if (N->getKind() != TermKind::Unknown)
        return true;
      for (const TermPtr &Known : Occurrences)
        if (termEquals(Known, N))
          return true;
      Occurrences.push_back(N);
      return true;
    });
  }

  // One session region for the whole CEGIS attempt loop below.
  SmtSessionScope SessionScope;

  // One live query per size tier: the ground constraints, candidate anchors,
  // and value requests are asserted once, and each rejected model's blocker
  // is added incrementally on top (CEGIS counterexample accumulation) —
  // the memoization-cache key is unchanged, since it is computed from the
  // accumulated term lists, not from how they were asserted.
  std::vector<TermPtr> Blockers;
  std::optional<SmtQuery> Q;
  auto BuildQuery = [&]() {
    Q.emplace();
    Q->setDeadline(Budget);
    for (const TermPtr &G : Ground)
      Q->add(G);
    for (const TermPtr &B : Blockers)
      Q->add(B);
    // Anchor underconstrained cells to the previous candidate's
    // predictions (soft): without this, Z3 fills them with arbitrary
    // values that no grammar term can generalize. Only meaningful on the
    // first model of a tier — once blockers exist, the anchors have
    // already been contradicted.
    if (AnchorToCandidate && !Current.empty() && Blockers.empty()) {
      for (const TermPtr &Occ : Occurrences) {
        TermPtr Applied = simplify(applySolution(Occ, Current));
        if (containsUnknown(Applied) || !freeVars(Applied).empty())
          continue;
        ValuePtr Predicted = evalScalarTerm(Applied, {});
        Q->addSoft(mkEq(Occ, valueToTerm(Predicted)));
      }
    }
    // Request the IO of every occurrence (arguments may contain nested
    // unknowns, so their values come from the model too).
    for (const TermPtr &Occ : Occurrences) {
      Q->requestValue(Occ);
      for (const TermPtr &A : Occ->getArgs())
        Q->requestValue(A);
    }
  };

  for (int Size = PbeStartSize; Size <= PbeMaxSize; Size += 2) {
    BuildQuery();
    for (int Attempt = 0; Attempt < MaxBlockedModels; ++Attempt) {
      if (Budget.expired())
        return std::nullopt;

      std::vector<ValuePtr> Vals;
      SmtResult R = Q->checkSat(PerQueryTimeoutMs, nullptr, &Vals);
      logf(LogLevel::Debug, "sge", "euf size=%d attempt=%d blockers=%zu -> %d",
           Size, Attempt, Blockers.size(), (int)R);
      if (R == SmtResult::Unknown)
        return std::nullopt;
      if (R == SmtResult::Unsat) {
        if (Blockers.empty()) {
          Infeasible = true;
          return std::nullopt;
        }
        // Every generalizable model was blocked; start over with a larger
        // size and no blockers.
        Blockers.clear();
        break;
      }

      // Build the IO tables.
      std::map<std::string, std::vector<PbeExample>> Tables;
      size_t Cursor = 0;
      std::vector<TermPtr> BlockerParts;
      for (const TermPtr &Occ : Occurrences) {
        ValuePtr Out = Vals[Cursor++];
        const UnknownInfo *Info = findInfo(Occ->getCallee());
        assert(Info && "unregistered unknown in SGE");
        PbeExample Ex;
        for (size_t I = 0; I < Occ->numArgs(); ++I)
          Ex.Inputs[Info->Params[I]->Id] = Vals[Cursor++];
        Ex.Output = Out;
        Tables[Occ->getCallee()].push_back(std::move(Ex));
        BlockerParts.push_back(mkNot(mkEq(Occ, valueToTerm(Out))));
      }

      // Generalize each table.
      UnknownBindings Candidate;
      bool AllOk = true;
      for (const UnknownInfo &I : Infos) {
        Enumerator En(Config, I.Leaves);
        std::vector<PbeExample> Examples;
        auto TableIt = Tables.find(I.Sig.Name);
        if (TableIt != Tables.end())
          Examples = TableIt->second;
        auto Body = En.synthesize(I.Sig.RetTy, Examples, Size, Budget);
        if (!Body) {
          logf(LogLevel::Debug, "sge", "pbe failed for %s (%zu examples)",
               I.Sig.Name.c_str(), Examples.size());
          AllOk = false;
          break;
        }
        Candidate[I.Sig.Name] = UnknownDef{I.Params, std::move(*Body)};
      }
      if (AllOk)
        return Candidate;

      // Block this model's IO table and try another: the blocker is both
      // carried for future tiers and asserted incrementally into the live
      // query. The first-model soft anchors no longer apply (a blocked
      // model means the candidate's predictions were unusable), so drop
      // them from checking and cache keying rather than rebuilding.
      TermPtr Blocker = mkOrList(std::move(BlockerParts));
      Blockers.push_back(Blocker);
      Q->add(Blocker);
      Q->disableSoft();
    }
  }
  return std::nullopt;
}

SgeResult SgeSolver::solve(const Sge &System, const Deadline &Budget) {
  SgeResult Result;
  std::vector<SmtModel> Points;

  // Warm start: a previously solved, structurally equal system (the
  // refinement/coarsening loops re-emit them, and portfolio members emit
  // them concurrently) seeds the initial candidate. The candidate still
  // goes through full round-0 verification below, so a wrong or stale
  // entry costs one verification round and nothing else.
  Hash128 SystemKey{};
  bool HaveKey = false;
  UnknownBindings Candidate;
  if (cacheEnabled()) {
    std::vector<TermPtr> EqTerms;
    for (const SgeEquation &E : System.Eqns)
      EqTerms.push_back(
          mkOp(OpKind::Implies, {E.Guard, mkEq(E.Lhs, E.Rhs)}));
    SystemKey = canonicalSystemHash(EqTerms);
    SystemKey = hashGrammarConfig(SystemKey, Config);
    for (const UnknownInfo &I : Infos)
      SystemKey = hashUnknownSig(SystemKey, I.Sig);
    HaveKey = true;
    if (auto Hit = sgeSolutionCache().lookup(SystemKey)) {
      // Re-express the cached bodies over this solver's parameters.
      for (const UnknownInfo &I : Infos) {
        auto It = Hit->Solution.find(I.Sig.Name);
        if (It == Hit->Solution.end() ||
            It->second.Params.size() != I.Params.size()) {
          Candidate.clear();
          break;
        }
        Substitution Map;
        for (size_t K = 0; K < I.Params.size(); ++K)
          Map.emplace_back(It->second.Params[K]->Id, mkVar(I.Params[K]));
        Candidate[I.Sig.Name] =
            UnknownDef{I.Params, substitute(It->second.Body, Map)};
      }
    }
  }

  // Initial candidate: defaults (round 0 behaves like classic CEGIS).
  if (Candidate.size() != Infos.size()) {
    Candidate.clear();
    for (const UnknownInfo &I : Infos)
      Candidate[I.Sig.Name] = UnknownDef{I.Params, mkDefaultTerm(I.Sig.RetTy)};
  }

  const int MaxRounds = 64;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    TraceSpan Span("sge.round", "sge");
    Span.arg("round", static_cast<std::int64_t>(Round));
    Span.arg("points", static_cast<std::uint64_t>(Points.size()));
    if (Budget.expired()) {
      Result.Solution = std::move(Candidate); // partial: last candidate tried
      return Result;
    }
    Result.Rounds = Round + 1;

    // Verify the candidate on the full system.
    bool Failed = false;
    for (const SgeEquation &E : System.Eqns) {
      TermPtr Lhs = simplify(applySolution(E.Lhs, Candidate));
      TermPtr Formula =
          simplify(mkAndList({E.Guard, mkNot(mkEq(Lhs, E.Rhs))}));
      if (Formula->getKind() == TermKind::BoolLit &&
          !Formula->getBoolValue())
        continue;
      SmtModel Counter;
      SmtResult R = quickCheck({Formula}, PerQueryTimeoutMs, &Counter, &Budget);
      if (R == SmtResult::Unsat)
        continue;
      if (R == SmtResult::Unknown) {
        if (logEnabled(LogLevel::Debug))
          logf(LogLevel::Debug, "sge", "verify unknown on eqn %zu: %s",
               E.TermIndex, Formula->str().c_str());
        Result.Solution = std::move(Candidate);
        return Result; // give up with Unknown status
      }
      // The substituted candidate may have erased variables of the original
      // equation from the formula (e.g. a constant candidate); complete the
      // model with defaults so the point still grounds the equation.
      for (const TermPtr &Part : {E.Guard, E.Lhs, E.Rhs})
        for (const VarPtr &V : freeVars(Part))
          if (!Counter.lookup(V->Id))
            Counter.bind(V, evalScalarTerm(mkDefaultTerm(V->Ty), {}));
      Points.push_back(std::move(Counter));
      Failed = true;
      break;
    }
    if (!Failed) {
      Result.Status = SgeStatus::Solved;
      if (HaveKey)
        sgeSolutionCache().insert(SystemKey, SgeCacheEntry{Candidate});
      Result.Solution = std::move(Candidate);
      return Result;
    }
    if (logEnabled(LogLevel::Debug)) {
      logf(LogLevel::Debug, "sge", "round %d: candidate rejected; points=%zu",
           Round, Points.size());
      for (const auto &[Name, Def] : Candidate)
        logf(LogLevel::Debug, "sge", "  %s = %s", Name.c_str(),
             simplify(Def.Body)->str().c_str());
    }

    bool Infeasible = false;
    auto Next =
        synthesizeFromPoints(System, Points, Candidate, Budget, Infeasible);
    if (Infeasible) {
      Result.Status = SgeStatus::Infeasible;
      return Result;
    }
    if (!Next) {
      Result.Solution = std::move(Candidate);
      return Result; // Unknown
    }
    Candidate = std::move(*Next);
  }
  Result.Solution = std::move(Candidate);
  return Result;
}
