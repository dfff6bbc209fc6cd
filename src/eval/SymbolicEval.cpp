//===- SymbolicEval.cpp ---------------------------------------------------===//

#include "eval/SymbolicEval.h"

#include "ast/Simplify.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"

#include <cassert>

using namespace se2gis;

TermPtr SymbolicEvaluator::eval(const TermPtr &T) {
  // The entry point (norm recurses below it), so one scope covers the whole
  // evaluation without per-step overhead.
  PhaseScope EvalPhase(Phase::Eval);
  Steps = 0;
  return norm(T);
}

TermPtr SymbolicEvaluator::norm(const TermPtr &T) {
  if (++Steps > MaxSteps)
    userError("symbolic evaluation fuel exhausted");

  // Normalize children first, then retry local reductions.
  bool Changed = false;
  std::vector<TermPtr> NewArgs;
  NewArgs.reserve(T->numArgs());
  for (const TermPtr &A : T->getArgs()) {
    TermPtr NA = norm(A);
    Changed |= NA.get() != A.get();
    NewArgs.push_back(std::move(NA));
  }

  TermPtr Node = T;
  if (Changed) {
    switch (T->getKind()) {
    case TermKind::Op:
      Node = mkOp(T->getOp(), std::move(NewArgs));
      break;
    case TermKind::Tuple:
      Node = mkTuple(std::move(NewArgs));
      break;
    case TermKind::Proj:
      Node = mkProj(std::move(NewArgs[0]), T->getIndex());
      break;
    case TermKind::Ctor:
      Node = mkCtor(T->getCtor(), std::move(NewArgs));
      break;
    case TermKind::Call:
      Node = mkCall(T->getCallee(), T->getType(), std::move(NewArgs));
      break;
    case TermKind::Unknown:
      Node = mkUnknown(T->getCallee(), T->getType(), std::move(NewArgs));
      break;
    default:
      fatalError("leaf node with arguments");
    }
  }

  if (Node->getKind() == TermKind::Call)
    return normCall(Node);
  if (Node->getKind() == TermKind::Unknown && Bindings) {
    auto It = Bindings->find(Node->getCallee());
    if (It != Bindings->end()) {
      const UnknownDef &Def = It->second;
      if (Def.Params.size() != Node->numArgs())
        userError("arity mismatch for unknown '$" + Node->getCallee() + "'");
      Substitution Map;
      for (size_t I = 0; I < Def.Params.size(); ++I)
        Map.emplace_back(Def.Params[I]->Id, Node->getArg(I));
      return norm(substitute(Def.Body, Map));
    }
  }
  return simplifyNode(Node);
}

TermPtr SymbolicEvaluator::normCall(const TermPtr &CallNode) {
  const RecFunction *F = Prog.findFunction(CallNode->getCallee());
  if (!F)
    userError("call to undefined function '" + CallNode->getCallee() + "'");
  if (CallNode->numArgs() != F->numArgs())
    userError("arity mismatch calling '" + CallNode->getCallee() + "'");

  if (!F->isScheme()) {
    Substitution Map;
    for (size_t I = 0; I < F->getParams().size(); ++I)
      Map.emplace_back(F->getParams()[I]->Id, CallNode->getArg(I));
    return norm(substitute(F->getBody(), Map));
  }

  const TermPtr &Matched = CallNode->getArg(CallNode->numArgs() - 1);

  // Distribute the call over data-typed conditionals so that both branches
  // can reduce: f(..., ite(c, a, b)) -> ite(c, f(..., a), f(..., b)).
  if (Matched->getKind() == TermKind::Op && Matched->getOp() == OpKind::Ite) {
    auto MakeBranch = [&](const TermPtr &Br) {
      std::vector<TermPtr> Args(CallNode->getArgs().begin(),
                                CallNode->getArgs().end() - 1);
      Args.push_back(Br);
      return mkCall(CallNode->getCallee(), CallNode->getType(),
                    std::move(Args));
    };
    return norm(mkIte(Matched->getArg(0), MakeBranch(Matched->getArg(1)),
                      MakeBranch(Matched->getArg(2))));
  }

  if (Matched->getKind() != TermKind::Ctor)
    return CallNode; // Stuck: partially bounded residue.

  const SchemeRule *R = F->findRule(Matched->getCtor()->Index);
  if (!R)
    userError("no rule for constructor '" + Matched->getCtor()->Name +
              "' in '" + CallNode->getCallee() + "'");
  perfAdd(PerfCounter::SymbolicUnfoldings);

  Substitution Map;
  for (size_t I = 0; I < F->getParams().size(); ++I)
    Map.emplace_back(F->getParams()[I]->Id, CallNode->getArg(I));
  for (size_t I = 0; I < R->FieldVars.size(); ++I)
    Map.emplace_back(R->FieldVars[I]->Id, Matched->getArg(I));
  return norm(substitute(R->Body, Map));
}
