//===- Simplify.cpp -------------------------------------------------------===//

#include "ast/Simplify.h"

#include "ast/ScalarOps.h"

using namespace se2gis;

namespace {

bool isIntLit(const TermPtr &T, long long Value) {
  return T->getKind() == TermKind::IntLit && T->getIntValue() == Value;
}

bool isBoolLit(const TermPtr &T, bool Value) {
  return T->getKind() == TermKind::BoolLit && T->getBoolValue() == Value;
}

bool allIntLits(const std::vector<TermPtr> &Args) {
  for (const TermPtr &A : Args)
    if (A->getKind() != TermKind::IntLit)
      return false;
  return true;
}

TermPtr foldIntOp(OpKind Op, const std::vector<TermPtr> &Args) {
  long long A = Args[0]->getIntValue();
  long long B = Args.size() > 1 ? Args[1]->getIntValue() : 0;
  long long R = evalIntOp(Op, A, B);
  return isIntComparison(Op) ? mkBoolLit(R != 0) : mkIntLit(R);
}

/// Flattens nested And/Or of the same kind and drops literal units.
TermPtr simplifyConnective(OpKind Op, const std::vector<TermPtr> &Args) {
  bool IsAnd = Op == OpKind::And;
  std::vector<TermPtr> Kept;
  for (const TermPtr &A : Args) {
    if (A->getKind() == TermKind::BoolLit) {
      if (A->getBoolValue() == IsAnd)
        continue; // identity element
      return mkBoolLit(!IsAnd);
    }
    if (A->getKind() == TermKind::Op && A->getOp() == Op) {
      for (const TermPtr &Sub : A->getArgs())
        Kept.push_back(Sub);
      continue;
    }
    Kept.push_back(A);
  }
  // Deduplicate syntactically identical conjuncts/disjuncts.
  std::vector<TermPtr> Unique;
  for (const TermPtr &K : Kept) {
    bool Dup = false;
    for (const TermPtr &U : Unique)
      if (termEquals(K, U)) {
        Dup = true;
        break;
      }
    if (!Dup)
      Unique.push_back(K);
  }
  if (Unique.empty())
    return mkBoolLit(IsAnd);
  if (Unique.size() == 1)
    return Unique[0];
  return mkOp(Op, std::move(Unique));
}

TermPtr simplifyOp(const TermPtr &T) {
  OpKind Op = T->getOp();
  const std::vector<TermPtr> &Args = T->getArgs();

  switch (Op) {
  case OpKind::And:
  case OpKind::Or:
    return simplifyConnective(Op, Args);

  case OpKind::Not: {
    const TermPtr &A = Args[0];
    if (A->getKind() == TermKind::BoolLit)
      return mkBoolLit(!A->getBoolValue());
    if (A->getKind() == TermKind::Op && A->getOp() == OpKind::Not)
      return A->getArg(0);
    return T;
  }

  case OpKind::Implies: {
    if (isBoolLit(Args[0], true))
      return Args[1];
    if (isBoolLit(Args[0], false) || isBoolLit(Args[1], true))
      return mkTrue();
    if (isBoolLit(Args[1], false))
      return simplify(mkNot(Args[0]));
    return T;
  }

  case OpKind::Ite: {
    if (isBoolLit(Args[0], true))
      return Args[1];
    if (isBoolLit(Args[0], false))
      return Args[2];
    if (termEquals(Args[1], Args[2]))
      return Args[1];
    if (Args[1]->getType()->isBool() && isBoolLit(Args[1], true) &&
        isBoolLit(Args[2], false))
      return Args[0];
    if (Args[1]->getType()->isBool() && isBoolLit(Args[1], false) &&
        isBoolLit(Args[2], true))
      return simplify(mkNot(Args[0]));
    return T;
  }

  case OpKind::Eq:
  case OpKind::Ne: {
    bool IsEq = Op == OpKind::Eq;
    if (termEquals(Args[0], Args[1]))
      return mkBoolLit(IsEq);
    if (Args[0]->getKind() == TermKind::IntLit &&
        Args[1]->getKind() == TermKind::IntLit)
      return foldIntOp(Op, Args);
    if (Args[0]->getType()->isBool()) {
      // eq(x, true) -> x, eq(x, false) -> not x (and symmetric / Ne duals).
      for (unsigned I = 0; I < 2; ++I) {
        const TermPtr &Lit = Args[I], &Other = Args[1 - I];
        if (Lit->getKind() != TermKind::BoolLit)
          continue;
        bool Pos = Lit->getBoolValue() == IsEq;
        return Pos ? Other : simplify(mkNot(Other));
      }
    }
    return T;
  }

  case OpKind::Add:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (isIntLit(Args[0], 0))
      return Args[1];
    if (isIntLit(Args[1], 0))
      return Args[0];
    return T;

  case OpKind::Sub:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (isIntLit(Args[1], 0))
      return Args[0];
    if (termEquals(Args[0], Args[1]))
      return mkIntLit(0);
    return T;

  case OpKind::Mul:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (isIntLit(Args[0], 0) || isIntLit(Args[1], 0))
      return mkIntLit(0);
    if (isIntLit(Args[0], 1))
      return Args[1];
    if (isIntLit(Args[1], 1))
      return Args[0];
    return T;

  case OpKind::Neg:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (Args[0]->getKind() == TermKind::Op && Args[0]->getOp() == OpKind::Neg)
      return Args[0]->getArg(0);
    return T;

  case OpKind::Min:
  case OpKind::Max:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (termEquals(Args[0], Args[1]))
      return Args[0];
    return T;

  case OpKind::Div:
  case OpKind::Mod:
    if (allIntLits(Args) && Args[1]->getIntValue() != 0)
      return foldIntOp(Op, Args);
    return T;

  case OpKind::Abs:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    return T;

  case OpKind::Lt:
  case OpKind::Gt:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (termEquals(Args[0], Args[1]))
      return mkFalse();
    return T;

  case OpKind::Le:
  case OpKind::Ge:
    if (allIntLits(Args))
      return foldIntOp(Op, Args);
    if (termEquals(Args[0], Args[1]))
      return mkTrue();
    return T;
  }
  return T;
}

} // namespace

TermPtr se2gis::simplifyNode(const TermPtr &T) {
  switch (T->getKind()) {
  case TermKind::Op:
    return simplifyOp(T);
  case TermKind::Proj:
    if (T->getArg(0)->getKind() == TermKind::Tuple)
      return T->getArg(0)->getArg(T->getIndex());
    return T;
  default:
    return T;
  }
}

TermPtr se2gis::simplify(const TermPtr &T) {
  return rewriteBottomUp(T, [](const TermPtr &N) { return simplifyNode(N); });
}
