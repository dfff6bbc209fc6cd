//===- Interp.cpp ---------------------------------------------------------===//

#include "eval/Interp.h"

#include "ast/ScalarOps.h"
#include "support/Diagnostics.h"

#include <cassert>

using namespace se2gis;

namespace {

ValuePtr evalOp(OpKind Op, const std::vector<ValuePtr> &Args) {
  auto B = [&](size_t K) { return Args[K]->getBool(); };
  switch (Op) {
  case OpKind::Eq:
    return Value::mkBool(valueEquals(Args[0], Args[1]));
  case OpKind::Ne:
    return Value::mkBool(!valueEquals(Args[0], Args[1]));
  case OpKind::Not:
    return Value::mkBool(!B(0));
  case OpKind::Implies:
    return Value::mkBool(!B(0) || B(1));
  case OpKind::And: {
    for (const ValuePtr &A : Args)
      if (!A->getBool())
        return Value::mkBool(false);
    return Value::mkBool(true);
  }
  case OpKind::Or: {
    for (const ValuePtr &A : Args)
      if (A->getBool())
        return Value::mkBool(true);
    return Value::mkBool(false);
  }
  case OpKind::Ite:
    fatalError("ite handled before operand evaluation");
  default:
    break;
  }
  long long R = evalIntOp(Op, Args[0]->getInt(),
                          Args.size() > 1 ? Args[1]->getInt() : 0);
  return isIntComparison(Op) ? Value::mkBool(R != 0) : Value::mkInt(R);
}

} // namespace

ValuePtr Interpreter::eval(const TermPtr &T, const Env &E) {
  if (++Steps > MaxSteps)
    userError("interpreter fuel exhausted (non-terminating recursion?)");

  switch (T->getKind()) {
  case TermKind::Var: {
    auto It = E.find(T->getVar()->Id);
    if (It == E.end())
      userError("unbound variable '" + T->getVar()->Name + "'");
    return It->second;
  }
  case TermKind::IntLit:
    return Value::mkInt(T->getIntValue());
  case TermKind::BoolLit:
    return Value::mkBool(T->getBoolValue());
  case TermKind::Hole:
    userError("cannot evaluate a term with holes");
  case TermKind::Op: {
    if (T->getOp() == OpKind::Ite) {
      ValuePtr C = eval(T->getArg(0), E);
      return eval(C->getBool() ? T->getArg(1) : T->getArg(2), E);
    }
    // Short-circuit the boolean connectives.
    if (T->getOp() == OpKind::And || T->getOp() == OpKind::Or) {
      bool IsAnd = T->getOp() == OpKind::And;
      for (const TermPtr &A : T->getArgs())
        if (eval(A, E)->getBool() != IsAnd)
          return Value::mkBool(!IsAnd);
      return Value::mkBool(IsAnd);
    }
    std::vector<ValuePtr> Args;
    Args.reserve(T->numArgs());
    for (const TermPtr &A : T->getArgs())
      Args.push_back(eval(A, E));
    return evalOp(T->getOp(), Args);
  }
  case TermKind::Tuple: {
    std::vector<ValuePtr> Elems;
    Elems.reserve(T->numArgs());
    for (const TermPtr &A : T->getArgs())
      Elems.push_back(eval(A, E));
    return Value::mkTuple(std::move(Elems));
  }
  case TermKind::Proj: {
    ValuePtr Tup = eval(T->getArg(0), E);
    assert(Tup->isTuple() && T->getIndex() < Tup->getElems().size());
    return Tup->getElems()[T->getIndex()];
  }
  case TermKind::Ctor: {
    std::vector<ValuePtr> Fields;
    Fields.reserve(T->numArgs());
    for (const TermPtr &A : T->getArgs())
      Fields.push_back(eval(A, E));
    return Value::mkData(T->getCtor(), std::move(Fields));
  }
  case TermKind::Call: {
    std::vector<ValuePtr> Args;
    Args.reserve(T->numArgs());
    for (const TermPtr &A : T->getArgs())
      Args.push_back(eval(A, E));
    return call(T->getCallee(), Args);
  }
  case TermKind::Unknown: {
    if (!Bindings)
      userError("evaluating unknown '$" + T->getCallee() +
                "' without bindings");
    auto It = Bindings->find(T->getCallee());
    if (It == Bindings->end())
      userError("no binding for unknown '$" + T->getCallee() + "'");
    const UnknownDef &Def = It->second;
    if (Def.Params.size() != T->numArgs())
      userError("arity mismatch for unknown '$" + T->getCallee() + "'");
    Env Local;
    for (size_t I = 0; I < Def.Params.size(); ++I)
      Local[Def.Params[I]->Id] = eval(T->getArg(I), E);
    return eval(Def.Body, Local);
  }
  }
  fatalError("bad term kind in interpreter");
}

ValuePtr Interpreter::call(const std::string &Name,
                           const std::vector<ValuePtr> &Args) {
  const RecFunction *F = Prog.findFunction(Name);
  if (!F)
    userError("call to undefined function '" + Name + "'");
  if (Args.size() != F->numArgs())
    userError("arity mismatch calling '" + Name + "'");

  Env Local;
  for (size_t I = 0; I < F->getParams().size(); ++I)
    Local[F->getParams()[I]->Id] = Args[I];

  if (!F->isScheme())
    return eval(F->getBody(), Local);

  const ValuePtr &Matched = Args.back();
  if (!Matched->isData())
    userError("matched argument of '" + Name + "' is not a datatype value");
  const SchemeRule *R = F->findRule(Matched->getCtor()->Index);
  if (!R)
    userError("no rule for constructor '" + Matched->getCtor()->Name +
              "' in '" + Name + "'");
  for (size_t I = 0; I < R->FieldVars.size(); ++I)
    Local[R->FieldVars[I]->Id] = Matched->getElems()[I];
  return eval(R->Body, Local);
}
