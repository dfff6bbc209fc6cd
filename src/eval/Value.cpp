//===- Value.cpp ----------------------------------------------------------===//

#include "eval/Value.h"

#include "ast/Term.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <sstream>

using namespace se2gis;

ValuePtr Value::mkInt(long long V) {
  auto *R = new Value(Kind::Int);
  R->I = V;
  return ValuePtr(R);
}

ValuePtr Value::mkBool(bool V) {
  auto *R = new Value(Kind::Bool);
  R->I = V ? 1 : 0;
  return ValuePtr(R);
}

ValuePtr Value::mkTuple(std::vector<ValuePtr> Elems) {
  assert(Elems.size() >= 2 && "tuples need at least two elements");
  auto *R = new Value(Kind::Tuple);
  R->Elems = std::move(Elems);
  return ValuePtr(R);
}

ValuePtr Value::mkData(const ConstructorDecl *Ctor,
                       std::vector<ValuePtr> Fields) {
  assert(Ctor && Fields.size() == Ctor->Fields.size() &&
         "constructor arity mismatch");
  auto *R = new Value(Kind::Data);
  R->Ctor = Ctor;
  R->Elems = std::move(Fields);
  return ValuePtr(R);
}

long long Value::getInt() const {
  assert(K == Kind::Int && "not an int value");
  return I;
}

bool Value::getBool() const {
  assert(K == Kind::Bool && "not a bool value");
  return I != 0;
}

const ConstructorDecl *Value::getCtor() const {
  assert(K == Kind::Data && "not a data value");
  return Ctor;
}

std::string Value::str() const {
  std::ostringstream OS;
  switch (K) {
  case Kind::Int:
    OS << I;
    break;
  case Kind::Bool:
    OS << (I ? "true" : "false");
    break;
  case Kind::Tuple: {
    OS << '(';
    for (size_t E = 0; E < Elems.size(); ++E) {
      if (E)
        OS << ", ";
      OS << Elems[E]->str();
    }
    OS << ')';
    break;
  }
  case Kind::Data: {
    OS << Ctor->Name;
    if (!Elems.empty()) {
      OS << '(';
      for (size_t E = 0; E < Elems.size(); ++E) {
        if (E)
          OS << ", ";
        OS << Elems[E]->str();
      }
      OS << ')';
    }
    break;
  }
  }
  return OS.str();
}

bool se2gis::valueEquals(const ValuePtr &A, const ValuePtr &B) {
  if (A.get() == B.get())
    return true;
  if (!A || !B || A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case Value::Kind::Int:
    return A->getInt() == B->getInt();
  case Value::Kind::Bool:
    return A->getBool() == B->getBool();
  case Value::Kind::Data:
    if (A->getCtor() != B->getCtor())
      return false;
    [[fallthrough]];
  case Value::Kind::Tuple: {
    const auto &EA = A->getElems(), &EB = B->getElems();
    if (EA.size() != EB.size())
      return false;
    for (size_t I = 0; I < EA.size(); ++I)
      if (!valueEquals(EA[I], EB[I]))
        return false;
    return true;
  }
  }
  return false;
}

bool se2gis::valueLess(const ValuePtr &A, const ValuePtr &B) {
  if (A->getKind() != B->getKind())
    return A->getKind() < B->getKind();
  switch (A->getKind()) {
  case Value::Kind::Int:
    return A->getInt() < B->getInt();
  case Value::Kind::Bool:
    return A->getBool() < B->getBool();
  case Value::Kind::Data:
    if (A->getCtor() != B->getCtor())
      return A->getCtor()->Index < B->getCtor()->Index;
    [[fallthrough]];
  case Value::Kind::Tuple: {
    const auto &EA = A->getElems(), &EB = B->getElems();
    if (EA.size() != EB.size())
      return EA.size() < EB.size();
    for (size_t I = 0; I < EA.size(); ++I) {
      if (valueLess(EA[I], EB[I]))
        return true;
      if (valueLess(EB[I], EA[I]))
        return false;
    }
    return false;
  }
  }
  return false;
}

std::uint64_t se2gis::valueHash(const ValuePtr &V) {
  std::uint64_t H = valueKindSeed(V->getKind());
  switch (V->getKind()) {
  case Value::Kind::Int:
    return intValueHash(V->getInt());
  case Value::Kind::Bool:
    return boolValueHash(V->getBool());
  case Value::Kind::Data:
    H = hashCombine(H, V->getCtor()->Index);
    [[fallthrough]];
  case Value::Kind::Tuple:
    for (const ValuePtr &E : V->getElems())
      H = hashCombine(H, valueHash(E));
    return H;
  }
  return H;
}
