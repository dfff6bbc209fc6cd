//===- Value.h - Concrete values for the interpreter ------------*- C++-*-===//
///
/// \file
/// Concrete values: integers, booleans, tuples, and datatype values (a
/// constructor applied to concrete fields). These are the "concrete terms"
/// of the paper, reified as a compact runtime representation used by the
/// interpreter, the PBE learner, and witness-validity certificates.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_EVAL_VALUE_H
#define SE2GIS_EVAL_VALUE_H

#include "ast/Term.h"
#include "ast/Type.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace se2gis {

class Value;
using ValuePtr = std::shared_ptr<const Value>;

/// A concrete value. Immutable; construct via the factories.
class Value {
public:
  enum class Kind : unsigned char { Int, Bool, Tuple, Data };

  Kind getKind() const { return K; }
  bool isInt() const { return K == Kind::Int; }
  bool isBool() const { return K == Kind::Bool; }
  bool isTuple() const { return K == Kind::Tuple; }
  bool isData() const { return K == Kind::Data; }

  static ValuePtr mkInt(long long V);
  static ValuePtr mkBool(bool V);
  static ValuePtr mkTuple(std::vector<ValuePtr> Elems);
  static ValuePtr mkData(const ConstructorDecl *Ctor,
                         std::vector<ValuePtr> Fields);

  long long getInt() const;
  bool getBool() const;
  const std::vector<ValuePtr> &getElems() const { return Elems; }
  const ConstructorDecl *getCtor() const;

  std::string str() const;

private:
  explicit Value(Kind K) : K(K) {}

  Kind K;
  long long I = 0;
  std::vector<ValuePtr> Elems;
  const ConstructorDecl *Ctor = nullptr;
};

/// Deep structural equality.
bool valueEquals(const ValuePtr &A, const ValuePtr &B);

/// Deep structural 64-bit hash, consistent with \c valueEquals (equal
/// values hash equally). Used by the enumerator's observational-equivalence
/// signatures.
std::uint64_t valueHash(const ValuePtr &V);

/// The seed \c valueHash starts from for a value of kind \p K.
constexpr std::uint64_t valueKindSeed(Value::Kind K) {
  return static_cast<std::uint64_t>(K) * 0x9e3779b9U + 0x51ed2701ULL;
}

/// \c valueHash of an Int value, without building the value.
inline std::uint64_t intValueHash(long long V) {
  return hashCombine(valueKindSeed(Value::Kind::Int),
                     static_cast<std::uint64_t>(V));
}

/// \c valueHash of a Bool value, without building the value.
inline std::uint64_t boolValueHash(bool B) {
  return hashCombine(valueKindSeed(Value::Kind::Bool), B ? 2 : 1);
}

/// Orders values lexicographically; used for deterministic containers.
bool valueLess(const ValuePtr &A, const ValuePtr &B);

} // namespace se2gis

#endif // SE2GIS_EVAL_VALUE_H
