//===- Simplify.h - Canonicalizing term simplifier --------------*- C++-*-===//
///
/// \file
/// Bottom-up simplification: constant folding plus a fixed set of algebraic
/// identities. The simplifier is deterministic, which matters beyond
/// readability: frame equality in the functional-unrealizability check
/// (Definition 6.3) is *syntactic*, so equal computations must reach equal
/// normal forms.
///
/// Integer division and modulo follow Z3's Euclidean semantics so that the
/// simplifier, the concrete evaluator, and the SMT backend agree.
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_AST_SIMPLIFY_H
#define SE2GIS_AST_SIMPLIFY_H

#include "ast/Term.h"

namespace se2gis {

/// Simplifies \p T bottom-up; idempotent.
TermPtr simplify(const TermPtr &T);

/// Applies the local simplification rules to the root node of \p T only,
/// assuming all children are already in normal form. Used by evaluators that
/// normalize bottom-up themselves.
TermPtr simplifyNode(const TermPtr &T);

} // namespace se2gis

#endif // SE2GIS_AST_SIMPLIFY_H
