//===- Enumerator.cpp -----------------------------------------------------===//

#include "synth/Enumerator.h"

#include "ast/ScalarOps.h"
#include "cache/CacheConfig.h"
#include "cache/Canonical.h"
#include "cache/SgeSolutionCache.h"
#include "cache/TermIO.h"
#include "support/Diagnostics.h"
#include "support/PerfCounters.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <ranges>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace se2gis;

ValuePtr se2gis::evalScalarTerm(const TermPtr &T, const Env &E) {
  switch (T->getKind()) {
  case TermKind::Var: {
    auto It = E.find(T->getVar()->Id);
    if (It == E.end())
      userError("unbound variable in scalar evaluation: " + T->getVar()->Name);
    return It->second;
  }
  case TermKind::IntLit:
    return Value::mkInt(T->getIntValue());
  case TermKind::BoolLit:
    return Value::mkBool(T->getBoolValue());
  case TermKind::Tuple: {
    std::vector<ValuePtr> Elems;
    for (const TermPtr &A : T->getArgs())
      Elems.push_back(evalScalarTerm(A, E));
    return Value::mkTuple(std::move(Elems));
  }
  case TermKind::Proj: {
    ValuePtr V = evalScalarTerm(T->getArg(0), E);
    return V->getElems()[T->getIndex()];
  }
  case TermKind::Op: {
    OpKind Op = T->getOp();
    if (Op == OpKind::Ite) {
      ValuePtr C = evalScalarTerm(T->getArg(0), E);
      return evalScalarTerm(C->getBool() ? T->getArg(1) : T->getArg(2), E);
    }
    if (Op == OpKind::And || Op == OpKind::Or) {
      bool IsAnd = Op == OpKind::And;
      for (const TermPtr &A : T->getArgs())
        if (evalScalarTerm(A, E)->getBool() != IsAnd)
          return Value::mkBool(!IsAnd);
      return Value::mkBool(IsAnd);
    }
    switch (Op) {
    case OpKind::Eq:
      return Value::mkBool(valueEquals(evalScalarTerm(T->getArg(0), E),
                                       evalScalarTerm(T->getArg(1), E)));
    case OpKind::Ne:
      return Value::mkBool(!valueEquals(evalScalarTerm(T->getArg(0), E),
                                        evalScalarTerm(T->getArg(1), E)));
    case OpKind::Not:
      return Value::mkBool(!evalScalarTerm(T->getArg(0), E)->getBool());
    case OpKind::Implies:
      return Value::mkBool(!evalScalarTerm(T->getArg(0), E)->getBool() ||
                           evalScalarTerm(T->getArg(1), E)->getBool());
    default: {
      long long A = evalScalarTerm(T->getArg(0), E)->getInt();
      long long B =
          T->numArgs() > 1 ? evalScalarTerm(T->getArg(1), E)->getInt() : 0;
      long long R = evalIntOp(Op, A, B);
      return isIntComparison(Op) ? Value::mkBool(R != 0) : Value::mkInt(R);
    }
    }
  }
  default:
    fatalError("non-scalar node in grammar term evaluation: " + T->str());
  }
}

// --- Enumerator ---------------------------------------------------------===//

Enumerator::Enumerator(const GrammarConfig &Config, std::vector<TermPtr> Leaves)
    : Config(Config), Leaves(std::move(Leaves)) {}

namespace {

constexpr std::uint64_t SignatureSeed = 1469598103934665603ULL;

/// 64-bit observational-equivalence signature: the combined hash of the
/// term's outputs on every example, by tree walk. The search computes the
/// same number from a candidate's value vector (\c Search::rowSignature);
/// this form is its oracle under SE2GIS_CHECK_SIGNATURES.
std::uint64_t signatureHashOf(const TermPtr &T,
                              const std::vector<PbeExample> &Examples) {
  std::uint64_t H = SignatureSeed;
  for (const PbeExample &Ex : Examples)
    H = hashCombine(H, valueHash(evalScalarTerm(T, Ex.Inputs)));
  return H;
}

/// The old allocation-heavy string signature, kept for the debug
/// cross-check below.
std::string signatureStringOf(const TermPtr &T,
                              const std::vector<PbeExample> &Examples) {
  std::ostringstream OS;
  for (const PbeExample &Ex : Examples)
    OS << evalScalarTerm(T, Ex.Inputs)->str() << '|';
  return OS.str();
}

/// SE2GIS_CHECK_SIGNATURES=1 builds every candidate's term and aborts when
/// its tree-walk signature differs from the value-vector one, or on a
/// collision (distinct string signatures, equal hash).
bool checkSignaturesEnabled() {
  static const bool Enabled = [] {
    const char *E = std::getenv("SE2GIS_CHECK_SIGNATURES");
    return E && *E && *E != '0';
  }();
  return Enabled;
}

/// A pool entry: an operator over earlier entries, or an atom (a constant,
/// boolean literal or leaf; Kids[0] indexes the atom table). Operands of
/// arithmetic and comparisons are Int-pool ids; those of Not/And/Or are
/// Bool-pool ids; an Ite takes a Bool condition and two Int branches. The
/// entry's outputs are row `id` of its pool's value arena.
struct Node {
  OpKind Op;
  bool Atom;
  std::uint32_t Kids[3];
};

/// The deduplicated candidates of one sort.
struct Pool {
  explicit Pool(bool IsBool, int MaxSize)
      : IsBool(IsBool), Start(std::max(MaxSize, 1) + 2, 0) {
    Seen.reserve(1024);
  }

  /// The ids of the entries of size \p S (complete once size S is done).
  auto ids(int S) const { return std::views::iota(Start[S], Start[S + 1]); }

  bool IsBool;
  std::vector<Node> Nodes;
  /// Outputs, one row of #examples values per node (Bool as 0/1).
  std::vector<long long> Values;
  /// Start[S] is the first id of size S.
  std::vector<std::uint32_t> Start;
  std::unordered_set<std::uint64_t> Seen;
  /// Debug collision oracle: hash -> string signature.
  std::unordered_map<std::uint64_t, std::string> Oracle;
};

/// One bottom-up search. A candidate is evaluated once over all examples,
/// elementwise from its operands' value rows, into a scratch row; only a
/// candidate that survives observational-equivalence pruning is stored (as
/// a Node and a value row), and a term is built only for the winner.
class Search {
public:
  Search(const GrammarConfig &Config, const std::vector<TermPtr> &Leaves,
         const TypePtr &OutTy, const std::vector<PbeExample> &Examples,
         int MaxSize, const Deadline &Budget)
      : Config(Config), Leaves(Leaves), Examples(Examples), MaxSize(MaxSize),
        Budget(Budget), N(Examples.size()), Scratch(N), Int(false, MaxSize),
        Bool(true, MaxSize), Want(OutTy->isInt() ? &Int : &Bool),
        CheckSignatures(checkSignaturesEnabled()) {
    for (const PbeExample &Ex : Examples) {
      Target = hashCombine(Target, valueHash(Ex.Output));
      if (Want->IsBool ? !Ex.Output->isBool() : !Ex.Output->isInt())
        TargetFits = false;
      else
        TargetRow.push_back(Want->IsBool ? Ex.Output->getBool()
                                         : Ex.Output->getInt());
    }
  }

  Search(const Search &) = delete;
  Search &operator=(const Search &) = delete;

  /// Adds the totals once per search rather than two atomics per candidate.
  ~Search() {
    if (Candidates)
      perfAdd(PerfCounter::EnumCandidates, Candidates);
    if (Pruned)
      perfAdd(PerfCounter::EnumPruned, Pruned);
  }

  std::optional<TermPtr> run() {
    if (!enumerateAtoms())
      for (int Size = 2; Size <= MaxSize; ++Size) {
        if (Budget.expired())
          return std::nullopt;
        Int.Start[Size] = static_cast<std::uint32_t>(Int.Nodes.size());
        Bool.Start[Size] = static_cast<std::uint32_t>(Bool.Nodes.size());
        if (enumerateSize(Size))
          break;
      }
    if (Winner)
      return termOf(*Winner);
    return std::nullopt;
  }

private:
  /// Offers the candidate whose outputs are in Scratch (\p Bound false: a
  /// leaf unbound under some example, counted but neither pruned nor
  /// pooled). \returns true when the search stops: found or out of time.
  bool offer(Pool &P, const Node &Nd, bool Bound = true) {
    if (Winner || Expired)
      return true;
    // Deadline polling is decimated: one clock read per PollGate stride of
    // candidates, so cancellation latency stays bounded without taxing the
    // hottest loop in the solver.
    if (Gate.tick(Budget)) {
      Expired = true;
      return true;
    }
    ++Candidates;
    if (!Bound)
      return false;
    std::uint64_t Sig = rowSignature(P.IsBool);
    if (CheckSignatures)
      checkSignature(P, Nd, Sig);
    if (!P.Seen.insert(Sig).second) {
      ++Pruned;
      return false;
    }
    // A hash match against the target is confirmed value-by-value, so a
    // collision cannot yield an incorrect solution.
    if (&P == Want && Sig == Target && TargetFits &&
        std::equal(Scratch.begin(), Scratch.end(), TargetRow.begin())) {
      Winner = Nd;
      return true;
    }
    assert(P.Nodes.size() < UINT32_MAX && "pool ids are 32-bit");
    P.Nodes.push_back(Nd);
    P.Values.insert(P.Values.end(), Scratch.begin(), Scratch.end());
    return false;
  }

  /// The signature of the Scratch row: exactly \c signatureHashOf.
  std::uint64_t rowSignature(bool IsBool) const {
    std::uint64_t H = SignatureSeed;
    if (IsBool)
      for (long long V : Scratch)
        H = hashCombine(H, boolValueHash(V != 0));
    else
      for (long long V : Scratch)
        H = hashCombine(H, intValueHash(V));
    return H;
  }

  void checkSignature(Pool &P, const Node &Nd, std::uint64_t Sig) {
    TermPtr T = termOf(Nd);
    if (signatureHashOf(T, Examples) != Sig)
      fatalError("value-vector signature differs from the tree walk's for " +
                 T->str());
    std::string Str = signatureStringOf(T, Examples);
    auto [It, Fresh] = P.Oracle.emplace(Sig, Str);
    if (!Fresh && It->second != Str)
      fatalError("observational-equivalence hash collision: \"" + It->second +
                 "\" vs \"" + Str + "\"");
  }

  const long long *row(const Pool &P, std::uint32_t Id) const {
    return P.Values.data() + static_cast<size_t>(Id) * N;
  }

  /// Offers an atom whose outputs are in Scratch.
  bool offerAtom(Pool &P, TermPtr T, bool Bound = true) {
    auto Id = static_cast<std::uint32_t>(Atoms.size());
    Node Nd{OpKind::Add, true, {Id, 0, 0}};
    Atoms.push_back(std::move(T));
    return offer(P, Nd, Bound);
  }

  /// Size 1: constants, boolean literals, and leaves.
  bool enumerateAtoms() {
    for (long long C : Config.Constants) {
      std::fill(Scratch.begin(), Scratch.end(), C);
      if (offerAtom(Int, mkIntLit(C)))
        return true;
    }
    for (bool B : {false, true}) {
      std::fill(Scratch.begin(), Scratch.end(), B);
      if (offerAtom(Bool, mkBoolLit(B)))
        return true;
    }
    for (const TermPtr &L : Leaves) {
      bool IsInt = L->getType()->isInt();
      if (!IsInt && !L->getType()->isBool())
        continue;
      bool Bound = true;
      try {
        for (size_t I = 0; I < N; ++I) {
          ValuePtr V = evalScalarTerm(L, Examples[I].Inputs);
          Scratch[I] = IsInt ? V->getInt() : V->getBool();
        }
      } catch (const UserError &) {
        Bound = false;
      }
      if (offerAtom(IsInt ? Int : Bool, L, Bound))
        return true;
    }
    return false;
  }

  /// Offers `Op A B` (`Op A` for Neg/Abs) over Int-pool operands.
  template <OpKind Op> bool offerInt(std::uint32_t A, std::uint32_t B) {
    const long long *X = row(Int, A), *Y = row(Int, B);
    for (size_t I = 0; I < N; ++I)
      Scratch[I] = evalIntOp(Op, X[I], Y[I]);
    return offer(isIntComparison(Op) ? Bool : Int, Node{Op, false, {A, B, 0}});
  }

  /// Offers `Op A B` (`not A` for Not) over Bool-pool operands.
  template <OpKind Op> bool offerBool(std::uint32_t A, std::uint32_t B) {
    const long long *X = row(Bool, A), *Y = row(Bool, B);
    for (size_t I = 0; I < N; ++I)
      Scratch[I] = Op == OpKind::Not   ? !X[I]
                   : Op == OpKind::And ? X[I] && Y[I]
                                       : X[I] || Y[I];
    return offer(Bool, Node{Op, false, {A, B, 0}});
  }

  bool offerIte(std::uint32_t C, std::uint32_t A, std::uint32_t B) {
    const long long *X = row(Bool, C), *Y = row(Int, A), *Z = row(Int, B);
    for (size_t I = 0; I < N; ++I)
      Scratch[I] = X[I] ? Y[I] : Z[I];
    return offer(Int, Node{OpKind::Ite, false, {C, A, B}});
  }

  /// The value of Int-pool entry \p Id if it is an integer literal atom.
  std::optional<long long> literalOf(std::uint32_t Id) const {
    const Node &Nd = Int.Nodes[Id];
    if (Nd.Atom && Atoms[Nd.Kids[0]]->getKind() == TermKind::IntLit)
      return Atoms[Nd.Kids[0]]->getIntValue();
    return std::nullopt;
  }

  /// The binary operators over two Int-pool entries, in grammar order.
  bool offerIntPair(std::uint32_t A, std::uint32_t B) {
    if (offerInt<OpKind::Add>(A, B) || offerInt<OpKind::Sub>(A, B))
      return true;
    if (Config.AllowMinMax &&
        (offerInt<OpKind::Min>(A, B) || offerInt<OpKind::Max>(A, B)))
      return true;
    // The Appendix-B.4 grammar only multiplies by constants, but references
    // like weighted sums need general products; allow them whenever
    // multiplication appears in the specification.
    if (Config.AllowMul && offerInt<OpKind::Mul>(A, B))
      return true;
    if (Config.AllowDiv || Config.AllowMod) {
      std::optional<long long> Lit = literalOf(B);
      if (Config.AllowDiv && Lit && *Lit != 0 && offerInt<OpKind::Div>(A, B))
        return true;
      if (Config.AllowMod && Lit && *Lit > 1 && offerInt<OpKind::Mod>(A, B))
        return true;
    }
    // Comparisons (feed the boolean pool).
    return offerInt<OpKind::Gt>(A, B) || offerInt<OpKind::Le>(A, B) ||
           offerInt<OpKind::Eq>(A, B);
  }

  /// Every candidate of size \p Size >= 2. \returns true when it stops.
  bool enumerateSize(int Size) {
    // Unary operators.
    for (std::uint32_t A : Int.ids(Size - 1)) {
      if (offerInt<OpKind::Neg>(A, A))
        return true;
      if (Config.AllowAbs && offerInt<OpKind::Abs>(A, A))
        return true;
    }
    for (std::uint32_t A : Bool.ids(Size - 1))
      if (offerBool<OpKind::Not>(A, A))
        return true;

    // Binary operators (left size + right size = Size - 1).
    for (int LS = 1; LS + 1 < Size; ++LS) {
      int RS = Size - 1 - LS;
      for (std::uint32_t A : Int.ids(LS))
        for (std::uint32_t B : Int.ids(RS))
          if (offerIntPair(A, B))
            return true;
      for (std::uint32_t A : Bool.ids(LS))
        for (std::uint32_t B : Bool.ids(RS))
          if (offerBool<OpKind::And>(A, B) || offerBool<OpKind::Or>(A, B))
            return true;
    }

    // Conditionals: cond + then + else = Size - 1.
    if (Config.AllowIte)
      for (int CS = 1; CS + 2 < Size; ++CS)
        for (int TS = 1; CS + TS + 1 < Size; ++TS) {
          int ES = Size - 1 - CS - TS;
          for (std::uint32_t C : Bool.ids(CS))
            for (std::uint32_t A : Int.ids(TS))
              for (std::uint32_t B : Int.ids(ES))
                if (offerIte(C, A, B))
                  return true;
        }
    return false;
  }

  /// Builds the term of \p Nd from the pools.
  TermPtr termOf(const Node &Nd) const {
    if (Nd.Atom)
      return Atoms[Nd.Kids[0]];
    auto IntKid = [&](int K) { return termOf(Int.Nodes[Nd.Kids[K]]); };
    auto BoolKid = [&](int K) { return termOf(Bool.Nodes[Nd.Kids[K]]); };
    switch (Nd.Op) {
    case OpKind::Neg:
    case OpKind::Abs:
      return mkOp(Nd.Op, {IntKid(0)});
    case OpKind::Not:
      return mkOp(Nd.Op, {BoolKid(0)});
    case OpKind::And:
    case OpKind::Or:
      return mkOp(Nd.Op, {BoolKid(0), BoolKid(1)});
    case OpKind::Ite:
      return mkOp(Nd.Op, {BoolKid(0), IntKid(1), IntKid(2)});
    default:
      return mkOp(Nd.Op, {IntKid(0), IntKid(1)});
    }
  }

  const GrammarConfig &Config;
  const std::vector<TermPtr> &Leaves;
  const std::vector<PbeExample> &Examples;
  int MaxSize;
  const Deadline &Budget;
  size_t N;
  std::vector<long long> Scratch;
  std::vector<TermPtr> Atoms;
  Pool Int, Bool;
  const Pool *Want;
  std::uint64_t Target = SignatureSeed;
  std::vector<long long> TargetRow;
  bool TargetFits = true;
  bool CheckSignatures;
  PollGate Gate;
  bool Expired = false;
  std::optional<Node> Winner;
  std::uint64_t Candidates = 0, Pruned = 0;
};

} // namespace

std::optional<TermPtr>
Enumerator::synthesize(const TypePtr &OutTy,
                       const std::vector<PbeExample> &Examples, int MaxSize,
                       const Deadline &Budget) {
  if (!OutTy->isTuple())
    return synthesizeScalar(OutTy, Examples, MaxSize, Budget);

  // Component-wise synthesis for tuple outputs.
  const std::vector<TypePtr> &Elems = OutTy->tupleElems();
  std::vector<TermPtr> Parts;
  for (size_t I = 0; I < Elems.size(); ++I) {
    std::vector<PbeExample> Proj;
    for (const PbeExample &Ex : Examples) {
      assert(Ex.Output->isTuple() && "tuple example expected");
      Proj.push_back(PbeExample{Ex.Inputs, Ex.Output->getElems()[I]});
    }
    auto Part = synthesize(Elems[I], Proj, MaxSize, Budget);
    if (!Part)
      return std::nullopt;
    Parts.push_back(std::move(*Part));
  }
  return mkTuple(std::move(Parts));
}

std::optional<TermPtr>
Enumerator::synthesizeScalar(const TypePtr &OutTy,
                             const std::vector<PbeExample> &Examples,
                             int MaxSize, const Deadline &Budget) {
  bool WantInt = OutTy->isInt();

  // With no examples any term works; return the simplest.
  if (Examples.empty())
    return WantInt ? mkIntLit(0) : mkFalse();

  // Memo key: grammar ⊎ size bound ⊎ output type ⊎ per-example leaf values
  // and outputs. Leaf values (not leaf identities) make entries transfer
  // between Enumerator instances over different variables — a term's
  // behavior on the examples, and hence whether any term of a given size
  // fits, is a function of exactly these inputs.
  Hash128 MemoKey{};
  bool HaveKey = false;
  if (cacheEnabled()) {
    Hash128 K = hash128Seed(0x50);
    K = hashGrammarConfig(K, Config);
    K = hash128Combine(K, static_cast<std::uint64_t>(MaxSize));
    K = hash128Combine(K, WantInt ? 2u : OutTy->isBool() ? 1u : 0u);
    try {
      for (const PbeExample &Ex : Examples) {
        for (const TermPtr &L : Leaves)
          if (L->getType()->isInt() || L->getType()->isBool())
            K = hash128Combine(K, valueHash(evalScalarTerm(L, Ex.Inputs)));
        K = hash128Combine(K, valueHash(Ex.Output));
      }
      MemoKey = K;
      HaveKey = true;
    } catch (const UserError &) {
      // A leaf is unbound under these examples; the key would be partial.
    }
  }
  if (HaveKey) {
    Stopwatch ProbeWatch;
    auto Hit = pbeMemo().lookup(MemoKey);
    perfRecordNs(PerfHistogram::CacheProbeNs, ProbeWatch.elapsedNs());
    if (Hit) {
      if (!Hit->Found)
        return std::nullopt; // definitive: that search space was exhausted
      if (TermPtr T = termFromText(Hit->TermText, Leaves))
        if (T->getType()->isInt() == WantInt) {
          // Re-validate on the examples before trusting the entry.
          bool Ok = true;
          try {
            for (const PbeExample &Ex : Examples)
              if (!valueEquals(evalScalarTerm(T, Ex.Inputs), Ex.Output)) {
                Ok = false;
                break;
              }
          } catch (const UserError &) {
            Ok = false;
          }
          if (Ok)
            return T;
        }
      // Malformed or mismatching entry: fall through to the search.
    }
  }

  TraceSpan Span("enum.search", "enum");
  PhaseScope EnumPhase(Phase::Enum);
  Stopwatch Watch;
  auto R = enumerateScalar(OutTy, Examples, MaxSize, Budget);
  perfRecordNs(PerfHistogram::EnumRoundNs, Watch.elapsedNs());
  Span.arg("examples", static_cast<std::uint64_t>(Examples.size()));
  Span.arg("max_size", static_cast<std::int64_t>(MaxSize));
  Span.arg("found", R ? "yes" : "no");
  if (HaveKey) {
    if (R) {
      std::string Text = termToText(*R, Leaves);
      if (!Text.empty())
        pbeMemo().insert(MemoKey, PbeMemoEntry{true, std::move(Text)});
    } else if (!Budget.expired()) {
      // The search ran dry (not out of time): a definitive negative.
      pbeMemo().insert(MemoKey, PbeMemoEntry{false, {}});
    }
  }
  return R;
}

std::optional<TermPtr>
Enumerator::enumerateScalar(const TypePtr &OutTy,
                            const std::vector<PbeExample> &Examples,
                            int MaxSize, const Deadline &Budget) {
  return Search(Config, Leaves, OutTy, Examples, MaxSize, Budget).run();
}
