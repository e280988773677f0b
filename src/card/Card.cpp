//===- card/Card.cpp - Cardinality elimination (ELIMCARD) -------------------===//
//
// Part of sharpie. See Card.h.
//
//===----------------------------------------------------------------------===//

#include "card/Card.h"

#include "logic/TermOps.h"

#include <algorithm>

using namespace sharpie;
using namespace sharpie::card;
using logic::Kind;
using logic::Sort;
using logic::Subst;
using logic::Term;
using logic::TermManager;

namespace {
/// Axioms are generated for the first MaxDefs definitions only; the rest
/// make the reduction incomplete (fewer axioms only weaken it).
constexpr size_t MaxDefs = 48;
} // namespace

logic::Term sharpie::card::indicator(TermManager &M, Term Phi, Term K) {
  return M.mkOr(M.mkAnd(Phi, M.mkEq(K, M.mkInt(1))),
                M.mkAnd(M.mkNot(Phi), M.mkEq(K, M.mkInt(0))));
}

// -- CardDef -------------------------------------------------------------------

Term CardDef::at(TermManager &M, Term Idx) const {
  Subst S;
  S[BoundVar] = Idx;
  return logic::substitute(M, Body, S);
}

bool CardDef::indexedOnlyByBoundVar() const {
  std::set<Term> Reads = logic::collectSubterms(
      Body, [](Term T) { return T.kind() == Kind::Read; });
  for (Term R : Reads)
    if (R->kid(1) != BoundVar)
      return false;
  // The update axiom additionally requires that the set predicate does not
  // itself contain array updates or nested cardinalities.
  if (logic::containsKind(Body, Kind::Store) ||
      logic::containsKind(Body, Kind::Card))
    return false;
  return true;
}

// -- CardRegistry ----------------------------------------------------------------

CardRegistry::CardRegistry(TermManager &M)
    : M(M), CanonVar(M.mkVar("%card_t", Sort::Tid)) {}

const CardDef &CardRegistry::defFor(Term CardTerm) {
  assert(CardTerm.kind() == Kind::Card && "defFor expects a Card term");
  Term BV = CardTerm->binders()[0];
  Term Body = CardTerm->body();
  if (BV != CanonVar) {
    Subst S;
    S[BV] = CanonVar;
    Body = logic::substitute(M, Body, S);
  }
  auto It = IndexByBody.find(Body);
  if (It == IndexByBody.end()) {
    CardDef D;
    D.K = M.freshVar("card_k", Sort::Int);
    D.BoundVar = CanonVar;
    D.Body = Body;
    It = IndexByBody.emplace(Body, Defs.size()).first;
    Defs.push_back(D);
  }
  Replacements[CardTerm] = Defs[It->second].K;
  return Defs[It->second];
}

std::optional<Term> CardRegistry::omegaK() const {
  for (const CardDef &D : Defs)
    if (D.Body.kind() == Kind::BoolConst && D.Body->value())
      return D.K;
  return std::nullopt;
}

const CardDef &CardRegistry::registerExternal(Term K, Term Body) {
  assert(K.sort() == Sort::Int && "external counter must be Int-sorted");
  auto It = IndexByBody.find(Body);
  if (It != IndexByBody.end())
    return Defs[It->second];
  CardDef D;
  D.K = K;
  D.BoundVar = CanonVar;
  D.Body = Body;
  IndexByBody.emplace(Body, Defs.size());
  Defs.push_back(D);
  // Map the literal #-term to the external counter too, so occurrences of
  // e.g. #{t | true} in properties resolve to the system size variable.
  Replacements[M.mkCard(CanonVar, Body)] = K;
  return Defs.back();
}

// -- AxiomEngine ------------------------------------------------------------------

AxiomEngine::AxiomEngine(TermManager &M, CardRegistry &Reg,
                         const AxiomOptions &Opts,
                         smt::SmtSolver *VennOracle)
    : M(M), Reg(Reg), Opts(Opts), VennOracle(VennOracle) {}

void AxiomEngine::setContext(Term Facts) {
  Context = Facts;
  ContextVarEqs.clear();
  if (Facts.isNull())
    return;
  std::vector<Term> Conjs = Facts.kind() == Kind::And
                                ? Facts->kids()
                                : std::vector<Term>{Facts};
  ChangedGlobalRenames.clear();
  for (Term C : Conjs) {
    if (C.kind() != Kind::Eq)
      continue;
    Term L = C->kid(0), R = C->kid(1);
    if (L.kind() != Kind::Var)
      std::swap(L, R);
    if (L.kind() != Kind::Var)
      continue;
    if (R.kind() == Kind::Var && R.sort() == L.sort() &&
        (L.sort() == Sort::Int || L.sort() == Sort::Array)) {
      // Frame equality (g' = g or unchanged array A' = A).
      ContextVarEqs.push_back({L, R});
      continue;
    }
    // g' = e(g): every Int variable of e is a rename candidate g -> g'.
    if (L.sort() == Sort::Int && R.sort() == Sort::Int)
      for (Term V : logic::freeVars(R))
        if (V.sort() == Sort::Int)
          ChangedGlobalRenames.push_back({V, L});
  }
}

std::vector<Term>
AxiomEngine::emitNew(const std::vector<Term> &UpdateEqs,
                     std::vector<Term> *Deferred) {
  std::vector<Term> Out;
  PartitionAll = Deferred != nullptr;
  size_t D0 = Deferred ? Deferred->size() : 0;
  size_t N = Reg.defs().size();
  if (N > MaxDefs) {
    N = MaxDefs;
    Stats.Complete = false;
  }
  for (size_t I = 0; I < N; ++I) {
    const CardDef &A = Reg.defs()[I];
    // Relevancy-filtered slots are marked emitted and counted deferred:
    // within one engine the relevant set is fixed, and the escalation
    // path re-reduces with a fresh, unfiltered engine, so there is never
    // a second chance this engine would owe the skipped instance to.
    // Partition mode instead emits every slot and routes by shape.
    bool RelA = relevant(A);
    if (EmittedUnary.insert(A.K.id()).second) {
      if (RelA) {
        size_t B0 = Out.size();
        size_t DB = Deferred ? Deferred->size() : 0;
        emitUnary(A, Out, Deferred);
        Stats.NumUnary += static_cast<unsigned>(
            Out.size() - B0 + (Deferred ? Deferred->size() - DB : 0));
      } else {
        ++Stats.NumDeferred;
      }
    }
    for (size_t J = 0; J < N; ++J) {
      if (I == J)
        continue;
      const CardDef &B = Reg.defs()[J];
      bool RelPair = RelA && relevant(B);
      if (EmittedPairs.insert({A.K.id(), B.K.id()}).second) {
        if (RelPair) {
          size_t B0 = Out.size();
          size_t DB = Deferred ? Deferred->size() : 0;
          emitPair(A, B, Out, Deferred);
          Stats.NumPairwise += static_cast<unsigned>(
              Out.size() - B0 + (Deferred ? Deferred->size() - DB : 0));
        } else {
          ++Stats.NumDeferred;
        }
      }
      if (Opts.Update && RelPair)
        emitUpdate(A, B, UpdateEqs, Out, Deferred);
    }
  }
  if (Opts.Venn && Reg.defs().size() > VennDefsCovered) {
    size_t B0 = Out.size();
    emitVenn(Out);
    Stats.NumVennAxioms += static_cast<unsigned>(Out.size() - B0);
  }
  Stats.NumAxioms += static_cast<unsigned>(
      Out.size() + (Deferred ? Deferred->size() - D0 : 0));
  if (Deferred)
    Stats.NumDeferred += static_cast<unsigned>(Deferred->size() - D0);
  return Out;
}

void AxiomEngine::emitUnary(const CardDef &D, std::vector<Term> &Out,
                            std::vector<Term> *Deferred) {
  // Witness-bearing instances are the manifest candidates in partition
  // mode: each mints a fresh Tid constant (or carries a universal) that
  // the surrounding clause would re-expand over.
  std::vector<Term> &Wit = Deferred ? *Deferred : Out;
  // CARD>=0.
  Out.push_back(M.mkLe(M.mkInt(0), D.K));
  // CARD_0, skolemized NNF of (forall t: !phi) -> k <= 0:
  //   phi(c) \/ k <= 0 for a fresh witness c.
  Term C = M.freshVar("wit", Sort::Tid);
  Wit.push_back(M.mkOr(D.at(M, C), M.mkLe(D.K, M.mkInt(0))));
  // CARD>0: (exists t: phi) -> k > 0, i.e. (forall t: !phi) \/ k > 0.
  Wit.push_back(M.mkOr(M.mkForall({Reg.canonicalBoundVar()}, M.mkNot(D.Body)),
                       M.mkLt(M.mkInt(0), D.K)));
}

void AxiomEngine::emitPair(const CardDef &A, const CardDef &B,
                           std::vector<Term> &Out,
                           std::vector<Term> *Deferred) {
  std::vector<Term> &Wit = Deferred ? *Deferred : Out;
  // CARD<=, skolemized NNF of (forall t: a -> b) -> ka <= kb:
  //   (a(c) /\ !b(c)) \/ ka <= kb.
  Term C = M.freshVar("wit", Sort::Tid);
  Wit.push_back(M.mkOr(M.mkAnd(A.at(M, C), M.mkNot(B.at(M, C))),
                       M.mkLe(A.K, B.K)));
  // CARD<: ((forall t: a -> b) /\ (exists t: !a /\ b)) -> ka < kb, in
  // skolemized NNF: (a(c') /\ !b(c')) \/ (forall t: a \/ !b) \/ ka < kb.
  Term C2 = M.freshVar("wit", Sort::Tid);
  Wit.push_back(
      M.mkOr({M.mkAnd(A.at(M, C2), M.mkNot(B.at(M, C2))),
              M.mkForall({Reg.canonicalBoundVar()},
                         M.mkOr(A.Body, M.mkNot(B.Body))),
              M.mkLt(A.K, B.K)}));

  // CARD-DISJOINT (derived from the Venn decomposition): two sets of shape
  // {t | f(t) = e1} and {t | f(t) = e2} over the same array are disjoint
  // unless e1 = e2, so their counts sum to at most the universe. This is
  // the pigeonhole that the one-third rule's agreement proof rests on
  // (paper Sec. 5.2, Example 2). Requires a registered universe size.
  if (A.K.id() < B.K.id()) {
    std::optional<Term> Omega = Reg.omegaK();
    if (Omega && A.Body.kind() == Kind::Eq && B.Body.kind() == Kind::Eq) {
      auto Split = [&](Term Body) -> std::pair<Term, Term> {
        Term L = Body.node()->kid(0), R = Body.node()->kid(1);
        if (R.kind() == Kind::Read && R->kid(1) == Reg.canonicalBoundVar())
          std::swap(L, R);
        if (L.kind() == Kind::Read && L->kid(1) == Reg.canonicalBoundVar())
          return {L->kid(0), R};
        return {Term(), Term()};
      };
      auto [FA, EA] = Split(A.Body);
      auto [FB, EB] = Split(B.Body);
      if (FA && FA == FB && EA.sort() == Sort::Int &&
          EB.sort() == Sort::Int)
        Out.push_back(M.mkOr(M.mkEq(EA, EB),
                             M.mkLe(M.mkAdd(A.K, B.K), *Omega)));
    }
  }
}

namespace {

/// One array update g = f[j <- v] harvested from the obligation.
struct UpdateEq {
  Term Eq;   ///< The original equation (used as a guard).
  Term F;    ///< Pre-state array variable.
  Term G;    ///< Post-state array variable.
  Term J;    ///< Updated index.
};

std::vector<UpdateEq> parseUpdates(const std::vector<Term> &Eqs) {
  std::vector<UpdateEq> Out;
  for (Term E : Eqs) {
    if (E.kind() != Kind::Eq)
      continue;
    Term L = E->kid(0), R = E->kid(1);
    if (L.kind() != Kind::Store)
      std::swap(L, R);
    if (L.kind() != Kind::Store || R.kind() != Kind::Var)
      continue;
    if (L->kid(0).kind() != Kind::Var)
      continue;
    Out.push_back({E, L->kid(0), R, L->kid(1)});
  }
  return Out;
}

} // namespace

void AxiomEngine::emitUpdate(const CardDef &A, const CardDef &B,
                             const std::vector<Term> &UpdateEqs,
                             std::vector<Term> &Out,
                             std::vector<Term> *Deferred) {
  if (!A.indexedOnlyByBoundVar() || !B.indexedOnlyByBoundVar())
    return;
  std::vector<UpdateEq> Updates = parseUpdates(UpdateEqs);
  // Group the updates by their index term; simultaneous point-wise updates
  // of several local arrays at the same thread are one locality event.
  std::map<Term, std::vector<UpdateEq>> ByIndex;
  for (const UpdateEq &U : Updates)
    ByIndex[U.J].push_back(U);

  std::set<Term> AVars = logic::freeVars(A.Body);
  std::set<Term> BVars = logic::freeVars(B.Body);
  for (const auto &[J, Group] : ByIndex) {
    // Substitute g for f for every update in the group whose pre-array
    // occurs in A's body; if the result is exactly B's body, the only
    // difference between the two sets is the update at J.
    Subst S;
    std::vector<Term> Guards;
    for (const UpdateEq &U : Group) {
      if (!AVars.count(U.F))
        continue;
      if (S.count(U.F))
        return; // Conflicting updates of one array: bail out.
      S[U.F] = U.G;
      Guards.push_back(U.Eq);
    }
    if (S.empty())
      continue;
    // Bridge scalar variables across context frame equalities: a post-state
    // set body mentions serv' even when serv' = serv is framed, and the
    // rule is sound as long as the axiom instance is guarded by the
    // equalities used (paper's side condition "phi' = phi[g/f]" modulo
    // variables that provably coincide).
    for (const auto &[V1, V2] : ContextVarEqs) {
      if (AVars.count(V1) && !BVars.count(V1) && BVars.count(V2) &&
          !S.count(V1)) {
        S[V1] = V2;
        Guards.push_back(M.mkEq(V1, V2));
      } else if (AVars.count(V2) && !BVars.count(V2) && BVars.count(V1) &&
                 !S.count(V2)) {
        S[V2] = V1;
        Guards.push_back(M.mkEq(V1, V2));
      }
    }
    if (logic::substitute(M, A.Body, S) != B.Body) {
      // Near miss: the bodies may correspond with a *moved threshold*
      // (a global that the transition changed). Such pairs do not admit
      // the update axiom, but they are exactly where the CARD-COVER rule
      // earns its keep.
      Subst S2 = S;
      for (const auto &[From, To] : ChangedGlobalRenames)
        if (AVars.count(From) && !BVars.count(From) && BVars.count(To) &&
            !S2.count(From))
          S2[From] = To;
      if (S2.size() != S.size() &&
          logic::substitute(M, A.Body, S2) == B.Body) {
        // The threshold may have moved either way; both cover directions
        // are sound, so emit both. Cover instances are witness-bearing,
        // hence manifest-routed in partition mode.
        std::vector<Term> &CoverOut = Deferred ? *Deferred : Out;
        emitCover(A, B, CoverOut);
        emitCover(B, A, CoverOut);
      }
      continue;
    }
    if (!EmittedUpdates
             .insert({A.K.id(), B.K.id(), J.id()})
             .second)
      continue;
    // CARD-UPD (paper Fig. 4c), guarded by the update equations so that
    // equations harvested from below disjunctions remain sound:
    //   guards -> 1(b(j), d+) /\ 1(a(j), d-) /\ kb = ka + d+ - d-.
    Term DPlus = M.freshVar("delta_plus", Sort::Int);
    Term DMinus = M.freshVar("delta_minus", Sort::Int);
    Term Rel = M.mkAnd({indicator(M, B.at(M, J), DPlus),
                        indicator(M, A.at(M, J), DMinus),
                        M.mkEq(B.K, M.mkAdd({A.K, DPlus, M.mkNeg(DMinus)}))});
    Out.push_back(M.mkImplies(M.mkAnd(Guards), Rel));
    ++Stats.NumUpdateMatches;
    ++Stats.NumUpdate;
  }
}

void AxiomEngine::emitCover(const CardDef &A, const CardDef &B,
                            std::vector<Term> &Out) {
  size_t N = std::min<size_t>(Reg.defs().size(), MaxDefs);
  for (size_t I = 0; I < N; ++I) {
    const CardDef &C = Reg.defs()[I];
    if (C.K == A.K || C.K == B.K)
      continue;
    if (!EmittedCovers.insert({A.K.id(), B.K.id(), C.K.id()}).second)
      continue;
    // Skolemized NNF of (forall t: a -> b \/ c) -> ka <= kb + kc.
    Term W = M.freshVar("wit", Sort::Tid);
    Out.push_back(M.mkOr(
        M.mkAnd({A.at(M, W), M.mkNot(B.at(M, W)), M.mkNot(C.at(M, W))}),
        M.mkLe(A.K, M.mkAdd(B.K, C.K))));
    ++Stats.NumCover;
  }
}

void AxiomEngine::emitVenn(std::vector<Term> &Out) {
  VennDefsCovered = Reg.defs().size();
  if (!VennOracle) {
    Stats.Complete = false;
    return;
  }
  // Predicate pool P: the conjuncts of every definition's body. Bodies
  // share the canonical bound variable, so conjuncts can be compared
  // structurally.
  std::vector<Term> P;
  std::map<Term, size_t> PIndex;
  auto AddPred = [&](Term Conjunct) {
    if (Conjunct.kind() == Kind::BoolConst)
      return;
    if (PIndex.emplace(Conjunct, P.size()).second)
      P.push_back(Conjunct);
  };
  size_t NDefs = std::min<size_t>(Reg.defs().size(), MaxDefs);
  std::vector<std::vector<size_t>> DefConjuncts(NDefs);
  for (size_t I = 0; I < NDefs; ++I) {
    if (!relevant(Reg.defs()[I]))
      continue; // Stays out of the region pool and gets no sum equation.
    Term Body = Reg.defs()[I].Body;
    std::vector<Term> Cs =
        Body.kind() == Kind::And ? Body->kids() : std::vector<Term>{Body};
    for (Term C : Cs) {
      AddPred(C);
      if (C.kind() != Kind::BoolConst)
        DefConjuncts[I].push_back(PIndex[C]);
    }
  }
  if (P.empty())
    return;
  // Region enumeration is exponential in the predicate pool; past these
  // caps the Venn axioms are skipped (incomplete, still sound).
  constexpr size_t MaxVennPreds = 24;
  constexpr size_t MaxVennRegions = 192;
  if (P.size() > MaxVennPreds) {
    Stats.Complete = false;
    return;
  }
  // Enumerate the satisfiable regions (truth valuations of P) with the
  // oracle. Must be exhaustive for the sum equations to be sound; abort on
  // a budget overrun or an unknown answer.
  std::vector<std::vector<bool>> Regions;
  VennOracle->push();
  if (!Context.isNull())
    VennOracle->add(Context);
  bool Exhaustive = false;
  while (Regions.size() <= MaxVennRegions) {
    smt::SatResult R = VennOracle->check();
    if (R == smt::SatResult::Unsat) {
      Exhaustive = true;
      break;
    }
    if (R != smt::SatResult::Sat)
      break;
    std::unique_ptr<smt::SmtModel> Model = VennOracle->model();
    if (!Model)
      break;
    std::vector<bool> Val(P.size());
    bool Ok = true;
    for (size_t I = 0; I < P.size(); ++I) {
      std::optional<bool> B = Model->evalBool(P[I]);
      if (!B) {
        Ok = false;
        break;
      }
      Val[I] = *B;
    }
    if (!Ok)
      break;
    Regions.push_back(Val);
    // Block this valuation.
    std::vector<Term> Block;
    for (size_t I = 0; I < P.size(); ++I)
      Block.push_back(Val[I] ? M.mkNot(P[I]) : P[I]);
    VennOracle->add(M.mkOr(Block));
  }
  VennOracle->pop();
  if (!Exhaustive) {
    Stats.Complete = false;
    return;
  }
  Stats.VennApplied = true;
  Stats.NumVennRegions = static_cast<unsigned>(Regions.size());
  // One fresh non-negative counter per region; each definition's k is the
  // sum of the regions below its conjunct set. The universal set (empty
  // conjunct list, e.g. the external Def(n) = #{t | true}) sums them all.
  std::vector<Term> RegionVars;
  for (size_t R = 0; R < Regions.size(); ++R) {
    Term V = M.freshVar("venn_r", Sort::Int);
    RegionVars.push_back(V);
    Out.push_back(M.mkLe(M.mkInt(0), V));
  }
  for (size_t I = 0; I < NDefs; ++I) {
    if (!relevant(Reg.defs()[I]))
      continue;
    std::vector<Term> Sum;
    for (size_t R = 0; R < Regions.size(); ++R) {
      bool Compatible = true;
      for (size_t C : DefConjuncts[I])
        if (!Regions[R][C]) {
          Compatible = false;
          break;
        }
      if (Compatible)
        Sum.push_back(RegionVars[R]);
    }
    Term Rhs = Sum.empty() ? M.mkInt(0) : M.mkAdd(Sum);
    Out.push_back(M.mkEq(Reg.defs()[I].K, Rhs));
  }
}
