//===- quant/Quant.cpp - Quantifier elimination by instantiation ------------===//
//
// Part of sharpie. See Quant.h.
//
//===----------------------------------------------------------------------===//

#include "quant/Quant.h"

#include "logic/TermOps.h"
#include "smt/SmtSolver.h"

using namespace sharpie;
using namespace sharpie::quant;
using logic::Kind;
using logic::Sort;
using logic::Subst;
using logic::Term;
using logic::TermManager;

// -- Skolemization ------------------------------------------------------------

namespace {

/// Walks an NNF formula outside-in, replacing existential binders by fresh
/// constants while no universal has been crossed.
class Skolemizer {
public:
  Skolemizer(TermManager &M, SkolemResult &R) : M(M), R(R) {}

  Term walk(Term T, bool UnderForall) {
    const logic::Node *N = T.node();
    switch (N->kind()) {
    case Kind::And:
    case Kind::Or: {
      std::vector<Term> Kids;
      Kids.reserve(N->numKids());
      for (Term K : N->kids())
        Kids.push_back(walk(K, UnderForall));
      return N->kind() == Kind::And ? M.mkAnd(Kids) : M.mkOr(Kids);
    }
    case Kind::Exists: {
      if (UnderForall) {
        // Would need a skolem function; weaken (positive polarity) to true.
        R.Complete = false;
        return M.mkTrue();
      }
      Subst S;
      for (Term B : N->binders()) {
        Term C = M.freshVar("sk_" + B->name(), B.sort());
        S[B] = C;
        R.Skolems.push_back(C);
      }
      return walk(substitute(M, N->body(), S), UnderForall);
    }
    case Kind::Forall:
      return M.mkForall(N->binders(), walk(N->body(), /*UnderForall=*/true));
    default:
      // Atom or negated atom: NNF guarantees no boolean structure below.
      return T;
    }
  }

private:
  TermManager &M;
  SkolemResult &R;
};

} // namespace

SkolemResult sharpie::quant::skolemize(TermManager &M, Term T) {
  SkolemResult R;
  Term N = logic::toNnf(M, T);
  R.Formula = Skolemizer(M, R).walk(N, /*UnderForall=*/false);
  return R;
}

// -- Universal expansion --------------------------------------------------------

namespace {

class Expander {
public:
  Expander(TermManager &M, const std::vector<Term> &TidTerms,
           const std::vector<Term> &IntTerms, const ExpandOptions &Opts,
           ExpandResult &R)
      : M(M), TidTerms(TidTerms), IntTerms(IntTerms), Opts(Opts), R(R) {
    if (Opts.CollectDeferred && Opts.CoreTids)
      CoreTidSet.insert(Opts.CoreTids->begin(), Opts.CoreTids->end());
  }

  /// \p Conjunctive: T is at a conjunctive position of the root -- every
  /// conjunct of an expansion here is itself a conjunct of the whole, so
  /// partition mode may route instances into the deferred manifest. Below
  /// an Or that no longer holds and universals are expanded fully in
  /// place.
  Term walk(Term T, bool Conjunctive) {
    const logic::Node *N = T.node();
    switch (N->kind()) {
    case Kind::And:
    case Kind::Or: {
      bool KidConj = Conjunctive && N->kind() == Kind::And;
      std::vector<Term> Kids;
      Kids.reserve(N->numKids());
      for (Term K : N->kids())
        Kids.push_back(walk(K, KidConj));
      return N->kind() == Kind::And ? M.mkAnd(Kids) : M.mkOr(Kids);
    }
    case Kind::Forall:
      return expand(T, Conjunctive);
    case Kind::Exists:
      assert(false && "expandForalls requires an existential-free formula");
      return T;
    default:
      return T;
    }
  }

private:
  Term expand(Term Q, bool Conjunctive) {
    const logic::Node *N = Q.node();
    const std::vector<Term> &Bs = N->binders();
    // Routing instances into the manifest is only sound at conjunctive
    // positions; enumeration always runs over the full domains (core AND
    // deferred must equal the full expansion).
    bool Partition = Opts.CollectDeferred && Conjunctive;
    std::vector<std::vector<Term>> Doms;
    Doms.reserve(Bs.size());
    std::vector<std::set<Term>> CoreDoms;
    if (Partition)
      CoreDoms.reserve(Bs.size());
    for (Term B : Bs) {
      Doms.push_back(B.sort() == Sort::Tid ? TidTerms : IntTerms);
      if (!Partition)
        continue;
      // The core sub-domain: the Tid terms on the explicit worklist. Int
      // binders are never the bloat source and stay core.
      std::set<Term> Core;
      for (Term D : Doms.back())
        if (B.sort() != Sort::Tid || CoreTidSet.empty() || CoreTidSet.count(D))
          Core.insert(D);
      CoreDoms.push_back(std::move(Core));
    }
    // Estimate the instance count; weaken to true on budget overrun.
    uint64_t Count = 1;
    for (const std::vector<Term> &Dom : Doms) {
      if (Dom.empty()) {
        // No instance terms for this sort: nothing to say, weaken.
        R.Complete = false;
        return M.mkTrue();
      }
      Count *= Dom.size();
      if (Count + R.NumInstances > Opts.MaxInstantiations) {
        R.Complete = false;
        return M.mkTrue();
      }
    }
    std::vector<Term> Instances;
    Subst S;
    enumerate(N, Doms, Partition ? &CoreDoms : nullptr, 0, S, Instances);
    return M.mkAnd(Instances);
  }

  void enumerate(const logic::Node *N,
                 const std::vector<std::vector<Term>> &Doms,
                 const std::vector<std::set<Term>> *CoreDoms, size_t I,
                 Subst &S, std::vector<Term> &Out) {
    const std::vector<Term> &Bs = N->binders();
    if (I == Bs.size()) {
      ++R.NumInstances;
      bool Core = true;
      if (CoreDoms)
        for (size_t K = 0; K < Bs.size(); ++K)
          if (!(*CoreDoms)[K].count(S.at(Bs[K]))) {
            Core = false;
            break;
          }
      if (CoreDoms && !Core) {
        // Routed out: a deferred instance is a standalone conjunct, so any
        // universal nested inside it is expanded fully in place.
        R.Deferred.push_back(walk(substitute(M, N->body(), S),
                                  /*Conjunctive=*/false));
        return;
      }
      // Recurse to expand nested universals inside the instantiated body.
      Out.push_back(walk(substitute(M, N->body(), S),
                         /*Conjunctive=*/CoreDoms != nullptr));
      return;
    }
    Term B = Bs[I];
    for (Term D : Doms[I]) {
      S[B] = D;
      enumerate(N, Doms, CoreDoms, I + 1, S, Out);
    }
    S.erase(B);
  }

  TermManager &M;
  const std::vector<Term> &TidTerms;
  const std::vector<Term> &IntTerms;
  const ExpandOptions &Opts;
  ExpandResult &R;
  /// The explicit core worklist (partition mode); empty = no restriction.
  std::set<Term> CoreTidSet;
};

} // namespace

ExpandResult sharpie::quant::expandForalls(TermManager &M, Term T,
                                           const std::vector<Term> &TidTerms,
                                           const std::vector<Term> &IntTerms,
                                           const ExpandOptions &Opts) {
  ExpandResult R;
  constexpr size_t MaxIntTerms = 24; // Cap on Int-sorted index terms.
  std::vector<Term> BoundedInt = IntTerms;
  if (BoundedInt.size() > MaxIntTerms) {
    BoundedInt.resize(MaxIntTerms);
    R.Complete = false;
  }
  R.Formula = Expander(M, TidTerms, BoundedInt, Opts, R)
                  .walk(T, /*Conjunctive=*/true);
  return R;
}

// -- Violated-instance extraction ---------------------------------------------

ViolatedResult sharpie::quant::selectViolated(smt::SmtModel &Model,
                                              const std::vector<Term> &Items,
                                              const std::vector<char> &Skip) {
  ViolatedResult R;
  for (size_t I = 0; I < Items.size(); ++I) {
    if (I < Skip.size() && Skip[I])
      continue;
    std::optional<bool> V = Model.evalBool(Items[I]);
    if (!V) {
      R.EvalFailed = true;
      continue;
    }
    if (!*V)
      R.Violated.push_back(I);
  }
  return R;
}

// -- Index-term collection --------------------------------------------------------

std::set<Term> sharpie::quant::tidIndexTerms(Term T) {
  std::set<Term> Out;
  for (Term V : logic::freeVars(T))
    if (V.sort() == Sort::Tid)
      Out.insert(V);
  return Out;
}

std::set<Term> sharpie::quant::intIndexTerms(Term T) {
  // Bare Int variables are deliberately excluded: in the array property
  // fragment only read terms and literals act as index/pivot terms, and
  // including the (numerous) auxiliary counter variables makes expansion
  // blow up without adding provable facts.
  std::set<Term> Out;
  std::set<Term> FV = logic::freeVars(T);
  auto IsGround = [&FV](Term S) {
    for (Term V : logic::freeVars(S))
      if (!FV.count(V))
        return false;
    return true;
  };
  std::set<Term> Candidates = logic::collectSubterms(T, [&](Term S) {
    if (S.sort() != Sort::Int)
      return false;
    switch (S.kind()) {
    case Kind::IntConst:
      return true;
    case Kind::Read:
    case Kind::Sub:
    case Kind::Add:
      // Ground pivot terms only (no bound variables inside).
      return IsGround(S);
    default:
      return false;
    }
  });
  Out.insert(Candidates.begin(), Candidates.end());
  return Out;
}
