//===- synth/Grammar.cpp - Search-space grammars ------------------------------===//
//
// Part of sharpie. See Grammar.h.
//
//===----------------------------------------------------------------------===//

#include "synth/Grammar.h"

#include "logic/TermOps.h"

#include <algorithm>
#include <set>

using namespace sharpie;
using namespace sharpie::synth;
using logic::Kind;
using logic::Sort;
using logic::Subst;
using logic::Term;
using logic::TermManager;

Formals sharpie::synth::makeFormals(TermManager &M,
                                    const ShapeTemplate &Shape) {
  Formals F;
  F.BoundVar = M.mkVar("%set_t", Sort::Tid);
  for (size_t I = 0; I < Shape.Quantifiers.size(); ++I)
    F.Q.push_back(M.mkVar("%q" + std::to_string(I), Shape.Quantifiers[I]));
  for (unsigned I = 0; I < Shape.NumSets; ++I)
    F.K.push_back(M.mkVar("%k" + std::to_string(I), Sort::Int));
  return F;
}

std::vector<int64_t>
sharpie::synth::systemConstants(const sys::ParamSystem &Sys) {
  std::set<int64_t> Cs;
  auto Harvest = [&Cs](Term T) {
    if (T.isNull())
      return;
    for (Term C : logic::collectSubterms(
             T, [](Term S) { return S.kind() == Kind::IntConst; }))
      Cs.insert(C->value());
  };
  Harvest(Sys.init());
  Harvest(Sys.safe());
  for (const sys::Transition &T : Sys.transitions()) {
    Harvest(T.Guard);
    Harvest(T.SyncRelation);
    for (const auto &[V, U] : T.GlobalUpd)
      Harvest(U);
    for (const auto &[V, U] : T.LocalUpd)
      Harvest(U);
  }
  return std::vector<int64_t>(Cs.begin(), Cs.end());
}

std::map<Term, std::vector<int64_t>>
sharpie::synth::perLocalConstants(const sys::ParamSystem &Sys) {
  std::map<Term, std::set<int64_t>> Pools;
  // Comparisons Read(L, .) op c anywhere in the system's formulas.
  auto HarvestAtoms = [&](Term T) {
    if (T.isNull())
      return;
    for (Term A : logic::collectSubterms(T, [](Term S) {
           Kind K = S.kind();
           return K == Kind::Eq || K == Kind::Le || K == Kind::Lt;
         })) {
      Term L = A->kid(0), R = A->kid(1);
      if (R.kind() == Kind::Read)
        std::swap(L, R);
      if (L.kind() == Kind::Read && L->kid(0).kind() == Kind::Var &&
          R.kind() == Kind::IntConst)
        Pools[L->kid(0)].insert(R->value());
    }
  };
  HarvestAtoms(Sys.init());
  HarvestAtoms(Sys.safe());
  auto HarvestValue = [&](Term L, Term V) {
    if (V.kind() == Kind::IntConst)
      Pools[L].insert(V->value());
  };
  for (const sys::Transition &T : Sys.transitions()) {
    HarvestAtoms(T.Guard);
    HarvestAtoms(T.SyncRelation);
    for (const auto &[L, V] : T.LocalUpd)
      HarvestValue(L, V);
    for (const sys::Transition::ArrayWrite &W : T.Writes)
      HarvestValue(W.Arr, W.Val);
  }
  std::map<Term, std::vector<int64_t>> Out;
  for (auto &[L, S] : Pools)
    Out.emplace(L, std::vector<int64_t>(S.begin(), S.end()));
  return Out;
}

namespace {

/// Collects boolean atoms of \p T that mention a read of a local at the
/// system's self() variable, rewritten to be about \p NewIdx instead. These
/// are the guard atoms the paper's inferred sets are made of (e.g.
/// "m(t) <= s" from the ticket lock's unlock guard).
std::vector<Term> guardAtomsAt(const sys::ParamSystem &Sys, Term Phi,
                               Term NewIdx) {
  TermManager &M = Sys.manager();
  if (Phi.isNull())
    return {};
  std::set<Term> StateVars;
  for (Term G : Sys.globals())
    StateVars.insert(G);
  for (Term L : Sys.locals())
    StateVars.insert(L);
  std::set<Term> Atoms = logic::collectSubterms(Phi, [&](Term S) {
    if (S.sort() != Sort::Bool)
      return false;
    Kind K = S.kind();
    if (K != Kind::Eq && K != Kind::Le && K != Kind::Lt)
      return false;
    if (logic::containsKind(S, Kind::Card))
      return false;
    // Must mention self(), and be closed over self() and the state --
    // atoms harvested from inside a guard's set comprehension would leak
    // the comprehension's bound variable.
    std::set<Term> FV = logic::freeVars(S);
    if (!FV.count(Sys.self()))
      return false;
    bool HasGlobalOrSecondArray = false;
    unsigned NumArrays = 0;
    for (Term V : FV) {
      if (V != Sys.self() && !StateVars.count(V))
        return false;
      if (V.sort() == logic::Sort::Int)
        HasGlobalOrSecondArray = true;
      if (V.sort() == logic::Sort::Array)
        ++NumArrays;
    }
    // Pure "pc(t) = loc" comparisons are already produced by the location
    // grammar; only *relational* guard atoms (local vs. global, or across
    // two locals, like the ticket lock's "m(t) <= s") are kept here.
    return HasGlobalOrSecondArray || NumArrays >= 2;
  });
  Subst Rename;
  Rename[Sys.self()] = NewIdx;
  std::vector<Term> Out;
  for (Term A : Atoms)
    Out.push_back(logic::substitute(M, A, Rename));
  return Out;
}

void addCandidate(std::vector<SetCandidate> &Out, std::set<Term> &Seen,
                  Term Body, int Rank, const char *Origin) {
  if (Body.isNull() || Body.kind() == Kind::BoolConst)
    return;
  if (!Seen.insert(Body).second)
    return;
  Out.push_back({Body, Rank, Origin});
}

/// True when \p A is an implication its own guard makes valid. The guard's
/// equality conjuncts L(q) = c pin their reads: if the consequent folds to
/// true with the pins substituted, the atom is valid. A guard L(q) >= c
/// decides the consequents L(q) >= d for d <= c and L(q) != d for d < c.
bool guardMakesValid(TermManager &M, Term A) {
  if (A.kind() != Kind::Implies)
    return false;
  Term G = A->kid(0), Phi = A->kid(1);
  std::map<Term, Term> Pins;
  for (Term C : G.kind() == Kind::And ? G->kids() : std::vector<Term>{G})
    if (C.kind() == Kind::Eq && C->kid(0).kind() == Kind::Read &&
        C->kid(1).kind() == Kind::IntConst)
      Pins.emplace(C->kid(0), C->kid(1));
  if (!Pins.empty())
    return logic::replaceAll(M, Phi, Pins) == M.mkTrue();
  // L(q) >= c is built as c <= L(q).
  if (G.kind() != Kind::Le || G->kid(0).kind() != Kind::IntConst ||
      G->kid(1).kind() != Kind::Read)
    return false;
  Term Rd = G->kid(1);
  int64_t C = G->kid(0)->value();
  if (Phi.kind() == Kind::Le && Phi->kid(1) == Rd &&
      Phi->kid(0).kind() == Kind::IntConst)
    return Phi->kid(0)->value() <= C;
  if (Phi.kind() == Kind::Not && Phi->kid(0).kind() == Kind::Eq) {
    Term E = Phi->kid(0);
    return E->kid(0) == Rd && E->kid(1).kind() == Kind::IntConst &&
           E->kid(1)->value() < C;
  }
  return false;
}

} // namespace

std::vector<SetCandidate>
sharpie::synth::enumerateSetBodies(const sys::ParamSystem &Sys,
                                   const Formals &F) {
  TermManager &M = Sys.manager();
  Term T = F.BoundVar;
  std::vector<SetCandidate> Out;
  std::set<Term> Seen;
  std::vector<int64_t> Consts = systemConstants(Sys);

  // Rank 0: the exact set bodies of cardinality terms in the safety
  // property (e.g. #{t | pc(t) = 3} <= 1 seeds {pc(t) = 3}).
  for (Term C : logic::collectSubterms(
           Sys.safe(), [](Term S) { return S.kind() == Kind::Card; })) {
    Subst Rn;
    Rn[C->binders()[0]] = T;
    addCandidate(Out, Seen, logic::substitute(M, C->body(), Rn), 0, "safety");
  }
  // Rank 1: location atoms of the safety property itself (a property
  // "pc(t) = 5 -> fl = 1" makes {pc = 5}, {pc >= 5}, {pc >= 4} natural
  // counting regions).
  for (Term A : logic::collectSubterms(Sys.safe(), [&](Term S) {
         if (S.kind() != Kind::Eq && S.kind() != Kind::Le &&
             S.kind() != Kind::Lt)
           return false;
         Term L = S.node()->kid(0), R = S.node()->kid(1);
         if (R.kind() == Kind::Read)
           std::swap(L, R);
         return L.kind() == Kind::Read && R.kind() == Kind::IntConst;
       })) {
    Term L = A->kid(0), R = A->kid(1);
    if (R.kind() == Kind::Read)
      std::swap(L, R);
    Term Arr = L->kid(0);
    if (Arr.kind() != Kind::Var ||
        std::find(Sys.locals().begin(), Sys.locals().end(), Arr) ==
            Sys.locals().end())
      continue;
    int64_t C = R->value();
    Term Rd = M.mkRead(Arr, T);
    addCandidate(Out, Seen, M.mkEq(Rd, M.mkInt(C)), 1, "safety-loc");
    addCandidate(Out, Seen, M.mkGe(Rd, M.mkInt(C)), 1, "safety-loc");
    addCandidate(Out, Seen, M.mkGe(Rd, M.mkInt(C - 1)), 1, "safety-loc");
    addCandidate(Out, Seen, M.mkLe(Rd, M.mkInt(C)), 1, "safety-loc");
  }

  // Also bodies of cardinality sets used in guards (filter lock line 5).
  for (const sys::Transition &Tr : Sys.transitions()) {
    Term Src = Tr.SyncRelation.isNull() ? Tr.Guard : Tr.SyncRelation;
    for (Term C : logic::collectSubterms(
             Src, [](Term S) { return S.kind() == Kind::Card; })) {
      Subst Rn;
      Rn[C->binders()[0]] = T;
      Term Body = logic::substitute(M, C->body(), Rn);
      // Guard set bodies may mention the mover's locals; re-index those to
      // a template quantifier of matching sort if available, otherwise
      // drop the candidate (it is not closed under the formals).
      std::set<Term> FV = logic::freeVars(Body);
      if (FV.count(Sys.self())) {
        for (Term Q : F.Q) {
          if (Q.sort() == Sort::Tid) {
            Subst S2;
            S2[Sys.self()] = Q;
            addCandidate(Out, Seen, logic::substitute(M, Body, S2), 1,
                         "guard-card");
          }
        }
        continue;
      }
      addCandidate(Out, Seen, Body, 1, "guard-card");
    }
  }

  // Guard atoms at the bound variable; locations constants.
  std::vector<Term> GuardAtoms;
  {
    std::set<Term> GSeen;
    for (const sys::Transition &Tr : Sys.transitions())
      for (Term A : guardAtomsAt(Sys, Tr.Guard, T))
        if (GSeen.insert(A).second)
          GuardAtoms.push_back(A);
  }

  // Rank 2: a relational guard atom conjoined with a location atom *from
  // the same transition guard* -- exactly the shape of the ticket lock's
  // inferred set {t | m(t) <= s /\ pc(t) = 2} (the enter guard restricted
  // to an arbitrary thread).
  for (const sys::Transition &Tr : Sys.transitions()) {
    std::vector<Term> Rel = guardAtomsAt(Sys, Tr.Guard, T);
    if (Rel.empty() || Tr.Guard.isNull())
      continue;
    // Location atoms of the same guard: Read(L, self) op const.
    std::vector<Term> Locs;
    for (Term A : logic::collectSubterms(Tr.Guard, [&](Term S) {
           Kind K = S.kind();
           if (K != Kind::Eq && K != Kind::Le && K != Kind::Lt)
             return false;
           Term L = S->kid(0), R = S->kid(1);
           if (L.kind() != Kind::Read)
             std::swap(L, R);
           return L.kind() == Kind::Read && L->kid(1) == Sys.self() &&
                  R.kind() == Kind::IntConst;
         })) {
      Subst Rn;
      Rn[Sys.self()] = T;
      Locs.push_back(logic::substitute(M, A, Rn));
    }
    for (Term R : Rel)
      for (Term L : Locs)
        addCandidate(Out, Seen, M.mkAnd(R, L), 2, "guard+pc");
  }

  // Identify a "pc-like" classification: atoms L(t) = c / >= c / <= c,
  // using only the constants the system itself relates to each local.
  std::map<Term, std::vector<int64_t>> LocalCs = perLocalConstants(Sys);
  std::vector<Term> PcAtoms;
  for (Term L : Sys.locals()) {
    Term Rd = M.mkRead(L, T);
    for (int64_t C : LocalCs[L]) {
      PcAtoms.push_back(M.mkEq(Rd, M.mkInt(C)));
      PcAtoms.push_back(M.mkGe(Rd, M.mkInt(C)));
      PcAtoms.push_back(M.mkLe(Rd, M.mkInt(C)));
    }
  }

  // Rank 3: quantifier-relative sets: L(t) ~ q (Int q), L(t) = L(q) (Tid q).
  for (Term Q : F.Q) {
    for (Term L : Sys.locals()) {
      Term Rd = M.mkRead(L, T);
      if (Q.sort() == Sort::Int) {
        addCandidate(Out, Seen, M.mkGe(Rd, Q), 3, "quantifier");
        addCandidate(Out, Seen, M.mkEq(Rd, Q), 3, "quantifier");
        addCandidate(Out, Seen, M.mkLe(Rd, Q), 4, "quantifier");
      } else {
        Term RdQ = M.mkRead(L, Q);
        addCandidate(Out, Seen, M.mkEq(Rd, RdQ), 3, "quantifier");
        addCandidate(Out, Seen, M.mkLe(Rd, RdQ), 5, "quantifier");
      }
    }
  }

  // Rank 4: plain pc atoms and two-sided ranges c1 <= L(t) <= c2.
  for (Term P : PcAtoms)
    addCandidate(Out, Seen, P, 4, "pc");
  for (Term L : Sys.locals()) {
    Term Rd = M.mkRead(L, T);
    const std::vector<int64_t> &Cs = LocalCs[L];
    for (size_t I = 0; I < Cs.size(); ++I)
      for (size_t J = I + 1; J < Cs.size(); ++J)
        addCandidate(Out, Seen,
                     M.mkAnd(M.mkGe(Rd, M.mkInt(Cs[I])),
                             M.mkLe(Rd, M.mkInt(Cs[J]))),
                     4, "range");
  }

  // Rank 5: guard atoms alone, and local-vs-global comparisons.
  for (Term G : GuardAtoms)
    addCandidate(Out, Seen, G, 5, "guard");
  for (Term L : Sys.locals()) {
    Term Rd = M.mkRead(L, T);
    for (Term G : Sys.globals()) {
      addCandidate(Out, Seen, M.mkLe(Rd, G), 5, "local-global");
      addCandidate(Out, Seen, M.mkGe(Rd, G), 6, "local-global");
      addCandidate(Out, Seen, M.mkEq(Rd, G), 6, "local-global");
    }
  }

  std::stable_sort(Out.begin(), Out.end(),
                   [](const SetCandidate &A, const SetCandidate &B) {
                     return A.Rank < B.Rank;
                   });
  return Out;
}

std::vector<Term>
sharpie::synth::enumerateInvAtoms(const sys::ParamSystem &Sys,
                                  const Formals &F) {
  TermManager &M = Sys.manager();
  std::vector<Term> Out;
  std::set<Term> Seen;
  // No atom in the pool is valid: a valid atom survives every Houdini round
  // and passes every minimization trial without changing any trial's
  // answer, so it only makes each check dearer. The builders fold the
  // constant ones; guardMakesValid catches the guarded ones.
  auto Add = [&](Term A) {
    if (A.isNull() || A.kind() == Kind::BoolConst || guardMakesValid(M, A))
      return;
    if (Seen.insert(A).second)
      Out.push_back(A);
  };

  std::vector<int64_t> Consts = systemConstants(Sys);
  std::vector<int64_t> SmallCs = {0, 1};
  std::optional<Term> N = Sys.sizeVar();

  // -- Counter atoms ----------------------------------------------------------
  for (Term K : F.K) {
    for (int64_t C : SmallCs) {
      Add(M.mkLe(K, M.mkInt(C)));
      Add(M.mkGe(K, M.mkInt(C + 1)));
    }
    // Against globals, with small offsets (intro's "#{pc>=2} <= a").
    for (Term G : Sys.globals()) {
      for (int64_t Off : {-1, 0, 1}) {
        Add(M.mkLe(K, M.mkAdd(G, M.mkInt(Off))));
        Add(M.mkGe(K, M.mkAdd(G, M.mkInt(Off))));
      }
      // Against differences of globals (ticket: counts bounded by t - s;
      // intro: #{pc=2} = a - b needs both directions).
      for (Term G2 : Sys.globals()) {
        if (G == G2)
          continue;
        Add(M.mkLe(K, M.mkSub(G, G2)));
        Add(M.mkGe(K, M.mkSub(G, G2)));
      }
    }
    // Flag-style couplings between a counter and a global (bluetooth: the
    // stop flag set implies no active worker; gc: the lock free implies no
    // mutator in the critical region).
    for (Term G : Sys.globals())
      for (int64_t C : Consts) {
        Add(M.mkImplies(M.mkGe(K, M.mkInt(1)), M.mkLe(G, M.mkInt(C))));
        Add(M.mkImplies(M.mkGe(K, M.mkInt(1)), M.mkGe(G, M.mkInt(C))));
        Add(M.mkImplies(M.mkGe(G, M.mkInt(C)), M.mkLe(K, M.mkInt(0))));
        Add(M.mkImplies(M.mkLe(G, M.mkInt(C)), M.mkLe(K, M.mkInt(0))));
      }
    // Int-sorted quantifier vs. global thresholds (ticket: no thread holds
    // a ticket >= the dispenser, forall q >= tick: #{m(t)=q} = 0).
    for (Term Q : F.Q) {
      if (Q.sort() != Sort::Int)
        continue;
      for (Term G : Sys.globals()) {
        Add(M.mkImplies(M.mkGe(Q, G), M.mkLe(K, M.mkInt(0))));
        Add(M.mkImplies(M.mkLt(Q, G), M.mkLe(K, M.mkInt(1))));
      }
    }
    // Against Int-sorted template quantifiers and the system size
    // (filter lock: #{lv(t) >= q} <= n - q).
    for (Term Q : F.Q) {
      if (Q.sort() != Sort::Int)
        continue;
      Add(M.mkLe(K, Q));
      if (N) {
        Add(M.mkLe(K, M.mkSub(*N, Q)));
        Add(M.mkLe(M.mkAdd(K, Q), *N));
      }
    }
    if (N) {
      Add(M.mkLe(K, *N));
      // Heard-of thresholds (one-third rule: 3k > 2n).
      Add(M.mkGt(M.mkMul(M.mkInt(3), K), M.mkMul(M.mkInt(2), *N)));
      Add(M.mkLe(M.mkMul(M.mkInt(3), K), M.mkMul(M.mkInt(2), *N)));
    }
  }
  // Sums of two counters (ticket mutual exclusion:
  // #{m<=s /\ pc=2} + #{pc=3} <= 1), bounded by constants and by
  // differences of globals (ticket: in-flight threads <= tick - serv).
  for (size_t I = 0; I < F.K.size(); ++I)
    for (size_t J = I + 1; J < F.K.size(); ++J) {
      Term Sum = M.mkAdd(F.K[I], F.K[J]);
      for (int64_t C : SmallCs)
        Add(M.mkLe(Sum, M.mkInt(C)));
      Add(M.mkLe(F.K[I], F.K[J]));
      Add(M.mkLe(F.K[J], F.K[I]));
      for (Term G : Sys.globals())
        for (Term G2 : Sys.globals()) {
          if (G == G2)
            continue;
          Add(M.mkLe(Sum, M.mkSub(G, G2)));
        }
    }
  // Emptiness couplings between counters (barriers: someone past the
  // barrier implies nobody before it).
  for (size_t I = 0; I < F.K.size(); ++I)
    for (size_t J = 0; J < F.K.size(); ++J) {
      if (I == J)
        continue;
      Add(M.mkImplies(M.mkGe(F.K[I], M.mkInt(1)),
                      M.mkLe(F.K[J], M.mkInt(0))));
    }

  // -- Global-only atoms --------------------------------------------------------
  for (Term G : Sys.globals()) {
    Add(M.mkGe(G, M.mkInt(0)));
    for (Term G2 : Sys.globals()) {
      if (G == G2)
        continue;
      Add(M.mkLe(G, G2));
    }
    for (int64_t C : Consts) {
      Add(M.mkEq(G, M.mkInt(C)));
      Add(M.mkGe(G, M.mkInt(C)));
      Add(M.mkLe(G, M.mkInt(C)));
    }
  }
  // Guarded global-global implications (reader/writer: readers present
  // implies no writer).
  for (Term G1 : Sys.globals())
    for (Term G2 : Sys.globals()) {
      if (G1 == G2)
        continue;
      Term Busy = M.mkGe(G1, M.mkInt(1));
      for (int64_t C : Consts) {
        Add(M.mkImplies(Busy, M.mkLe(G2, M.mkInt(C))));
        Add(M.mkImplies(Busy, M.mkGe(G2, M.mkInt(C))));
        Add(M.mkImplies(Busy, M.mkEq(G2, M.mkInt(C))));
      }
    }

  // Three-global linear relations (tree traverse: leaves + pending =
  // nodes + 1; dining philosophers: sticks + 2*eating = n), as two
  // inequalities each.
  for (size_t I = 0; I < Sys.globals().size(); ++I)
    for (size_t J = 0; J < Sys.globals().size(); ++J) {
      if (I == J)
        continue;
      for (size_t L = 0; L < Sys.globals().size(); ++L) {
        if (L == I || L == J)
          continue;
        for (int64_t Coef : {1, 2}) {
          if (Coef == 1 && J < I)
            continue; // g1 + g2 is symmetric; emit once.
          Term Sum = M.mkAdd(
              Sys.globals()[I],
              M.mkMul(M.mkInt(Coef), Sys.globals()[J]));
          for (int64_t C : SmallCs) {
            Add(M.mkLe(Sum, M.mkAdd(Sys.globals()[L], M.mkInt(C))));
            Add(M.mkGe(Sum, M.mkAdd(Sys.globals()[L], M.mkInt(C))));
          }
        }
      }
    }

  // -- Quantifier / per-thread atoms ----------------------------------------------
  // Base atoms about a template thread q: comparisons of locals of q with
  // globals and constants, and between two template threads.
  std::vector<Term> TidQs, IntQs;
  for (Term Q : F.Q)
    (Q.sort() == Sort::Tid ? TidQs : IntQs).push_back(Q);

  std::map<Term, std::vector<int64_t>> LocalCs = perLocalConstants(Sys);
  auto PerThreadAtoms = [&](Term Q) {
    std::vector<Term> Res;
    for (Term L : Sys.locals()) {
      Term Rd = M.mkRead(L, Q);
      for (int64_t C : LocalCs[L]) {
        Res.push_back(M.mkEq(Rd, M.mkInt(C)));
        Res.push_back(M.mkGe(Rd, M.mkInt(C)));
        Res.push_back(M.mkLe(Rd, M.mkInt(C)));
      }
      for (Term G : Sys.globals()) {
        Res.push_back(M.mkLe(Rd, G));
        Res.push_back(M.mkGe(Rd, G));
        Res.push_back(M.mkEq(Rd, G));
        Res.push_back(M.mkLt(Rd, G));
      }
      for (int64_t C : LocalCs[L])
        Res.push_back(M.mkNe(Rd, M.mkInt(C)));
      // Same-thread local-local relations (one-third: x(q) = res(q)).
      for (Term L2 : Sys.locals()) {
        if (L2 == L)
          continue;
        Term Rd2 = M.mkRead(L2, Q);
        Res.push_back(M.mkEq(Rd, Rd2));
        Res.push_back(M.mkLe(Rd, Rd2));
      }
    }
    return Res;
  };

  // Guards for guarded atoms: "pc-like" classifications of q. For the
  // quadratic two-thread buckets the guards are restricted to pc-like
  // locals (those the system compares with three or more constants);
  // per-thread guards range over every local.
  std::vector<Term> PcLike;
  for (Term L : Sys.locals())
    if (LocalCs[L].size() >= 3)
      PcLike.push_back(L);
  if (PcLike.empty())
    PcLike = Sys.locals();
  auto GuardsOver = [&](Term Q, const std::vector<Term> &Ls) {
    std::vector<Term> Res;
    for (Term L : Ls) {
      Term Rd = M.mkRead(L, Q);
      for (int64_t C : LocalCs[L]) {
        Res.push_back(M.mkEq(Rd, M.mkInt(C)));
        Res.push_back(M.mkGe(Rd, M.mkInt(C)));
      }
    }
    return Res;
  };
  auto GuardsFor = [&](Term Q) { return GuardsOver(Q, Sys.locals()); };
  auto EqGuardsOver = [&](Term Q, const std::vector<Term> &Ls) {
    std::vector<Term> Res;
    for (Term L : Ls) {
      Term Rd = M.mkRead(L, Q);
      for (int64_t C : LocalCs[L])
        Res.push_back(M.mkEq(Rd, M.mkInt(C)));
    }
    return Res;
  };

  // Classify locals for the quadratic two-thread bucket:
  //  * Ranked locals are compared across threads by the system itself
  //    (guards or the property), e.g. bakery numbers, work items.
  //  * IdLike locals are pairwise distinct by initialization (bakery
  //    priorities) -- natural tie-breaks.
  //  * CopyPairs (La, Lb) have a transition assigning Lb(self) into La
  //    (bakery: num := tmp) -- the only cross-local comparisons needed.
  std::set<Term> Ranked, IdLike;
  {
    auto HarvestRanked = [&](Term T) {
      if (T.isNull())
        return;
      for (Term A : logic::collectSubterms(T, [](Term S) {
             Kind K = S.kind();
             return K == Kind::Le || K == Kind::Lt || K == Kind::Eq;
           })) {
        Term L = A->kid(0), R = A->kid(1);
        if (L.kind() == Kind::Read && R.kind() == Kind::Read &&
            L->kid(0) == R->kid(0) && L->kid(1) != R->kid(1))
          Ranked.insert(L->kid(0));
      }
    };
    HarvestRanked(Sys.safe());
    for (const sys::Transition &Tr : Sys.transitions()) {
      HarvestRanked(Tr.Guard);
      HarvestRanked(Tr.SyncRelation);
    }
    for (Term A : logic::collectSubterms(Sys.init(), [](Term S) {
           if (S.kind() != Kind::Not || S->kid(0).kind() != Kind::Eq)
             return false;
           Term E = S.node()->kid(0);
           return E->kid(0).kind() == Kind::Read &&
                  E->kid(1).kind() == Kind::Read &&
                  E->kid(0).node()->kid(0) == E->kid(1).node()->kid(0);
         }))
      IdLike.insert(A->kid(0)->kid(0)->kid(0));
  }
  std::vector<std::pair<Term, Term>> CopyPairs;
  for (const sys::Transition &Tr : Sys.transitions())
    for (const auto &[La, V] : Tr.LocalUpd)
      if (V.kind() == Kind::Read && V.node()->kid(1) == Sys.self())
        CopyPairs.push_back({La, V.node()->kid(0)});
  std::set<Term> Ordered = Ranked;
  Ordered.insert(IdLike.begin(), IdLike.end());
  if (Ordered.empty())
    for (Term L : Sys.locals())
      Ordered.insert(L);

  for (Term Q : TidQs) {
    std::vector<Term> Base = PerThreadAtoms(Q);
    for (Term A : Base)
      Add(A);
    std::vector<Term> Guards = GuardsFor(Q);
    for (Term G : Guards)
      for (Term A : Base)
        Add(M.mkImplies(G, A));
    // Guarded counter atoms (one-third: res(q) >= 0 -> 3k > 2n; barriers:
    // a thread past the last barrier implies nobody before it).
    for (Term G : Guards)
      for (Term K : F.K) {
        Add(M.mkImplies(G, M.mkGe(K, M.mkInt(1))));
        Add(M.mkImplies(G, M.mkLe(K, M.mkInt(0))));
        if (N)
          Add(M.mkImplies(
              G, M.mkGt(M.mkMul(M.mkInt(3), K), M.mkMul(M.mkInt(2), *N))));
      }
  }

  // Two-thread relational atoms (bakery-style), including the uniqueness
  // pattern "m(q1) = m(q2) -> q1 = q2".
  for (size_t I = 0; I < TidQs.size(); ++I)
    for (size_t J = 0; J < TidQs.size(); ++J) {
      if (I == J)
        continue;
      Term Q1 = TidQs[I], Q2 = TidQs[J];
      for (Term L : Sys.locals()) {
        Term R1 = M.mkRead(L, Q1), R2 = M.mkRead(L, Q2);
        if (I < J) {
          Add(M.mkImplies(M.mkEq(R1, R2), M.mkEq(Q1, Q2)));
          Add(M.mkEq(R1, R2));
        }
        Add(M.mkLe(R1, R2));
      }
      // Guarded two-thread atoms: a pc-like guard on both sides implies a
      // relation between the threads' locals (possibly across two
      // different locals -- the bakery relates one thread's ticket to
      // another's pending ticket), a lexicographic order (bakery
      // tie-break), or is outright impossible (pairwise mutual exclusion).
      for (Term G1 : EqGuardsOver(Q1, PcLike))
        for (Term G2 : EqGuardsOver(Q2, PcLike)) {
          Term Guard = M.mkAnd({M.mkNe(Q1, Q2), G1, G2});
          for (Term La : Ordered) {
            Term S1 = M.mkRead(La, Q1), S2 = M.mkRead(La, Q2);
            Add(M.mkImplies(Guard, M.mkLt(S1, S2)));
            Add(M.mkImplies(Guard, M.mkLe(S1, S2)));
            Add(M.mkImplies(Guard, M.mkNe(S1, S2)));
            // Lexicographic with an id-like tie-break (bakery).
            for (Term Tie : IdLike) {
              if (Tie == La)
                continue;
              Add(M.mkImplies(
                  Guard,
                  M.mkOr(M.mkLt(S1, S2),
                         M.mkAnd(M.mkEq(S1, S2),
                                 M.mkLt(M.mkRead(Tie, Q1),
                                        M.mkRead(Tie, Q2))))));
            }
          }
          // Cross-local comparisons only along copy chains (num vs tmp).
          for (const auto &[La, Lb] : CopyPairs) {
            Add(M.mkImplies(Guard, M.mkLt(M.mkRead(La, Q1),
                                          M.mkRead(Lb, Q2))));
            Add(M.mkImplies(Guard, M.mkLt(M.mkRead(Lb, Q1),
                                          M.mkRead(La, Q2))));
          }
          Add(M.mkImplies(Guard, M.mkFalse()));
        }
      // Unguarded distinctness up to one or two coordinates (robot swarm:
      // two robots never share a grid cell).
      if (I < J) {
        Term Distinct = M.mkNe(Q1, Q2);
        for (size_t A = 0; A < Sys.locals().size(); ++A) {
          Term L1 = Sys.locals()[A];
          Add(M.mkImplies(Distinct, M.mkNe(M.mkRead(L1, Q1),
                                           M.mkRead(L1, Q2))));
          for (size_t Bx = A + 1; Bx < Sys.locals().size(); ++Bx) {
            Term L2 = Sys.locals()[Bx];
            Add(M.mkImplies(
                Distinct,
                M.mkOr(M.mkNe(M.mkRead(L1, Q1), M.mkRead(L1, Q2)),
                       M.mkNe(M.mkRead(L2, Q1), M.mkRead(L2, Q2)))));
          }
        }
      }
    }

  // Int-sorted quantifier guards for counter atoms were added above; also
  // allow bounding q itself (filter lock: 0 <= q <= n-1 region).
  for (Term Q : IntQs) {
    Add(M.mkGe(Q, M.mkInt(0)));
    if (N)
      Add(M.mkLe(Q, M.mkSub(*N, M.mkInt(1))));
  }

  return Out;
}
