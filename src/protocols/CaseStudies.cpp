//===- protocols/CaseStudies.cpp - The one-third rule (paper Fig. 3) ----------===//
//
// Part of sharpie. The one-third rule consensus protocol in the heard-of
// model (paper Fig. 3), the third case study of Sec. 2 and of the Fig. 6
// lower table; it needs the Venn decomposition (paper Sec. 5.2). The other
// two, the ticket lock (Fig. 1) and the filter lock (Fig. 2), are
// examples/protocols/ticket_lock.sharpie and filter_lock.sharpie. This
// one stays C++ for its CustomStepper, the synchronous round semantics
// below.
//
//===----------------------------------------------------------------------===//

#include "protocols/Protocols.h"

#include <algorithm>
#include <map>

using namespace sharpie;
using namespace sharpie::protocols;
using logic::Sort;
using logic::Term;
using logic::TermManager;
using sys::ParamSystem;
using sys::Transition;

// -- One-third rule (paper Fig. 3) ----------------------------------------------------------

ProtocolBundle protocols::makeOneThird(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "one-third");
  ParamSystem &S = *B.Sys;
  Term N = S.addGlobal("n");
  Term X = S.addLocal("x");     // Current candidate value.
  Term Res = S.addLocal("res"); // Decision (-1 = undecided).
  Term T = M.mkVar("ti", Sort::Tid);
  S.setSizeVar(N);

  S.setInit(M.mkAnd(
      M.mkGe(N, M.mkInt(1)),
      M.mkForall({T}, M.mkAnd(M.mkGe(M.mkRead(X, T), M.mkInt(0)),
                              M.mkEq(M.mkRead(Res, T), M.mkInt(-1))))));

  // Heard-of round, soundly abstracted. Symbolically the round is
  // interleaved per process (the standard asynchronous reading of
  // communication-closed rounds): a process that heard > 2n/3 of the
  // others adopts a value w that (i) some process proposed and (ii) is
  // forced whenever a value holds a two-thirds majority (with > 2n/3
  // messages received, the majority value is the unique most-often
  // received one); it decides iff > 2n/3 processes sent w. The explicit
  // checker (CustomStepper below) exhaustively executes the *synchronous*
  // round semantics, and the synthesized invariant is re-checked against
  // those states, validating the abstraction (see DESIGN.md).
  Term V = M.mkVar("v_val", Sort::Int);
  auto CountX = [&](Term Val) {
    Term U = M.mkVar("u", Sort::Tid);
    return M.mkCard(U, M.mkEq(M.mkRead(X, U), Val));
  };
  auto TwoThirds = [&](Term K) {
    return M.mkGt(M.mkMul(M.mkInt(3), K), M.mkMul(M.mkInt(2), N));
  };

  Transition &Upd = S.addTransition("update", M.mkTrue());
  Term W = S.addChoice(Upd, "w");
  Upd.Guard = M.mkAnd(
      M.mkGe(CountX(W), M.mkInt(1)),
      M.mkForall({V}, M.mkImplies(TwoThirds(CountX(V)), M.mkEq(W, V))));
  Upd.LocalUpd[X] = W;

  Transition &Dec = S.addTransition("decide", M.mkTrue());
  Term WD = S.addChoice(Dec, "wd");
  Dec.Guard = M.mkAnd(
      {TwoThirds(CountX(WD)),
       M.mkForall({V}, M.mkImplies(TwoThirds(CountX(V)), M.mkEq(WD, V)))});
  Dec.LocalUpd[X] = WD;
  Dec.LocalUpd[Res] = WD;

  // Agreement: two decided processes agree.
  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);
  S.setSafe(M.mkForall(
      {Q1, Q2},
      M.mkImplies(M.mkAnd(M.mkGe(M.mkRead(Res, Q1), M.mkInt(0)),
                          M.mkGe(M.mkRead(Res, Q2), M.mkInt(0))),
                  M.mkEq(M.mkRead(Res, Q1), M.mkRead(Res, Q2)))));

  S.CustomInit = [&S, X, Res, N](int64_t Nv) {
    std::vector<sys::ParamSystem::State> Out;
    // Enumerate initial proposals over {0, 1}.
    for (int64_t Bits = 0; Bits < (1 << Nv); ++Bits) {
      sys::ParamSystem::State St;
      St.DomainSize = Nv;
      St.Scalars[N] = Nv;
      std::vector<int64_t> Xs, Rs;
      for (int64_t I = 0; I < Nv; ++I) {
        Xs.push_back((Bits >> I) & 1);
        Rs.push_back(-1);
      }
      St.Arrays[X] = Xs;
      St.Arrays[Res] = Rs;
      Out.push_back(std::move(St));
    }
    return Out;
  };

  S.CustomStepper = [&S, X, Res, N](const sys::ParamSystem::State &St) {
    int64_t Nv = St.DomainSize;
    const std::vector<int64_t> &Xs = St.Arrays.at(X);
    const std::vector<int64_t> &Rs = St.Arrays.at(Res);
    std::map<int64_t, int64_t> Count;
    for (int64_t V2 : Xs)
      ++Count[V2];
    // The value forced on updaters, if any (unique when it exists).
    std::optional<int64_t> Forced;
    for (auto &[Val, C] : Count)
      if (3 * C > 2 * Nv)
        Forced = Val;
    // Per-process options: skip, or adopt w (forced or any proposed value)
    // with or without deciding (deciding requires the 2/3 majority of w).
    struct Opt {
      int64_t Xv, Rv;
    };
    std::vector<std::vector<Opt>> PerProc(Nv);
    for (int64_t Pi = 0; Pi < Nv; ++Pi) {
      PerProc[Pi].push_back({Xs[Pi], Rs[Pi]}); // skip
      std::vector<int64_t> Ws;
      if (Forced)
        Ws.push_back(*Forced);
      else
        for (auto &[Val, C] : Count)
          Ws.push_back(Val);
      for (int64_t W : Ws) {
        PerProc[Pi].push_back({W, Rs[Pi]});
        if (3 * Count[W] > 2 * Nv)
          PerProc[Pi].push_back({W, W});
      }
    }
    std::vector<sys::ParamSystem::State> Out;
    std::vector<size_t> Pick(Nv, 0);
    for (;;) {
      sys::ParamSystem::State Nx = St;
      std::vector<int64_t> &NX = Nx.Arrays[X];
      std::vector<int64_t> &NR = Nx.Arrays[Res];
      for (int64_t Pi = 0; Pi < Nv; ++Pi) {
        NX[Pi] = PerProc[Pi][Pick[Pi]].Xv;
        NR[Pi] = PerProc[Pi][Pick[Pi]].Rv;
      }
      Out.push_back(std::move(Nx));
      int64_t I = 0;
      while (I < Nv && ++Pick[I] == PerProc[I].size()) {
        Pick[I] = 0;
        ++I;
      }
      if (I == Nv)
        break;
    }
    return Out;
  };

  B.Shape = {1, {Sort::Tid}};
  B.Explicit.NumThreads = 3;
  B.Explicit.MaxStates = 20000;
  B.NeedsVenn = true;
  B.Property = "agreement (+ validity, irrevocability via the invariant)";
  return B;
}
