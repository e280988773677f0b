//===- bounded/Screen.cpp - Houdini on the N-thread instance ------------------===//
//
// Part of sharpie. See Screen.h.
//
//===----------------------------------------------------------------------===//

#include "bounded/Screen.h"

#include "logic/TermOps.h"

#include <algorithm>

using namespace sharpie;
using namespace sharpie::bounded;
using logic::Sort;
using logic::Term;
using smt::SatResult;

Screen::Screen(const sys::ParamSystem &Src, unsigned N, unsigned TimeoutMs)
    : Sys(Src.cloneInto(M)), I(*Sys, N), TimeoutMs(TimeoutMs) {
  Term In = I.init(), Sf = I.safe();
  std::vector<Term> Ts;
  for (const sys::Transition &T : Sys->transitions())
    Ts.push_back(I.transition(T));
  if (In.isNull() || Sf.isNull() ||
      std::find(Ts.begin(), Ts.end(), Term()) != Ts.end())
    return; // No exact encoding: Init stays null, every run is Unknown.
  Init = In;
  Safe = Sf;
  Trans = std::move(Ts);
  SelInit = M.mkVar("screen$sel$init", Sort::Bool);
  for (size_t J = 0; J < Trans.size(); ++J)
    SelTrans.push_back(
        M.mkVar("screen$sel$" + std::to_string(J), Sort::Bool));
  SelSafe = M.mkVar("screen$sel$safe", Sort::Bool);
}

Screen::Result Screen::run(const std::vector<Term> &Invs,
                           obs::TraceBuffer *TB,
                           const std::function<bool()> &Aborted) {
  Result R;
  if (Init.isNull()) {
    R.Detail = "no exact encoding of the system";
    return R;
  }
  try {
    // Encode every atom before the solver is touched: an atom without an
    // exact encoding leaves the screen as it was.
    logic::TermTranslator Tr(M);
    std::vector<Term> Pre, Post;
    for (Term Inv : Invs) {
      Term Own = Tr(Inv);
      Pre.push_back(I.encode(Own));
      Post.push_back(I.encode(logic::substitute(M, Own, Sys->primeSubst())));
      if (Pre.back().isNull() || Post.back().isNull()) {
        R.Detail = "no exact encoding of " + logic::toString(Inv);
        return R;
      }
    }
    if (!S) {
      // The plain SMT kernel: the default solver's setup and
      // preprocessing cost more on checks this small. The base is
      // asserted once.
      S = smt::makeZ3Solver(M, /*Simple=*/true, smt::makeZ3Context(TB));
      S->setTimeoutMs(TimeoutMs);
      S->add(M.mkImplies(SelInit, Init));
      for (size_t J = 0; J < Trans.size(); ++J)
        S->add(M.mkImplies(SelTrans[J], Trans[J]));
      S->add(M.mkImplies(SelSafe, M.mkNot(Safe)));
      std::vector<Term> Sels{SelInit};
      Sels.insert(Sels.end(), SelTrans.begin(), SelTrans.end());
      Sels.push_back(SelSafe);
      S->add(M.mkOr(Sels));
    }
    S->push();
    R = houdini(Pre, Post, TB, Aborted);
    S->pop();
  } catch (const std::exception &E) {
    Usable = false;
    R = Result();
    R.Detail = std::string("exception: ") + E.what();
  }
  return R;
}

Screen::Result Screen::houdini(const std::vector<Term> &Pre,
                               const std::vector<Term> &Post,
                               obs::TraceBuffer *TB,
                               const std::function<bool()> &Aborted) {
  // Per-atom indicators: the conjunction over the live ones is H, the
  // live set's closed invariant at N, and HPost its post-state twin. With
  // the base, the frame makes each clause what a per-candidate context
  // would assert: init AND NOT H, H AND T AND NOT H', H AND NOT safe.
  std::vector<Term> Ind, Hyp, HypPost;
  for (size_t K = 0; K < Pre.size(); ++K) {
    Ind.push_back(M.mkVar("screen$ind$" + std::to_string(K), Sort::Bool));
    Hyp.push_back(M.mkImplies(Ind[K], Pre[K]));
    HypPost.push_back(M.mkImplies(Ind[K], Post[K]));
  }
  Term H = M.mkAnd(Hyp);
  std::vector<Term> NeedH = SelTrans;
  NeedH.push_back(SelSafe);
  S->add(M.mkImplies(SelInit, M.mkNot(H)));
  S->add(M.mkImplies(M.mkOr(NeedH), H));
  S->add(M.mkImplies(M.mkOr(SelTrans), M.mkNot(M.mkAnd(HypPost))));

  Result R;
  R.Live.assign(Pre.size(), 1);
  for (;;) {
    if (Aborted()) {
      R.Detail = "aborted";
      return R;
    }
    std::vector<Term> A;
    for (size_t K = 0; K < Pre.size(); ++K)
      A.push_back(R.Live[K] ? Ind[K] : M.mkNot(Ind[K]));
    SatResult SR =
        smt::checkAssumingTraced(*S, A, TB, "smt_ms.screen", "screen");
    if (SR == SatResult::Unsat) {
      R.V = Verdict::Pass;
      return R;
    }
    if (SR != SatResult::Sat) {
      Usable = false;
      R.Detail = "solver " + S->reasonUnknown();
      return R;
    }
    std::unique_ptr<smt::SmtModel> Model = S->model();
    if (!Model) {
      Usable = false;
      R.Detail = "no model";
      return R;
    }
    auto Selected = [&](Term Sel) {
      return Model->evalBool(Sel).value_or(false);
    };
    if (Selected(SelSafe)) {
      R.V = Verdict::Reject;
      R.Detail = I.renderState(*Model);
      return R;
    }
    // Houdini's step at N: drop every live atom the model's head state
    // falsifies in each selected clause (the pre-state for init, the
    // post-state for a transition).
    unsigned Dropped = 0;
    auto Drop = [&](const std::vector<Term> &Head) {
      for (size_t K = 0; K < Head.size(); ++K)
        if (R.Live[K] && !Model->evalBool(Head[K]).value_or(true)) {
          R.Live[K] = 0;
          ++Dropped;
        }
    };
    if (Selected(SelInit))
      Drop(Pre);
    if (std::any_of(SelTrans.begin(), SelTrans.end(), Selected))
      Drop(Post);
    if (Dropped == 0) {
      R.Detail = "no atom refuted by the model";
      return R;
    }
  }
}
