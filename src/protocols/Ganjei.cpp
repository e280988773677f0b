//===- protocols/Ganjei.cpp - Figure 7 benchmarks (vs. Ganjei et al.) ----------===//
//
// Part of sharpie. Two of the twelve barrier/lock benchmarks of the
// comparison with [Ganjei et al., VMCAI 2015] (paper Fig. 7),
// parent/child and simp-bar, each in a correct and a buggy ("-nobar")
// variant run with the same template. The benchmark harness builds both
// from here; the other eight rows are examples/protocols/ files.
//
// The PACMAN tool's benchmark sources are not distributed with the paper;
// the models here are reconstructions that preserve each benchmark's name,
// property, synchronization idiom (counting barriers, flags, locks) and
// the correct/buggy split of the table (see DESIGN.md). Buggy variants are
// confirmed unsafe by the explicit checker.
//
//===----------------------------------------------------------------------===//

#include "protocols/Protocols.h"

using namespace sharpie;
using namespace sharpie::protocols;
using logic::Sort;
using logic::Term;
using logic::TermManager;
using sys::ParamSystem;
using sys::Transition;

namespace {

sys::ParamSystem::State zeroState(const ParamSystem &S, int64_t N,
                                  Term PcArr, int64_t Pc0) {
  sys::ParamSystem::State St;
  St.DomainSize = N;
  for (Term G : S.globals())
    St.Scalars[G] = 0;
  for (Term L : S.locals())
    St.Arrays[L] = std::vector<int64_t>(static_cast<size_t>(N),
                                        L == PcArr ? Pc0 : 0);
  return St;
}

/// Barrier guard: nobody at or before location \p Loc.
Term noneAtOrBefore(TermManager &M, Term PC, int64_t Loc) {
  Term U = M.mkVar("u", Sort::Tid);
  return M.mkEq(M.mkCard(U, M.mkLe(M.mkRead(PC, U), M.mkInt(Loc))),
                M.mkInt(0));
}

} // namespace

// -- parent/child: allocation protected by a counting barrier ----------------------------

ProtocolBundle protocols::makeParentChild(TermManager &M, bool Barrier) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(
      M, Barrier ? "parent/child" : "parent/child-nobar");
  ParamSystem &S = *B.Sys;
  Term Alloc = S.addGlobal("alloc");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);

  // Children: 1 waiting, 2 entering, 3 using the resource, 4 done. The
  // parent role is folded into global actions: allocate before any child
  // enters, deallocate only once no child is inside (the "-nobar" bug
  // drops that wait).
  S.setInit(M.mkAnd(M.mkEq(Alloc, M.mkInt(0)),
                    M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))));
  Transition &All = S.addTransition("allocate", M.mkEq(Alloc, M.mkInt(0)));
  All.GlobalUpd[Alloc] = M.mkInt(1);
  Transition &Enter = S.addTransition(
      "child-enter", M.mkAnd(M.mkEq(S.my(PC), M.mkInt(1)),
                             M.mkEq(Alloc, M.mkInt(1))));
  Enter.LocalUpd[PC] = M.mkInt(2);
  Transition &Use = S.addTransition("child-use",
                                    M.mkEq(S.my(PC), M.mkInt(2)));
  Use.LocalUpd[PC] = M.mkInt(3);
  Transition &Done = S.addTransition("child-done",
                                     M.mkEq(S.my(PC), M.mkInt(3)));
  Done.LocalUpd[PC] = M.mkInt(4);
  Term InsideEmpty =
      M.mkEq(M.mkCard(U, M.mkAnd(M.mkGe(M.mkRead(PC, U), M.mkInt(2)),
                                 M.mkLe(M.mkRead(PC, U), M.mkInt(3)))),
             M.mkInt(0));
  Transition &Dealloc = S.addTransition(
      "deallocate", Barrier ? M.mkAnd(M.mkEq(Alloc, M.mkInt(1)), InsideEmpty)
                            : M.mkEq(Alloc, M.mkInt(1)));
  Dealloc.GlobalUpd[Alloc] = M.mkInt(0);
  S.setSafe(M.mkForall(
      {T}, M.mkImplies(M.mkEq(M.mkRead(PC, T), M.mkInt(3)),
                       M.mkEq(Alloc, M.mkInt(1)))));

  S.CustomInit = [&S, PC](int64_t N) {
    return std::vector<sys::ParamSystem::State>{zeroState(S, N, PC, 1)};
  };
  B.Shape = {1, {}};
  B.Explicit.NumThreads = 3;
  B.ExpectSafe = Barrier;
  B.Property = "exists t: pc(t) = 3 -> alloc = 1";
  return B;
}

// -- simp-bar: a flag initialized by everyone, then set after a barrier -----------------------

ProtocolBundle protocols::makeSimpBar(TermManager &M, bool Barrier) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(
      M, Barrier ? "simp-bar" : "simp-nobar");
  ParamSystem &S = *B.Sys;
  Term Fl = S.addGlobal("fl");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);

  // 1: fl := 0 (per-thread init); 2: barrier; 3: fl := 1; 4 -> 5: done.
  // A thread at 5 must see fl = 1; without the barrier a laggard's reset
  // at 1 clobbers the flag.
  S.setInit(M.mkAnd(M.mkEq(Fl, M.mkInt(0)),
                    M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))));
  Transition &InitF = S.addTransition("reset", M.mkEq(S.my(PC), M.mkInt(1)));
  InitF.GlobalUpd[Fl] = M.mkInt(0);
  InitF.LocalUpd[PC] = M.mkInt(2);
  Transition &Bar = S.addTransition(
      "barrier", Barrier ? M.mkAnd(M.mkEq(S.my(PC), M.mkInt(2)),
                                   noneAtOrBefore(M, PC, 1))
                         : M.mkEq(S.my(PC), M.mkInt(2)));
  Bar.LocalUpd[PC] = M.mkInt(3);
  Transition &SetF = S.addTransition("set", M.mkEq(S.my(PC), M.mkInt(3)));
  SetF.GlobalUpd[Fl] = M.mkInt(1);
  SetF.LocalUpd[PC] = M.mkInt(4);
  Transition &Fin = S.addTransition("finish", M.mkEq(S.my(PC), M.mkInt(4)));
  Fin.LocalUpd[PC] = M.mkInt(5);
  S.setSafe(M.mkForall(
      {T}, M.mkImplies(M.mkEq(M.mkRead(PC, T), M.mkInt(5)),
                       M.mkEq(Fl, M.mkInt(1)))));

  S.CustomInit = [&S, PC](int64_t N) {
    return std::vector<sys::ParamSystem::State>{zeroState(S, N, PC, 1)};
  };
  B.Shape = {3, {}};
  B.Explicit.NumThreads = 3;
  B.ExpectSafe = Barrier;
  B.Property = "exists t: pc(t) = 5 -> fl = 1";
  return B;
}
