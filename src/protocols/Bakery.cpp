//===- protocols/Bakery.cpp - Figure 9 upper-table benchmarks ------------------===//
//
// Part of sharpie. Cardinality-free mutual exclusion protocols compared
// against [Abdulla et al., CAV 2007] in the paper's Fig. 9 (upper table):
// Lamport's Bakery, Bogus Bakery (a buggy variant), and Ticket Mutex in
// the universally-guarded formulation (a thread enters when its ticket is
// minimal). All use templates with two Tid quantifiers and no
// cardinalities. The fourth row, Simplified Bakery, is
// examples/protocols/simplified_bakery.sharpie (Protocols.h says why these
// three stay C++).
//
// Abdulla et al.'s models use global (universally quantified) transition
// guards; our ParamSystem guards admit arbitrary quantified formulas, so
// the encodings below are direct. Ticket draws pick a fresh value strictly
// above every current ticket via a nondeterministic choice constrained by a
// universal guard.
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

sys::ParamSystem::State baseState(const ParamSystem &S, int64_t N, Term PC) {
  sys::ParamSystem::State St;
  St.DomainSize = N;
  for (Term G : S.globals())
    St.Scalars[G] = 0;
  for (Term L : S.locals())
    St.Arrays[L] = std::vector<int64_t>(static_cast<size_t>(N),
                                        L == PC ? 1 : 0);
  return St;
}

} // namespace

// -- Lamport's Bakery (with the choosing flag) -----------------------------------------

namespace {

ProtocolBundle makeBakeryVariant(TermManager &M, bool Bogus) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(
      M, Bogus ? "bogus-bakery" : "lamport-bakery");
  ParamSystem &S = *B.Sys;
  Term PC = S.addLocal("pc");
  Term Num = S.addLocal("num");
  Term Ch = S.addLocal("ch");
  Term Tmp = S.addLocal("tmp");
  Term Prio = S.addLocal("prio"); // Distinct ids for the tie-break.
  Term T = M.mkVar("ti", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);

  // Locations: 1 idle, 2 choosing (reads the maximum), 3 about to write
  // its number, 4 competing, 5 critical section. The number computation is
  // split into a read (2 -> 3) and a write (3 -> 4); two threads choosing
  // concurrently can therefore pick the same number -- Lamport breaks the
  // tie with thread ids (modeled as a distinct "prio" local, since the
  // two-sorted theory gives Tid no order). The bogus variant drops the
  // choosing-flag wait from the entry guard, the classic bakery bug: a
  // thread may pass a competitor whose number is computed but not yet
  // visible, and the tie-break then lets the competitor in as well.
  S.setInit(M.mkAnd(
      {M.mkForall({T}, M.mkAnd({M.mkEq(M.mkRead(PC, T), M.mkInt(1)),
                                M.mkEq(M.mkRead(Num, T), M.mkInt(0)),
                                M.mkEq(M.mkRead(Ch, T), M.mkInt(0)),
                                M.mkGe(M.mkRead(Prio, T), M.mkInt(0))})),
       M.mkForall({T, U},
                  M.mkImplies(M.mkNe(T, U),
                              M.mkNe(M.mkRead(Prio, T),
                                     M.mkRead(Prio, U))))}));
  Transition &Start = S.addTransition("start", M.mkEq(S.my(PC), M.mkInt(1)));
  Start.LocalUpd[Ch] = M.mkInt(1);
  Start.LocalUpd[PC] = M.mkInt(2);
  // Read the maximum of the *written* numbers; a concurrent chooser's
  // number is not yet visible.
  Transition &Read = S.addTransition("read", M.mkEq(S.my(PC), M.mkInt(2)));
  Term C = S.addChoice(Read, "num");
  Read.Guard = M.mkAnd(Read.Guard,
                       M.mkForall({U}, M.mkLt(M.mkRead(Num, U), C)));
  Read.LocalUpd[Tmp] = C;
  Read.LocalUpd[PC] = M.mkInt(3);
  Transition &Write = S.addTransition("write", M.mkEq(S.my(PC), M.mkInt(3)));
  Write.LocalUpd[Num] = S.my(Tmp);
  Write.LocalUpd[Ch] = M.mkInt(0);
  Write.LocalUpd[PC] = M.mkInt(4);
  // Enter when (correct version only:) nobody is mid-choice, and everyone
  // else is idle, has a larger number, or loses the tie on priority.
  Term Others = M.mkForall(
      {U},
      M.mkImplies(
          M.mkNe(U, S.self()),
          M.mkAnd(Bogus ? M.mkTrue() : M.mkEq(M.mkRead(Ch, U), M.mkInt(0)),
                  M.mkOr({M.mkEq(M.mkRead(Num, U), M.mkInt(0)),
                          M.mkLt(S.my(Num), M.mkRead(Num, U)),
                          M.mkAnd(M.mkEq(S.my(Num), M.mkRead(Num, U)),
                                  M.mkLt(S.my(Prio),
                                         M.mkRead(Prio, U)))}))));
  Transition &Enter = S.addTransition(
      "enter", M.mkAnd(M.mkEq(S.my(PC), M.mkInt(4)), Others));
  Enter.LocalUpd[PC] = M.mkInt(5);
  Transition &Leave = S.addTransition("leave", M.mkEq(S.my(PC), M.mkInt(5)));
  Leave.LocalUpd[PC] = M.mkInt(1);
  Leave.LocalUpd[Num] = M.mkInt(0);

  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);
  S.setSafe(M.mkForall(
      {Q1, Q2},
      M.mkImplies(M.mkNe(Q1, Q2),
                  M.mkNot(M.mkAnd(M.mkEq(M.mkRead(PC, Q1), M.mkInt(5)),
                                  M.mkEq(M.mkRead(PC, Q2), M.mkInt(5)))))));

  S.CustomInit = [&S, PC, Prio](int64_t N) {
    sys::ParamSystem::State St = baseState(S, N, PC);
    std::vector<int64_t> P;
    for (int64_t I = 0; I < N; ++I)
      P.push_back(I);
    St.Arrays[Prio] = P;
    return std::vector<sys::ParamSystem::State>{St};
  };
  S.ChoiceLo = 1;
  S.ChoiceHi = 3;
  B.Shape = {0, {Sort::Tid, Sort::Tid}};
  B.Explicit.NumThreads = 3;
  B.Explicit.MaxStates = 60000;
  B.ExpectSafe = !Bogus;
  B.Property = "mutual exclusion of location 5";
  return B;
}

} // namespace

ProtocolBundle protocols::makeLamportBakery(TermManager &M) {
  return makeBakeryVariant(M, /*Bogus=*/false);
}

ProtocolBundle protocols::makeBogusBakery(TermManager &M) {
  return makeBakeryVariant(M, /*Bogus=*/true);
}

// -- Ticket Mutex (universally guarded formulation) ------------------------------------------

ProtocolBundle protocols::makeTicketMutex(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "ticket-mutex");
  ParamSystem &S = *B.Sys;
  Term PC = S.addLocal("pc");
  Term Mv = S.addLocal("m");
  Term T = M.mkVar("ti", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);

  // The [Abdulla et al. 2007] formulation: the universally quantified
  // guards express directly that a drawn ticket is fresh and that the
  // entering thread's ticket is minimal among competitors (paper Sec. 7.1,
  // footnote 2 discussion).
  S.setInit(M.mkForall({T}, M.mkAnd(M.mkEq(M.mkRead(PC, T), M.mkInt(1)),
                                    M.mkEq(M.mkRead(Mv, T), M.mkInt(0)))));
  Transition &Draw = S.addTransition("draw", M.mkEq(S.my(PC), M.mkInt(1)));
  Term C = S.addChoice(Draw, "tk");
  Draw.Guard = M.mkAnd(Draw.Guard,
                       M.mkForall({U}, M.mkLt(M.mkRead(Mv, U), C)));
  Draw.LocalUpd[Mv] = C;
  Draw.LocalUpd[PC] = M.mkInt(2);
  Transition &Enter = S.addTransition(
      "enter",
      M.mkAnd(M.mkEq(S.my(PC), M.mkInt(2)),
              M.mkForall({U}, M.mkImplies(
                                  M.mkNe(U, S.self()),
                                  M.mkOr(M.mkEq(M.mkRead(PC, U), M.mkInt(1)),
                                         M.mkLt(S.my(Mv),
                                                M.mkRead(Mv, U)))))));
  Enter.LocalUpd[PC] = M.mkInt(3);
  Transition &Leave = S.addTransition("leave", M.mkEq(S.my(PC), M.mkInt(3)));
  Leave.LocalUpd[PC] = M.mkInt(1);
  Leave.LocalUpd[Mv] = M.mkInt(0);

  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);
  S.setSafe(M.mkForall(
      {Q1, Q2},
      M.mkImplies(M.mkNe(Q1, Q2),
                  M.mkNot(M.mkAnd(M.mkEq(M.mkRead(PC, Q1), M.mkInt(3)),
                                  M.mkEq(M.mkRead(PC, Q2), M.mkInt(3)))))));

  S.CustomInit = [&S, PC](int64_t N) {
    return std::vector<sys::ParamSystem::State>{baseState(S, N, PC)};
  };
  S.ChoiceLo = 1;
  S.ChoiceHi = 4;
  B.Shape = {0, {Sort::Tid, Sort::Tid}};
  B.Explicit.NumThreads = 3;
  B.Explicit.MaxStates = 4000;
  B.Property = "mutual exclusion of location 3";
  return B;
}
