//===- protocols/Sanchez.cpp - Figure 9 lower-table benchmarks -----------------===//
//
// Part of sharpie. Benchmarks of the comparison with [Sanchez et al., SAS
// 2012] (paper Fig. 9, lower table): two barrier variants, dining
// philosophers, and the robot swarm on an R x C grid. (The work stealing
// row is examples/protocols/work_stealing.sharpie.) The originals' sources
// are not distributed; these are reconstructions that preserve the
// benchmark names, the synchronization idiom, and the number of
// quantifiers the paper's templates mark (see DESIGN.md). Protocols.h
// says why these four stay C++.
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

sys::ParamSystem::State plainState(const ParamSystem &S, int64_t N, Term PC,
                                   int64_t Pc0) {
  sys::ParamSystem::State St;
  St.DomainSize = N;
  for (Term G : S.globals())
    St.Scalars[G] = 0;
  for (Term L : S.locals())
    St.Arrays[L] = std::vector<int64_t>(static_cast<size_t>(N),
                                        L == PC ? Pc0 : 0);
  return St;
}

} // namespace

// -- barrier: one-shot counting barrier ------------------------------------------------
//
// Threads arrive (1 -> 2) bumping cnt; the gate opens once cnt reaches n.
// Property: nobody is past the gate while someone has not arrived.

ProtocolBundle protocols::makeBarrier(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "barrier");
  ParamSystem &S = *B.Sys;
  Term N = S.addGlobal("n");
  Term Cnt = S.addGlobal("cnt");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);
  S.setSizeVar(N);

  S.setInit(M.mkAnd(M.mkEq(Cnt, M.mkInt(0)),
                    M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))));
  Transition &Arrive = S.addTransition("arrive",
                                       M.mkEq(S.my(PC), M.mkInt(1)));
  Arrive.GlobalUpd[Cnt] = M.mkAdd(Cnt, M.mkInt(1));
  Arrive.LocalUpd[PC] = M.mkInt(2);
  Transition &Pass = S.addTransition(
      "pass", M.mkAnd(M.mkEq(S.my(PC), M.mkInt(2)), M.mkGe(Cnt, N)));
  Pass.LocalUpd[PC] = M.mkInt(3);
  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);
  S.setSafe(M.mkForall(
      {Q1, Q2}, M.mkNot(M.mkAnd(M.mkEq(M.mkRead(PC, Q1), M.mkInt(3)),
                                M.mkEq(M.mkRead(PC, Q2), M.mkInt(1))))));

  S.CustomInit = [&S, PC](int64_t Nv) {
    return std::vector<sys::ParamSystem::State>{plainState(S, Nv, PC, 1)};
  };
  // The proof counts arrivals: cnt = #{t | pc(t) >= 2} (the paper's Fig. 9
  // runs are cardinality-free; our engine proves this benchmark with one
  // counting set, see EXPERIMENTS.md).
  B.Shape = {2, {Sort::Tid}};
  B.Explicit.NumThreads = 3;
  B.Property = "no thread past the barrier while another has not arrived";
  return B;
}

// -- central barrier: arrivals released by a central coordinator --------------------------

ProtocolBundle protocols::makeCentralBarrier(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "central-barrier");
  ParamSystem &S = *B.Sys;
  Term N = S.addGlobal("n");
  Term Cnt = S.addGlobal("cnt");
  Term Go = S.addGlobal("go");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);
  S.setSizeVar(N);

  // 1 working, 2 arrived/waiting, 3 released. The central coordinator
  // (folded into a global action) raises go once cnt = n.
  S.setInit(M.mkAnd({M.mkEq(Cnt, M.mkInt(0)), M.mkEq(Go, M.mkInt(0)),
                     M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))}));
  Transition &Arrive = S.addTransition("arrive",
                                       M.mkEq(S.my(PC), M.mkInt(1)));
  Arrive.GlobalUpd[Cnt] = M.mkAdd(Cnt, M.mkInt(1));
  Arrive.LocalUpd[PC] = M.mkInt(2);
  Transition &Release = S.addTransition(
      "release", M.mkAnd(M.mkEq(Go, M.mkInt(0)), M.mkGe(Cnt, N)));
  Release.GlobalUpd[Go] = M.mkInt(1);
  Transition &Pass = S.addTransition(
      "pass", M.mkAnd(M.mkEq(S.my(PC), M.mkInt(2)), M.mkEq(Go, M.mkInt(1))));
  Pass.LocalUpd[PC] = M.mkInt(3);
  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);
  S.setSafe(M.mkForall(
      {Q1, Q2}, M.mkNot(M.mkAnd(M.mkEq(M.mkRead(PC, Q1), M.mkInt(3)),
                                M.mkEq(M.mkRead(PC, Q2), M.mkInt(1))))));

  S.CustomInit = [&S, PC](int64_t Nv) {
    return std::vector<sys::ParamSystem::State>{plainState(S, Nv, PC, 1)};
  };
  B.Shape = {2, {Sort::Tid}};
  B.Explicit.NumThreads = 3;
  B.Property = "no released thread while another has not arrived";
  return B;
}

// -- dining philosophers: waiter with a stick pool --------------------------------------------

ProtocolBundle protocols::makeDiningPhilosophers(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "dining-philosophers");
  ParamSystem &S = *B.Sys;
  Term N = S.addGlobal("n");
  Term Sticks = S.addGlobal("sticks");
  Term Eating = S.addGlobal("eating");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);
  S.setSizeVar(N);

  // A philosopher picks up two sticks from the pool of n to eat; the
  // waiter-style pool abstracts the ring topology (thread identifiers have
  // no successor arithmetic in the two-sorted theory, Sec. 5).
  S.setInit(M.mkAnd({M.mkEq(Sticks, N), M.mkEq(Eating, M.mkInt(0)),
                     M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))}));
  Transition &Sit = S.addTransition(
      "sit", M.mkAnd(M.mkEq(S.my(PC), M.mkInt(1)),
                     M.mkGe(Sticks, M.mkInt(2))));
  Sit.GlobalUpd[Sticks] = M.mkSub(Sticks, M.mkInt(2));
  Sit.GlobalUpd[Eating] = M.mkAdd(Eating, M.mkInt(1));
  Sit.LocalUpd[PC] = M.mkInt(2);
  Transition &Up = S.addTransition("up", M.mkEq(S.my(PC), M.mkInt(2)));
  Up.GlobalUpd[Sticks] = M.mkAdd(Sticks, M.mkInt(2));
  Up.GlobalUpd[Eating] = M.mkSub(Eating, M.mkInt(1));
  Up.LocalUpd[PC] = M.mkInt(1);
  // At most floor(n/2) philosophers eat at once.
  S.setSafe(M.mkLe(M.mkMul(M.mkInt(2), Eating), N));

  S.CustomInit = [&S, PC, Sticks, N](int64_t Nv) {
    sys::ParamSystem::State St = plainState(S, Nv, PC, 1);
    St.Scalars[Sticks] = Nv;
    return std::vector<sys::ParamSystem::State>{St};
  };
  B.Shape = {0, {}};
  B.Explicit.NumThreads = 4;
  B.Property = "2 * eating <= n";
  return B;
}

// -- robot swarm on an R x C grid -----------------------------------------------------------------

ProtocolBundle protocols::makeRobot(TermManager &M, int Rows, int Cols) {
  ProtocolBundle B;
  std::string Name =
      "robot " + std::to_string(Rows) + "x" + std::to_string(Cols);
  B.Sys = std::make_unique<ParamSystem>(M, Name);
  ParamSystem &S = *B.Sys;
  Term X = S.addLocal("x");
  Term Y = S.addLocal("y");
  Term T = M.mkVar("ti", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);
  Term Q1 = M.mkVar("p1", Sort::Tid), Q2 = M.mkVar("p2", Sort::Tid);

  Term Distinct = M.mkForall(
      {Q1, Q2},
      M.mkImplies(M.mkNe(Q1, Q2),
                  M.mkOr(M.mkNe(M.mkRead(X, Q1), M.mkRead(X, Q2)),
                         M.mkNe(M.mkRead(Y, Q1), M.mkRead(Y, Q2)))));
  Term InGrid = M.mkForall(
      {T}, M.mkAnd({M.mkGe(M.mkRead(X, T), M.mkInt(0)),
                    M.mkLt(M.mkRead(X, T), M.mkInt(Rows)),
                    M.mkGe(M.mkRead(Y, T), M.mkInt(0)),
                    M.mkLt(M.mkRead(Y, T), M.mkInt(Cols))}));
  S.setInit(M.mkAnd(Distinct, InGrid));

  // Four moves; a robot steps onto a cell only if it is free.
  struct Move {
    const char *Name;
    int DX, DY;
  };
  for (const Move &Mv : {Move{"right", 1, 0}, Move{"left", -1, 0},
                         Move{"up", 0, 1}, Move{"down", 0, -1}}) {
    Term NX = M.mkAdd(S.my(X), M.mkInt(Mv.DX));
    Term NY = M.mkAdd(S.my(Y), M.mkInt(Mv.DY));
    Term Free = M.mkForall(
        {U}, M.mkImplies(M.mkNe(U, S.self()),
                         M.mkOr(M.mkNe(M.mkRead(X, U), NX),
                                M.mkNe(M.mkRead(Y, U), NY))));
    Term Bounds = M.mkAnd({M.mkGe(NX, M.mkInt(0)),
                           M.mkLt(NX, M.mkInt(Rows)),
                           M.mkGe(NY, M.mkInt(0)),
                           M.mkLt(NY, M.mkInt(Cols))});
    Transition &Tr = S.addTransition(Mv.Name, M.mkAnd(Bounds, Free));
    Tr.LocalUpd[X] = NX;
    Tr.LocalUpd[Y] = NY;
  }
  S.setSafe(Distinct);

  S.CustomInit = [&S, X, Y, Rows, Cols](int64_t Nv) {
    // Place robots on the first N cells in row-major order.
    std::vector<sys::ParamSystem::State> Out;
    sys::ParamSystem::State St;
    St.DomainSize = Nv;
    std::vector<int64_t> Xs, Ys;
    for (int64_t I = 0; I < Nv; ++I) {
      Xs.push_back((I / Cols) % Rows);
      Ys.push_back(I % Cols);
    }
    St.Arrays[X] = Xs;
    St.Arrays[Y] = Ys;
    Out.push_back(std::move(St));
    return Out;
  };
  B.Shape = {0, {Sort::Tid, Sort::Tid}};
  B.Explicit.NumThreads = std::min<int64_t>(3, Rows * Cols);
  B.Explicit.MaxStates = 30000;
  B.Property = "no two robots occupy the same cell";
  return B;
}
