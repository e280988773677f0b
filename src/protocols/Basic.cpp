//===- protocols/Basic.cpp - The Sec. 3 increment program ---------------------===//
//
// Part of sharpie. The increment program of paper Sec. 3. Its twin
// examples/protocols/increment.sharpie is what the drivers load; this
// builder stays for the benchmark harness, which warms up on it. Also the
// name table of the built-in bundles.
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

// -- Increment (paper Sec. 3) ------------------------------------------------------

ProtocolBundle protocols::makeIncrement(TermManager &M) {
  ProtocolBundle B;
  B.Sys = std::make_unique<ParamSystem>(M, "increment");
  ParamSystem &S = *B.Sys;
  Term A = S.addGlobal("a");
  Term PC = S.addLocal("pc");
  Term T = M.mkVar("ti", Sort::Tid);

  S.setInit(M.mkAnd(M.mkEq(A, M.mkInt(0)),
                    M.mkForall({T}, M.mkEq(M.mkRead(PC, T), M.mkInt(1)))));
  Transition &Inc = S.addTransition(
      "inc", M.mkEq(S.my(PC), M.mkInt(1)));
  Inc.GlobalUpd[A] = M.mkAdd(A, M.mkInt(1));
  Inc.LocalUpd[PC] = M.mkInt(2);
  S.setSafe(M.mkForall(
      {T}, M.mkImplies(M.mkGe(M.mkRead(PC, T), M.mkInt(2)),
                       M.mkGt(A, M.mkInt(0)))));

  S.CustomInit = [A, PC](int64_t N) {
    sys::ParamSystem::State St;
    St.DomainSize = N;
    St.Scalars[A] = 0;
    St.Arrays[PC] = std::vector<int64_t>(static_cast<size_t>(N), 1);
    return std::vector<sys::ParamSystem::State>{St};
  };
  B.Shape = {1, {}};
  B.Explicit.NumThreads = 3;
  B.Property = "(exists t: pc(t) >= 2) -> a > 0";
  return B;
}

std::map<std::string, BundleFactory> protocols::builtins() {
  std::map<std::string, BundleFactory> R;
  R["one-third"] = makeOneThird;
  R["parent-child"] = [](TermManager &M) { return makeParentChild(M, true); };
  R["parent-child-nobar"] = [](TermManager &M) {
    return makeParentChild(M, false);
  };
  R["simp-bar"] = [](TermManager &M) { return makeSimpBar(M, true); };
  R["simp-nobar"] = [](TermManager &M) { return makeSimpBar(M, false); };
  R["lamport-bakery"] = makeLamportBakery;
  R["bogus-bakery"] = makeBogusBakery;
  R["ticket-mutex"] = makeTicketMutex;
  R["barrier"] = makeBarrier;
  R["central-barrier"] = makeCentralBarrier;
  R["dining-philosophers"] = makeDiningPhilosophers;
  R["robot-2x2"] = [](TermManager &M) { return makeRobot(M, 2, 2); };
  R["robot-3x3"] = [](TermManager &M) { return makeRobot(M, 3, 3); };
  return R;
}
