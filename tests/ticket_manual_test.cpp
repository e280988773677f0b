//===- tests/ticket_manual_test.cpp - Hand-written ticket lock invariant -------===//
//
// Part of sharpie. Checks the paper's ticket lock invariant (Sec. 2 /
// Fig. 6) through the concrete reduction path, independent of synthesis:
//
//   serv <= tick
//   /\ forall q >= 0:
//        #{t | m(t) <= serv /\ pc(t) = 2} + #{t | pc(t) = 3} <= 1
//        /\ #{t | m(t) <= serv /\ pc(t) = 2} + #{t | pc(t) = 3}
//             <= tick - serv
//        /\ #{t | m(t) = q} <= 1
//        /\ (q >= tick -> #{t | m(t) = q} <= 0)
//
// and that it implies mutual exclusion. Every obligation must reduce to an
// unsatisfiable ground formula.
//
//===----------------------------------------------------------------------===//

#include "ExampleProtocols.h"
#include "engine/Reduce.h"
#include "logic/TermOps.h"

#include <gtest/gtest.h>

using namespace sharpie;
using logic::Sort;
using logic::Term;

namespace {

TEST(TicketManual, PaperInvariantIsInductive) {
  logic::TermManager M;
  front::FrontBundle B = test::loadExample(M, "ticket_lock");
  sys::ParamSystem &S = *B.Sys;

  Term PC = M.mkVar("pc", Sort::Array);
  Term Mv = M.mkVar("m", Sort::Array);
  Term Tick = M.mkVar("tick", Sort::Int);
  Term Serv = M.mkVar("serv", Sort::Int);
  Term T = M.mkVar("inv_t", Sort::Tid);
  Term Q = M.mkVar("inv_q", Sort::Int);

  Term K0 = M.mkCard(T, M.mkAnd(M.mkLe(M.mkRead(Mv, T), Serv),
                                M.mkEq(M.mkRead(PC, T), M.mkInt(2))));
  Term K1 = M.mkCard(T, M.mkEq(M.mkRead(PC, T), M.mkInt(3)));
  Term K2 = M.mkCard(T, M.mkEq(M.mkRead(Mv, T), Q));

  Term Quantified = M.mkForall(
      {Q},
      M.mkImplies(
          M.mkGe(Q, M.mkInt(0)),
          M.mkAnd({M.mkLe(M.mkAdd(K0, K1), M.mkInt(1)),
                   M.mkLe(M.mkAdd(K0, K1), M.mkSub(Tick, Serv)),
                   M.mkLe(K2, M.mkInt(1)),
                   M.mkImplies(M.mkGe(Q, Tick), M.mkLe(K2, M.mkInt(0)))})));
  Term Inv = M.mkAnd({M.mkGe(Serv, M.mkInt(0)), M.mkLe(Serv, Tick),
                      Quantified});

  engine::ReduceOptions Opts;
  Opts.Card.Venn = true;
  std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
  for (const sys::Obligation &O : sys::safetyObligations(S, Inv)) {
    engine::ReduceResult R = engine::reduceToGround(
        M, O.Psi, Opts, Oracle.get(), S.externalCounters());
    std::unique_ptr<smt::SmtSolver> Check = smt::makeZ3Solver(M);
    Check->setTimeoutMs(60000);
    Check->add(R.Ground);
    EXPECT_EQ(Check->check(), smt::SatResult::Unsat)
        << O.Name << " (ground size " << logic::termSize(R.Ground) << ")";
  }
}

} // namespace
