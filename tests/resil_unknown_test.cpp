//===- tests/resil_unknown_test.cpp - Unknown propagation & timeout parity -----===//
//
// Part of sharpie. Two soundness-critical properties of the SMT layer
// that the resilience work (resil/) leans on:
//
//   * Unknown propagation: SatResult::Unknown must never behave as
//     Unsat, and checkValid must map it to Validity::Unknown, never
//     Valid -- a candidate invariant kept on an Unknown, or a safety
//     check "passed" by one, would be a soundness hole. Pinned at the
//     solver level here and at the whole-pipeline level via a forced
//     unknown storm.
//
//   * Timeout parity: both back ends honor setTimeoutMs and answer
//     Unknown on a deliberately hard query within ~2x the configured
//     timeout (satellite of ISSUE 4): Z3 on a quantified nonlinear
//     integer-sqrt formula its MBQI cannot finish, MiniSolver on a
//     pigeonhole instance far beyond its conflict horizon.
//
//===----------------------------------------------------------------------===//

#include "logic/TermOps.h"
#include "protocols/Protocols.h"
#include "resil/Resil.h"
#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

using namespace sharpie;
using namespace sharpie::logic;
using smt::SatResult;
using smt::Validity;

namespace {

double checkMs(smt::SmtSolver &S, SatResult &R) {
  auto T0 = std::chrono::steady_clock::now();
  R = S.check();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// forall x >= 0. exists y >= 0. y*y <= x < (y+1)*(y+1) -- true over the
/// integers, but proving (or modeling) it needs the integer square root,
/// which is beyond quantified nonlinear instantiation: Z3 answers Unknown,
/// either quickly ("incomplete (quantifiers)") or at the timeout
/// ("canceled"). Both are acceptable; an actual Sat/Unsat would be
/// astonishing.
Term hardQuantifiedQuery(TermManager &M) {
  Term X = M.mkVar("hx", Sort::Int);
  Term Y = M.mkVar("hy", Sort::Int);
  Term Zero = M.mkInt(0);
  Term YSq = M.mkMul(Y, Y);
  Term Y1 = M.mkAdd(Y, M.mkInt(1));
  Term Body = M.mkAnd({M.mkGe(Y, Zero), M.mkLe(YSq, X),
                       M.mkLt(X, M.mkMul(Y1, Y1))});
  return M.mkForall({X}, M.mkImplies(M.mkGe(X, Zero),
                                     M.mkExists({Y}, Body)));
}

/// Unsat pigeonhole instance PHP(Pigeons, Pigeons-1) over pure Boolean
/// variables: every pigeon gets a hole, no hole holds two pigeons. In
/// MiniSolver's fragment but exponentially hard for its search at this
/// size, so a soft deadline is the only way out.
Term pigeonhole(TermManager &M, unsigned Pigeons) {
  unsigned Holes = Pigeons - 1;
  std::vector<std::vector<Term>> P(Pigeons);
  for (unsigned I = 0; I < Pigeons; ++I)
    for (unsigned J = 0; J < Holes; ++J)
      P[I].push_back(M.mkVar("php_" + std::to_string(I) + "_" +
                                 std::to_string(J),
                             Sort::Bool));
  std::vector<Term> Cs;
  for (unsigned I = 0; I < Pigeons; ++I)
    Cs.push_back(M.mkOr(P[I]));
  for (unsigned J = 0; J < Holes; ++J)
    for (unsigned I = 0; I < Pigeons; ++I)
      for (unsigned K = I + 1; K < Pigeons; ++K)
        Cs.push_back(M.mkOr(M.mkNot(P[I][J]), M.mkNot(P[K][J])));
  return M.mkAnd(std::move(Cs));
}

// -- Unknown propagation ------------------------------------------------------

TEST(UnknownPropagation, MiniSolverAnswersUnknownOnQuantifiers) {
  TermManager M;
  Term A = M.mkVar("arr", Sort::Array);
  Term T = M.mkVar("t", Sort::Tid);
  Term Q = M.mkForall({T}, M.mkGe(M.mkRead(A, T), M.mkInt(0)));
  std::unique_ptr<smt::SmtSolver> Mini = smt::makeMiniSolver(M);
  Mini->add(Q);
  EXPECT_EQ(Mini->check(), SatResult::Unknown);
  std::string Reason = Mini->reasonUnknown();
  EXPECT_FALSE(Reason.empty());
  EXPECT_EQ(resil::classifyUnknownReason(Reason),
            resil::FailureClass::Incomplete)
      << Reason;
}

TEST(UnknownPropagation, CheckValidMapsUnknownToUnknownNeverValid) {
  TermManager M;
  Term A = M.mkVar("arr", Sort::Array);
  Term T = M.mkVar("t", Sort::Tid);
  Term Q = M.mkForall({T}, M.mkGe(M.mkRead(A, T), M.mkInt(0)));
  std::unique_ptr<smt::SmtSolver> Mini = smt::makeMiniSolver(M);
  EXPECT_EQ(smt::checkValid(*Mini, M, Q), Validity::Unknown);
  // The push/pop scoping around the Unknown must not wedge the solver: a
  // decidable query on the same instance still gets a real answer.
  Mini->add(M.mkGe(M.mkRead(A, T), M.mkInt(1)));
  EXPECT_EQ(smt::checkValid(*Mini, M, M.mkGe(M.mkRead(A, T), M.mkInt(0))),
            Validity::Valid);
}

TEST(UnknownPropagation, ReasonIsClearedBetweenChecks) {
  TermManager M;
  Term A = M.mkVar("arr", Sort::Array);
  Term T = M.mkVar("t", Sort::Tid);
  std::unique_ptr<smt::SmtSolver> Mini = smt::makeMiniSolver(M);
  Mini->push();
  Mini->add(M.mkForall({T}, M.mkGe(M.mkRead(A, T), M.mkInt(0))));
  ASSERT_EQ(Mini->check(), SatResult::Unknown);
  ASSERT_FALSE(Mini->reasonUnknown().empty());
  Mini->pop();
  Mini->add(M.mkGe(M.mkRead(A, T), M.mkInt(0)));
  ASSERT_EQ(Mini->check(), SatResult::Sat);
  EXPECT_TRUE(Mini->reasonUnknown().empty())
      << "stale reason from the earlier Unknown";
}

// -- Per-check timeout parity -------------------------------------------------

TEST(TimeoutParity, Z3HardQuantifiedQueryUnknownWithinTwiceTimeout) {
  TermManager M;
  std::unique_ptr<smt::SmtSolver> Z3 = smt::makeZ3Solver(M);
  Z3->setTimeoutMs(500);
  Z3->add(hardQuantifiedQuery(M));
  SatResult R;
  double Ms = checkMs(*Z3, R);
  EXPECT_EQ(R, SatResult::Unknown);
  // ~2x the configured timeout, plus scheduling slack for loaded CI.
  EXPECT_LT(Ms, 2 * 500 + 500) << "Z3 overran its per-check deadline";
}

TEST(TimeoutParity, MiniSolverHardGroundQueryUnknownWithinTwiceTimeout) {
  TermManager M;
  std::unique_ptr<smt::SmtSolver> Mini = smt::makeMiniSolver(M);
  Mini->setTimeoutMs(200);
  Mini->add(pigeonhole(M, 11));
  SatResult R;
  double Ms = checkMs(*Mini, R);
  EXPECT_EQ(R, SatResult::Unknown);
  EXPECT_LT(Ms, 2 * 200 + 500) << "MiniSolver overran its soft deadline";
  EXPECT_EQ(resil::classifyUnknownReason(Mini->reasonUnknown()),
            resil::FailureClass::Timeout)
      << Mini->reasonUnknown();
}

TEST(TimeoutParity, Z3TimeoutZeroMeansDisabledNotInstant) {
  TermManager M;
  Term X = M.mkVar("x", Sort::Int);
  std::unique_ptr<smt::SmtSolver> Z3 = smt::makeZ3Solver(M);
  Z3->setTimeoutMs(0); // Contract: 0 disables; Z3's raw param means 0ms.
  Z3->add(M.mkGe(X, M.mkInt(5)));
  EXPECT_EQ(Z3->check(), SatResult::Sat);
}

TEST(TimeoutParity, SupervisedHardQueryFailsOverAndStaysWithinBudget) {
  TermManager M;
  obs::Tracer T;
  resil::SupervisedSolver S(
      smt::makeZ3Solver(M), [&M] { return smt::makeMiniSolver(M); },
      /*Faults=*/nullptr, "smt_check", T.worker(0),
      std::chrono::steady_clock::time_point::max());
  S.setTimeoutMs(300);
  S.add(hardQuantifiedQuery(M));
  SatResult R;
  double Ms = checkMs(S, R);
  // Neither back end can decide this; the wrapper must stop trying after
  // base slice + one backoff retry + fallback, never hang, and never
  // fabricate an answer.
  EXPECT_EQ(R, SatResult::Unknown);
  EXPECT_NE(S.lastFailure(), resil::FailureClass::None);
  obs::MetricsSummary MS = T.metrics();
  const int64_t *Fallbacks = MS.counter("fallbacks");
  ASSERT_NE(Fallbacks, nullptr);
  EXPECT_EQ(*Fallbacks, 1);
  EXPECT_LT(Ms, 300 + 2 * 300 + 300 + 1000)
      << "supervision overran retry + backoff + fallback";
}

// -- Whole-pipeline pin: a forced unknown storm can never verify --------------

TEST(UnknownPropagation, SynthesisUnderUnknownStormIsNeverVerified) {
  using namespace sharpie::protocols;
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  auto Plan = resil::FaultPlan::parse("seed=9;smt_check:unknown;reduce:unknown");
  ASSERT_TRUE(Plan.has_value());
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 1;
  Opts.Faults = &*Plan;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  EXPECT_FALSE(R.Verified)
      << "verified with every SMT answer forced to Unknown: some caller "
         "treats Unknown as Unsat/Valid";
  EXPECT_FALSE(R.Cex.has_value());
  EXPECT_TRUE(R.Inconclusive);
}

} // namespace
