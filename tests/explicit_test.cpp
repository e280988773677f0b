//===- tests/explicit_test.cpp - Explicit-state checker tests ------------------===//
//
// Part of sharpie. The explicit checker must (1) prove small instances of
// every correct protocol safe, (2) produce concrete counterexample traces
// for every buggy variant, and (3) respect the synchronous round semantics,
// both of custom steppers and of the generic stepper over round relations.
//
//===----------------------------------------------------------------------===//

#include "explicit/Explicit.h"
#include "front/Front.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace sharpie;
using namespace sharpie::protocols;

namespace {

void expectSafe(ProtocolBundle B) {
  explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
  EXPECT_TRUE(R.Safe) << B.Sys->name();
  EXPECT_GT(R.NumStates, 1u) << B.Sys->name();
}

void expectCex(ProtocolBundle B) {
  explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
  EXPECT_FALSE(R.Safe) << B.Sys->name();
  ASSERT_TRUE(R.Cex.has_value()) << B.Sys->name();
  EXPECT_FALSE(R.Cex->TransitionNames.empty()) << B.Sys->name();
}

TEST(Explicit, CorrectModelsAreSafe) {
  {
    logic::TermManager M;
    expectSafe(makeMax(M, true));
  }
  {
    logic::TermManager M;
    expectSafe(makeReaderWriter(M, true));
  }
  {
    logic::TermManager M;
    expectSafe(makeParentChild(M, true));
  }
  {
    logic::TermManager M;
    expectSafe(makeSimpBar(M, true));
  }
  {
    logic::TermManager M;
    expectSafe(makeDynBarrier(M, true));
  }
  {
    logic::TermManager M;
    expectSafe(makeAsMany(M, true));
  }
}

TEST(Explicit, BuggyVariantsHaveCounterexamples) {
  {
    logic::TermManager M;
    expectCex(makeMax(M, false));
  }
  {
    logic::TermManager M;
    expectCex(makeReaderWriter(M, false));
  }
  {
    logic::TermManager M;
    expectCex(makeParentChild(M, false));
  }
  {
    logic::TermManager M;
    expectCex(makeSimpBar(M, false));
  }
  {
    logic::TermManager M;
    expectCex(makeDynBarrier(M, false));
  }
  {
    logic::TermManager M;
    expectCex(makeAsMany(M, false));
  }
}

TEST(Explicit, BogusBakeryIsBuggyAndOthersAreNot) {
  {
    logic::TermManager M;
    expectSafe(makeSimplifiedBakery(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeLamportBakery(M));
  }
  {
    logic::TermManager M;
    expectCex(makeBogusBakery(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeTicketMutex(M));
  }
}

TEST(Explicit, SanchezModelsAreSafe) {
  {
    logic::TermManager M;
    expectSafe(makeBarrier(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeCentralBarrier(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeWorkStealing(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeDiningPhilosophers(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeRobot(M, 2, 2));
  }
  {
    logic::TermManager M;
    expectSafe(makeTreeTraverse(M));
  }
  {
    logic::TermManager M;
    expectSafe(makeGarbageCollection(M));
  }
}

TEST(Explicit, CexTraceReplaysToViolation) {
  // The counterexample trace of reader/writer-bug must be executable: its
  // length bounds the BFS depth of the violation.
  logic::TermManager M;
  ProtocolBundle B = makeReaderWriter(M, false);
  explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
  ASSERT_TRUE(R.Cex.has_value());
  // Reader acquires while a writer writes: at least two steps.
  EXPECT_GE(R.Cex->TransitionNames.size(), 2u);
  logic::Evaluator Ev(R.Cex->BadState);
  EXPECT_FALSE(Ev.evalBool(B.Sys->safe()));
}

TEST(Explicit, HoldsInAllDetectsViolations) {
  logic::TermManager M;
  ProtocolBundle B = makeCache(M);
  explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
  ASSERT_TRUE(R.Safe);
  // The property holds in all reachable states; its negation in none.
  EXPECT_TRUE(explct::holdsInAll(R.States, B.Sys->safe()));
  EXPECT_FALSE(explct::holdsInAll(R.States, M.mkNot(B.Sys->safe())));
}

// A sync round moves every thread at once: each round raises every x and
// g by one, so forall t. x[t] == g holds in every reachable state. Read
// with the asynchronous stepper, the round applied only its global
// update and broke the property in one step.
const char *LockstepProtocol = R"(
protocol lockstep sync {
  global g; local x;
  init: g == 0 && forall t. x[t] == 0;
  safe: forall t. x[t] == g;
  round step { relation: x'[self] == x[self] + %d; g := g + 1; }
  template { sets: 0; forall q; }
  check { threads: 2; max_states: 50; }
  expect safe;
}
)";

explct::ExplicitResult exploreLockstep(logic::TermManager &M, int Step) {
  char Text[512];
  std::snprintf(Text, sizeof(Text), LockstepProtocol, Step);
  front::LoadResult L = front::loadProtocolString(M, Text, "lockstep.sharpie");
  if (!L.ok()) {
    ADD_FAILURE() << L.Error->render();
    return {};
  }
  return explct::explore(*L.Bundle->Sys, L.Bundle->Explicit);
}

TEST(Explicit, SyncRoundsMoveEveryThread) {
  logic::TermManager M;
  explct::ExplicitResult R = exploreLockstep(M, 1);
  EXPECT_TRUE(R.Safe);
  EXPECT_FALSE(R.Cex.has_value());
  EXPECT_GT(R.NumStates, 1u);
}

TEST(Explicit, SyncRoundRelationViolationIsACounterexample) {
  logic::TermManager M;
  explct::ExplicitResult R = exploreLockstep(M, 2);
  EXPECT_FALSE(R.Safe);
  ASSERT_TRUE(R.Cex.has_value());
  EXPECT_EQ(std::vector<std::string>{"step"}, R.Cex->TransitionNames);
}

} // namespace
