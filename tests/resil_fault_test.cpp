//===- tests/resil_fault_test.cpp - Resilience layer & chaos runs --------------===//
//
// Part of sharpie. Three layers of coverage for the resilience subsystem
// (resil/Fault.h, resil/Resil.h):
//
//   * FaultPlan grammar: parse/render round-trips, every malformed spec
//     is rejected with a message, and FaultInjector decisions are a pure
//     function of (seed, site, scope, index) -- replayable by design.
//   * SupervisedSolver policy, pinned against a scripted back end: retry
//     only on timeout-class Unknowns, escalate to the fallback with the
//     assertion trail replayed, contain solver exceptions, honor the
//     global budget, and -- the soundness pin -- never turn an Unknown
//     into Sat/Unsat without a real solver answering.
//   * Chaos: increment and ticket under seeded FaultPlans (timeout storm,
//     every-Nth Unknown, one-worker-throws, all-throw) at 4 workers. The
//     verdict must be the fault-free one or honestly inconclusive; a
//     counterexample on these safe protocols would be a soundness bug.
//     The 4-worker cases double as the ThreadSanitizer ctest entry
//     (tests/CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "logic/TermOps.h"
#include "protocols/Protocols.h"
#include "resil/Fault.h"
#include "resil/Resil.h"
#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace sharpie;
using namespace sharpie::protocols;
using resil::FailureClass;
using resil::FaultDecision;
using resil::FaultInjector;
using resil::FaultKind;
using resil::FaultPlan;
using resil::SupervisedSolver;
using smt::SatResult;

namespace {

// -- FaultPlan grammar --------------------------------------------------------

TEST(FaultPlan, ParseRenderRoundTrip) {
  std::string Err;
  auto P = FaultPlan::parse(
      "seed=7;smt_check:timeout@p=0.25;worker_task:throw@worker=2;"
      "reduce:latency=5@every=3;smt_check:unknown",
      &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(P->Seed, 7u);
  ASSERT_EQ(P->Rules.size(), 4u);
  EXPECT_EQ(P->Rules[0].Site, "smt_check");
  EXPECT_EQ(P->Rules[0].Kind, FaultKind::Timeout);
  EXPECT_DOUBLE_EQ(P->Rules[0].Prob, 0.25);
  EXPECT_EQ(P->Rules[1].Worker, 2);
  EXPECT_EQ(P->Rules[2].Kind, FaultKind::Latency);
  EXPECT_EQ(P->Rules[2].LatencyMs, 5u);
  EXPECT_EQ(P->Rules[2].Every, 3u);
  // render() re-parses to the same plan (grammar is self-inverse).
  auto Q = FaultPlan::parse(P->render(), &Err);
  ASSERT_TRUE(Q.has_value()) << Err;
  EXPECT_EQ(Q->render(), P->render());
}

TEST(FaultPlan, SeedIsOptionalAndNoTriggerMeansAlways) {
  auto P = FaultPlan::parse("smt_check:unknown");
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Seed, 0u);
  ASSERT_EQ(P->Rules.size(), 1u);
  EXPECT_LT(P->Rules[0].Prob, 0);
  EXPECT_EQ(P->Rules[0].Every, 0u);
  EXPECT_LT(P->Rules[0].Worker, 0);
}

TEST(FaultPlan, MalformedSpecsAreRejectedWithAMessage) {
  for (const char *Bad :
       {"seed=x", "norule", "smt_check:frobnicate", "smt_check:latency=x",
        "smt_check:timeout@p=2", "smt_check:timeout@nonsense",
        "smt_check:timeout@every=0", ":unknown"}) {
    std::string Err;
    EXPECT_FALSE(FaultPlan::parse(Bad, &Err).has_value()) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
}

// -- FaultInjector determinism ------------------------------------------------

std::vector<FaultKind> drawSequence(const FaultPlan &P, unsigned Worker,
                                    unsigned Scopes, unsigned PerScope) {
  FaultInjector Inj(P);
  Inj.setWorker(Worker);
  std::vector<FaultKind> Out;
  for (unsigned S = 0; S < Scopes; ++S) {
    Inj.beginScope(S + 1);
    for (unsigned I = 0; I < PerScope; ++I)
      Out.push_back(Inj.next("smt_check").Kind);
  }
  return Out;
}

TEST(FaultInjector, ProbabilisticRuleIsAPureFunctionOfSeedSiteScopeIndex) {
  auto P = FaultPlan::parse("seed=11;smt_check:timeout@p=0.5");
  ASSERT_TRUE(P.has_value());
  std::vector<FaultKind> A = drawSequence(*P, 0, 6, 40);
  std::vector<FaultKind> B = drawSequence(*P, 0, 6, 40);
  EXPECT_EQ(A, B) << "same plan, same scopes: decisions must replay";
  // Decisions do not depend on the worker that claims the scope (only the
  // explicit worker=W trigger keys on the rank).
  EXPECT_EQ(A, drawSequence(*P, 3, 6, 40));
  // A different seed draws a different sequence (p=0.5 over 240 draws
  // colliding is astronomically unlikely; this catches seed being ignored).
  auto P2 = FaultPlan::parse("seed=12;smt_check:timeout@p=0.5");
  EXPECT_NE(A, drawSequence(*P2, 0, 6, 40));
  size_t Fired = 0;
  for (FaultKind K : A)
    Fired += K != FaultKind::None;
  EXPECT_GT(Fired, 0u);
  EXPECT_LT(Fired, A.size());
}

TEST(FaultInjector, EveryNthFiresOnExactlyTheNthInvocation) {
  auto P = FaultPlan::parse("reduce:unknown@every=3");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj(*P);
  Inj.beginScope(1);
  for (unsigned I = 0; I < 9; ++I) {
    FaultKind K = Inj.next("reduce").Kind;
    if ((I + 1) % 3 == 0)
      EXPECT_EQ(K, FaultKind::Unknown) << "invocation " << I;
    else
      EXPECT_EQ(K, FaultKind::None) << "invocation " << I;
    // Other sites never match this rule.
    EXPECT_EQ(Inj.next("smt_check").Kind, FaultKind::None);
  }
  // beginScope resets the per-site index: the count restarts.
  Inj.beginScope(2);
  EXPECT_EQ(Inj.next("reduce").Kind, FaultKind::None);
  EXPECT_EQ(Inj.next("reduce").Kind, FaultKind::None);
  EXPECT_EQ(Inj.next("reduce").Kind, FaultKind::Unknown);
}

TEST(FaultInjector, WorkerTriggerKeysOnThePhysicalRank) {
  auto P = FaultPlan::parse("worker_task:throw@worker=2");
  ASSERT_TRUE(P.has_value());
  for (unsigned W : {0u, 1u, 2u, 3u}) {
    FaultInjector Inj(*P);
    Inj.setWorker(W);
    Inj.beginScope(1);
    FaultKind K = Inj.next("worker_task").Kind;
    if (W == 2)
      EXPECT_EQ(K, FaultKind::Throw);
    else
      EXPECT_EQ(K, FaultKind::None);
  }
}

// -- SupervisedSolver policy, against a scripted back end ---------------------

/// What one scripted back end instance observed, shared with the test so
/// replay into a fallback is visible.
struct ScriptLog {
  unsigned Checks = 0;
  unsigned Adds = 0;
  unsigned Pushes = 0;
  unsigned LastTimeoutMs = ~0u;
};

/// Answers check() from a fixed script; the last step repeats forever.
class ScriptedSolver final : public smt::SmtSolver {
public:
  enum Step { Sat, Unsat, UnknownTimeout, UnknownIncomplete, Throws };

  ScriptedSolver(std::vector<Step> Script, ScriptLog *Log)
      : Script(std::move(Script)), Log(Log) {}

  void push() override {
    if (Log)
      ++Log->Pushes;
  }
  void pop() override {}
  void add(logic::Term) override {
    if (Log)
      ++Log->Adds;
  }
  void setTimeoutMs(unsigned Ms) override {
    if (Log)
      Log->LastTimeoutMs = Ms;
  }
  std::unique_ptr<smt::SmtModel> model() override { return nullptr; }
  std::string reasonUnknown() const override { return Reason; }

  SatResult check() override {
    ++NumChecks;
    if (Log)
      ++Log->Checks;
    Step S = Script[std::min(Next, Script.size() - 1)];
    ++Next;
    switch (S) {
    case Sat:
      return SatResult::Sat;
    case Unsat:
      return SatResult::Unsat;
    case UnknownTimeout:
      Reason = "timeout";
      return SatResult::Unknown;
    case UnknownIncomplete:
      Reason = "incomplete: scripted";
      return SatResult::Unknown;
    case Throws:
      throw std::runtime_error("scripted backend failure");
    }
    return SatResult::Unknown;
  }

private:
  std::vector<Step> Script;
  ScriptLog *Log;
  size_t Next = 0;
  std::string Reason;
};

using Steps = std::vector<ScriptedSolver::Step>;

/// The supervisor's counters, read off the trace buffer it counts on (a
/// counter that never fired reads as 0).
struct Counts {
  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(0);
  int64_t operator()(const char *Name) const {
    obs::MetricsSummary MS = T.metrics();
    const int64_t *V = MS.counter(Name);
    return V ? *V : 0;
  }
};

SupervisedSolver makeSupervised(Steps Primary, ScriptLog *PrimLog,
                                Steps Fallback, ScriptLog *FbLog, Counts &Ctr,
                                FaultInjector *Faults = nullptr,
                                std::chrono::steady_clock::time_point Deadline =
                                    std::chrono::steady_clock::time_point::max()) {
  SupervisedSolver::Factory Fb;
  if (!Fallback.empty())
    Fb = [Fallback, FbLog] {
      return std::make_unique<ScriptedSolver>(Fallback, FbLog);
    };
  return SupervisedSolver(std::make_unique<ScriptedSolver>(Primary, PrimLog),
                          std::move(Fb), Faults, "smt_check", Ctr.TB,
                          Deadline);
}

TEST(SupervisedSolver, FaultedCoreQueryDegradesToTheFullAssumptionCore) {
  // A chaos plan can fault the dedicated smt_check_assuming site without
  // touching plain checks. When the core query never gets a real Unsat
  // answer, unsatCore() must degrade to the full assumption list -- the
  // conservative reading for a core consumer (drop nothing it cannot
  // justify) -- and must not leak the primary's would-be answer.
  auto P = FaultPlan::parse("smt_check_assuming:unknown");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj(*P);
  Inj.beginScope(1);
  ScriptLog Log;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::Unsat}, &Log, {}, nullptr, Ctr, &Inj);
  logic::TermManager M;
  std::vector<logic::Term> A = {M.mkVar("ind0", logic::Sort::Bool),
                                M.mkVar("ind1", logic::Sort::Bool),
                                M.mkVar("ind2", logic::Sort::Bool)};
  EXPECT_EQ(S.checkAssuming(A), SatResult::Unknown);
  EXPECT_EQ(Ctr("faults_injected"), 1);
  EXPECT_EQ(Log.Checks, 0u) << "the injected fault must preempt the backend";
  EXPECT_EQ(S.unsatCore(), A);
  // The rule is site-scoped: a plain check on the same solver still
  // reaches the backend and answers.
  EXPECT_EQ(S.check(), SatResult::Unsat);
  EXPECT_EQ(Log.Checks, 1u);
}

TEST(SupervisedSolver, RetryRescuesATimeoutClassUnknown) {
  ScriptLog Log;
  Counts Ctr;
  SupervisedSolver S = makeSupervised(
      {ScriptedSolver::UnknownTimeout, ScriptedSolver::Sat}, &Log, {}, nullptr,
      Ctr);
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_EQ(S.lastFailure(), FailureClass::None);
  EXPECT_EQ(Log.Checks, 2u);
  EXPECT_EQ(Ctr("retries"), 1);
  EXPECT_EQ(Ctr("unknown_timeouts"), 1);
  EXPECT_EQ(Ctr("fallbacks"), 0);
}

TEST(SupervisedSolver, BackoffGrowsTheRetrySlice) {
  ScriptLog Log;
  Counts Ctr;
  SupervisedSolver S = makeSupervised(
      {ScriptedSolver::UnknownTimeout, ScriptedSolver::Sat}, &Log, {}, nullptr,
      Ctr);
  S.setTimeoutMs(100);
  EXPECT_EQ(S.check(), SatResult::Sat);
  // The backoff factor is 2.0: the rescue attempt ran with a 200ms slice.
  EXPECT_EQ(Log.LastTimeoutMs, 200u);
}

TEST(SupervisedSolver, IncompleteEscalatesToFallbackWithoutRetry) {
  ScriptLog PrimLog, FbLog;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::UnknownIncomplete}, &PrimLog,
                     {ScriptedSolver::Unsat}, &FbLog, Ctr);
  EXPECT_EQ(S.check(), SatResult::Unsat);
  EXPECT_EQ(S.lastFailure(), FailureClass::None);
  EXPECT_EQ(PrimLog.Checks, 1u) << "incompleteness must not be retried";
  EXPECT_EQ(FbLog.Checks, 1u);
  EXPECT_EQ(Ctr("retries"), 0);
  EXPECT_EQ(Ctr("fallbacks"), 1);
  EXPECT_EQ(Ctr("unknown_incomplete"), 1);
}

TEST(SupervisedSolver, FallbackSeesTheReplayedAssertionTrail) {
  logic::TermManager M;
  logic::Term X = M.mkVar("x", logic::Sort::Int);
  ScriptLog FbLog;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::UnknownIncomplete}, nullptr,
                     {ScriptedSolver::Unsat}, &FbLog, Ctr);
  S.add(M.mkGe(X, M.mkInt(0)));
  S.push();
  S.add(M.mkLe(X, M.mkInt(3)));
  S.add(M.mkGe(X, M.mkInt(5)));
  EXPECT_EQ(S.check(), SatResult::Unsat);
  EXPECT_EQ(FbLog.Adds, 3u) << "all live assertions replayed";
  EXPECT_EQ(FbLog.Pushes, 1u) << "frame structure replayed";
  // pop() drops the inner frame and invalidates the fallback; the next
  // Unknown rebuilds one and replays only the surviving base assertion.
  S.pop();
  EXPECT_EQ(S.check(), SatResult::Unsat);
  EXPECT_EQ(FbLog.Adds, 4u);
  EXPECT_EQ(FbLog.Pushes, 1u);
}

TEST(SupervisedSolver, UnknownOnBothBackEndsStaysUnknown) {
  ScriptLog PrimLog, FbLog;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::UnknownIncomplete}, &PrimLog,
                     {ScriptedSolver::UnknownIncomplete}, &FbLog, Ctr);
  // The soundness pin: no real solver answered, so the wrapper must pass
  // Unknown through -- never fabricate Sat/Unsat.
  EXPECT_EQ(S.check(), SatResult::Unknown);
  EXPECT_EQ(S.lastFailure(), FailureClass::Incomplete);
  EXPECT_EQ(Ctr("fallbacks"), 1);
  EXPECT_EQ(Ctr("unknown_incomplete"), 2);
}

TEST(SupervisedSolver, SolverExceptionIsContainedAndEscalated) {
  ScriptLog PrimLog, FbLog;
  Counts Ctr;
  SupervisedSolver S = makeSupervised({ScriptedSolver::Throws}, &PrimLog,
                                      {ScriptedSolver::Sat}, &FbLog, Ctr);
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_EQ(Ctr("solver_exceptions"), 1);
  EXPECT_EQ(Ctr("fallbacks"), 1);

  Counts Ctr2;
  SupervisedSolver S2 =
      makeSupervised({ScriptedSolver::Throws}, nullptr, {}, nullptr, Ctr2);
  EXPECT_EQ(S2.check(), SatResult::Unknown);
  EXPECT_EQ(S2.lastFailure(), FailureClass::SolverException);
}

TEST(SupervisedSolver, ExhaustedBudgetShortCircuitsTheCheck) {
  ScriptLog Log;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::Sat}, &Log, {}, nullptr, Ctr,
                     /*Faults=*/nullptr,
                     std::chrono::steady_clock::now() -
                         std::chrono::seconds(1));
  EXPECT_EQ(S.check(), SatResult::Unknown);
  EXPECT_EQ(S.lastFailure(), FailureClass::BudgetExhausted);
  EXPECT_EQ(Log.Checks, 0u) << "no time left: the back end is not consulted";
}

TEST(SupervisedSolver, InjectedUnknownIsClassifiedAsInjectedFault) {
  auto P = FaultPlan::parse("smt_check:unknown");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj(*P);
  Inj.beginScope(1);
  ScriptLog Log;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::Sat}, &Log, {}, nullptr, Ctr, &Inj);
  EXPECT_EQ(S.check(), SatResult::Unknown);
  EXPECT_EQ(S.lastFailure(), FailureClass::InjectedFault);
  EXPECT_EQ(Ctr("faults_injected"), 1);
  EXPECT_EQ(Log.Checks, 0u) << "the fault pre-empts the real back end";
}

TEST(SupervisedSolver, InjectedTimeoutIsRetriedAndRescuedByTheFallback) {
  // every=2 fires on the 2nd invocation: attempt 1 runs the scripted
  // timeout, the retry (invocation 2) is injected, the fallback
  // (invocation 3) runs clean and rescues the check.
  auto P = FaultPlan::parse("smt_check:timeout@every=2");
  ASSERT_TRUE(P.has_value());
  FaultInjector Inj(*P);
  Inj.beginScope(1);
  ScriptLog PrimLog, FbLog;
  Counts Ctr;
  SupervisedSolver S =
      makeSupervised({ScriptedSolver::UnknownTimeout}, &PrimLog,
                     {ScriptedSolver::Sat}, &FbLog, Ctr, &Inj);
  EXPECT_EQ(S.check(), SatResult::Sat);
  EXPECT_EQ(Ctr("retries"), 1);
  EXPECT_EQ(Ctr("fallbacks"), 1);
  EXPECT_EQ(Ctr("faults_injected"), 1);
  EXPECT_EQ(PrimLog.Checks, 1u) << "the injected retry never reached check()";
  EXPECT_EQ(FbLog.Checks, 1u);
}

TEST(ClassifyUnknownReason, TimeoutWordsVsEverythingElse) {
  using resil::classifyUnknownReason;
  EXPECT_EQ(classifyUnknownReason("timeout"), FailureClass::Timeout);
  EXPECT_EQ(classifyUnknownReason("canceled"), FailureClass::Timeout);
  EXPECT_EQ(classifyUnknownReason("conflict budget exceeded"),
            FailureClass::Timeout);
  EXPECT_EQ(classifyUnknownReason("max. memory exceeded"),
            FailureClass::Timeout);
  EXPECT_EQ(classifyUnknownReason("incomplete: outside the ground fragment"),
            FailureClass::Incomplete);
  EXPECT_EQ(classifyUnknownReason(""), FailureClass::Incomplete);
}

// -- Chaos: whole-pipeline runs under seeded fault plans ----------------------

struct ChaosOut {
  bool Verified = false;
  bool Inconclusive = false;
  bool Cex = false;
  std::vector<std::string> SetBodies, Atoms;
  synth::SynthStats Stats;
};

ChaosOut runChaos(BundleFactory Make, unsigned Workers, const char *PlanSpec,
                  bool Supervised = true) {
  logic::TermManager M;
  ProtocolBundle B = Make(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = Workers;
  // A hung run is the one unacceptable outcome; the budget turns it into
  // an inconclusive verdict long before the ctest TIMEOUT would fire.
  Opts.TimeBudgetSeconds = 120;
  // Short per-check slices keep the storms fast: an injected timeout is
  // retried with a grown slice and may escalate to the MiniSolver
  // fallback, which honors this deadline while grinding on queries
  // outside its fragment. Real checks on these protocols take
  // milliseconds, so the cap never fires on the fault-free path.
  Opts.SmtTimeoutMs = 2000;
  Opts.Supervise = Supervised;
  FaultPlan Plan;
  if (PlanSpec) {
    auto P = FaultPlan::parse(PlanSpec);
    EXPECT_TRUE(P.has_value()) << PlanSpec;
    if (P)
      Plan = *P;
    Opts.Faults = &Plan;
  }
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  ChaosOut Out;
  Out.Verified = R.Verified;
  Out.Inconclusive = R.Inconclusive;
  Out.Cex = R.Cex.has_value();
  for (logic::Term S : R.SetBodies)
    Out.SetBodies.push_back(logic::toString(S));
  for (logic::Term A : R.Atoms)
    Out.Atoms.push_back(logic::toString(A));
  Out.Stats = R.Stats;
  return Out;
}

/// The chaos invariant: on a safe protocol, a faulted run either still
/// verifies or is honestly inconclusive. It must never report a
/// counterexample, and never be a silent "not verified" with no recorded
/// failure.
void expectHonest(const ChaosOut &Out, const char *What) {
  EXPECT_FALSE(Out.Cex) << What << ": fault injection fabricated a cex";
  if (!Out.Verified) {
    EXPECT_TRUE(Out.Inconclusive)
        << What << ": failed without a recorded failure class";
  }
}

TEST(Chaos, TimeoutStormOnIncrementFourWorkers) {
  // The incremental Houdini loop answers through checkAssuming, which
  // draws faults from its own site; the storm has to cover both sites to
  // keep raining on the default configuration.
  ChaosOut Out = runChaos(
      makeIncrement, 4,
      "seed=1;smt_check:timeout@p=0.4;smt_check_assuming:timeout@p=0.4");
  expectHonest(Out, "increment timeout storm");
  EXPECT_GT(Out.Stats.FaultsInjected, 0u);
  // Injected timeouts are retried; at least one retry must have fired.
  EXPECT_GT(Out.Stats.Retries + Out.Stats.Fallbacks, 0u);
}

TEST(Chaos, EveryThirdCheckUnknownOnIncrementFourWorkers) {
  ChaosOut Out =
      runChaos(makeIncrement, 4, "seed=2;smt_check:unknown@every=3");
  expectHonest(Out, "increment every-3rd check unknown");
  EXPECT_GT(Out.Stats.FaultsInjected, 0u);
}

TEST(Chaos, EveryThirdAssumingCheckUnknownOnIncrementFourWorkers) {
  // Stresses the merged-context Houdini checks specifically: every third
  // checkAssuming goes Unknown, so fixpoint confirmations and core
  // queries are the ones degrading. The conservative core fallback (the
  // full assumption list) plus the loop's Unknown handling must keep the
  // verdict honest, never fabricate a counterexample, and never drop an
  // atom it cannot justify (which would surface as a failed recheck).
  ChaosOut Out =
      runChaos(makeIncrement, 4, "seed=3;smt_check_assuming:unknown@every=3");
  expectHonest(Out, "increment every-3rd assuming check unknown");
  EXPECT_GT(Out.Stats.FaultsInjected, 0u);
}

TEST(Chaos, EveryThirdReduceUnknownOnOneThird) {
  // The reduce site guards the Venn-region oracle, which only protocols
  // with NeedsVenn consult; one-third is the fastest of them. An Unknown
  // there must only coarsen the reduction, never flip the verdict.
  ChaosOut Out = runChaos(makeOneThird, 1, "seed=2;reduce:unknown@every=3");
  expectHonest(Out, "one-third every-3rd reduce unknown");
  EXPECT_GT(Out.Stats.FaultsInjected, 0u);
}

TEST(Chaos, OneWorkerAlwaysThrowsOnIncrementFourWorkers) {
  ChaosOut Out = runChaos(makeIncrement, 4, "seed=3;worker_task:throw@worker=1");
  expectHonest(Out, "increment worker-1 throws");
}

// Every worker throws on every tuple: 4 workers under a rank-free rule,
// and 1 worker under a rule on its rank -- worker 0 is fault rank 1 at
// every width, like its trace rank.
TEST(Chaos, AllWorkersThrowIsHonestlyInconclusive) {
  for (auto [Workers, Plan] :
       {std::pair<unsigned, const char *>{4, "seed=4;worker_task:throw"},
        {1, "seed=4;worker_task:throw@worker=1"}}) {
    ChaosOut Out = runChaos(makeIncrement, Workers, Plan);
    EXPECT_FALSE(Out.Verified) << Plan;
    EXPECT_FALSE(Out.Cex) << Plan;
    EXPECT_TRUE(Out.Inconclusive) << Plan;
    EXPECT_GT(Out.Stats.TuplesSkipped, 0u) << Plan;
    EXPECT_EQ(Out.Stats.TuplesSkipped, Out.Stats.WorkerExceptions) << Plan;
  }
}

TEST(Chaos, UnknownAtEverySiteNeverVerifies) {
  // With every SMT answer forced to Unknown nothing can be proven; a
  // "verified" here would mean some caller treated Unknown as Unsat/Valid.
  ChaosOut Out =
      runChaos(makeIncrement, 1, "seed=5;smt_check:unknown;reduce:unknown");
  EXPECT_FALSE(Out.Verified);
  EXPECT_FALSE(Out.Cex);
  EXPECT_TRUE(Out.Inconclusive);
  EXPECT_GT(Out.Stats.FaultsInjected, 0u);
}

// -- Chaos at the refine site (model-guided instantiation, PR-10) -------------
//
// The `refine` site guards the per-round manifest evaluation inside
// incCheck's CEGAR loop. Timeout/Unknown there mean "the model became
// unusable mid-refinement" and must degrade to a full grounding of every
// selected pending clause -- lossless, so the run still verifies; Throw
// unwinds through the tuple containment path like any worker fault.

TEST(Chaos, RefineUnknownDegradesToFullGrounding) {
  ChaosOut Out = runChaos(makeIncrement, 1, "seed=8;refine:unknown@every=2");
  expectHonest(Out, "increment refine unknown");
  EXPECT_GT(Out.Stats.FaultsInjected, 0u)
      << "the CEGAR loop never reached the refine site";
  // Degrading to the full grounding loses nothing: the verdict must be
  // the fault-free one, not merely honest.
  EXPECT_TRUE(Out.Verified);
}

TEST(Chaos, RefineThrowIsContainedOnIncrementFourWorkers) {
  ChaosOut Out = runChaos(makeIncrement, 4, "seed=9;refine:throw@every=2");
  expectHonest(Out, "increment refine throw");
}

TEST(Chaos, RefineLatencyOnlySlowsTheRun) {
  ChaosOut Out = runChaos(makeIncrement, 1, "seed=10;refine:latency=5@every=2");
  expectHonest(Out, "increment refine latency");
  EXPECT_TRUE(Out.Verified);
}

TEST(Chaos, RefineFaultedRunsReplayExactly) {
  const char *Plan = "seed=11;refine:unknown@every=2;refine:throw@every=5";
  ChaosOut A = runChaos(makeIncrement, 1, Plan);
  ChaosOut B = runChaos(makeIncrement, 1, Plan);
  EXPECT_EQ(A.Verified, B.Verified);
  EXPECT_EQ(A.SetBodies, B.SetBodies);
  EXPECT_EQ(A.Atoms, B.Atoms);
  EXPECT_EQ(A.Stats.FaultsInjected, B.Stats.FaultsInjected);
}

TEST(Chaos, TimeoutStormOnTicketFourWorkers) {
  ChaosOut Out =
      runChaos(makeTicketMutex, 4, "seed=6;smt_check:timeout@p=0.3");
  expectHonest(Out, "ticket timeout storm");
}

TEST(Chaos, SerialFaultedRunsReplayExactly) {
  const char *Plan = "seed=7;smt_check:timeout@p=0.35;reduce:unknown@every=4";
  ChaosOut A = runChaos(makeIncrement, 1, Plan);
  ChaosOut B = runChaos(makeIncrement, 1, Plan);
  EXPECT_EQ(A.Verified, B.Verified);
  EXPECT_EQ(A.Inconclusive, B.Inconclusive);
  EXPECT_EQ(A.SetBodies, B.SetBodies);
  EXPECT_EQ(A.Atoms, B.Atoms);
  EXPECT_EQ(A.Stats.FaultsInjected, B.Stats.FaultsInjected);
  EXPECT_EQ(A.Stats.Retries, B.Stats.Retries);
  EXPECT_EQ(A.Stats.Fallbacks, B.Stats.Fallbacks);
}

TEST(Chaos, FaultFreeSupervisedRunMatchesUnsupervised) {
  // The acceptance bar: with no faults firing, supervision must not
  // change the verdict or the invariant.
  ChaosOut Plain = runChaos(makeIncrement, 1, nullptr, /*Supervised=*/false);
  ChaosOut Supervised = runChaos(makeIncrement, 1, nullptr);
  ASSERT_TRUE(Plain.Verified);
  ASSERT_TRUE(Supervised.Verified);
  EXPECT_EQ(Plain.SetBodies, Supervised.SetBodies);
  EXPECT_EQ(Plain.Atoms, Supervised.Atoms);
  EXPECT_EQ(Supervised.Stats.FaultsInjected, 0u);
}

} // namespace
