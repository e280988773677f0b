//===- tests/synth_refine_oracle_test.cpp - Refinement vs the eager oracle ---===//
//
// Part of sharpie. Model-guided instance refinement (the only SOLVE path;
// DESIGN.md Sec. 14) must be a pure performance feature. Its oracle is the
// same loop with SynthOptions::RefineBudget = 0: the budget is spent on
// the first surviving model of every check, so each elected clause is
// fully grounded before any model is trusted -- the eager reduction, by
// construction. On every input both runs must give the same verdict, set
// bodies and invariant atoms.
//
// Inputs: every examples/protocols/*.sharpie file, enumerated at runtime
// so a newly added protocol joins the claim automatically (ticket_lock
// with the paper's pinned template; its full search is the 4-worker case
// below), plus the one-third and ticket-mutex bundles, which have no
// .sharpie file.
//
// The same default-budget run of each file is also its golden answer
// (ticket_lock's with the pinned template): name, property, verdict, set
// bodies and atoms (or the counterexample's steps) must equal
// tests/golden/protocols.golden. Set
// SHARPIE_UPDATE_GOLDEN=1 to regenerate it, and review the diff like
// source: a changed line is a changed answer.
//
// Why agreement is not an accident (and what a failure here means): the
// merged per-tuple context reaches the *greatest* inductive subset of the
// candidate atoms, which is unique, so the drop order cannot change the
// fixpoint; and a refining check only returns Sat once every elected
// clause's pending manifest entries evaluate true in the model, i.e. once
// the model satisfies the *full* reduction (core AND manifest == the
// unpartitioned reduction by construction). A diff means the loop dropped
// an atom it could not justify (or kept one it had refuted): a soundness
// bug, not a tuning regression.
//
// The default-budget runs are traced, and none may exhaust the budget: on
// these inputs the loop must converge by refinement alone, not through
// the full-grounding fallback.
//
//===----------------------------------------------------------------------===//

#include "front/Front.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef SHARPIE_REPO_ROOT
#error "SHARPIE_REPO_ROOT must be defined by the build"
#endif

using namespace sharpie;
using logic::Sort;
using logic::Term;
using logic::TermManager;

namespace {

std::string protoDir() {
  return std::string(SHARPIE_REPO_ROOT) + "/examples/protocols";
}

/// One input: a .sharpie file (Path) or a built-in bundle (Make).
struct Input {
  std::string Name;
  std::string Path;
  protocols::BundleFactory Make;
  bool PinTicketTemplate = false;
};

/// What one run produced, rendered to strings so runs over distinct
/// TermManagers compare structurally.
struct RunOutput {
  std::string Name;     ///< The protocol's name.
  std::string Property; ///< Its `property "..."` text.
  bool Verified = false;
  bool Inconclusive = false;
  bool HasCex = false;
  std::vector<std::string> SetBodies;
  std::vector<std::string> Atoms;
  std::vector<std::string> CexSteps;
  /// 0 also when the run stopped before the search (an explicit
  /// counterexample); obs_trace_test pins the counter's name.
  int64_t BudgetExhausted = 0;
  std::string Note;
};

/// The paper's ticket-lock template (Fig. 1): s1 = (m(t) <= serv and
/// pc(t) = 2), s2 = (pc(t) = 3), s3 = (m(t) = q). Concretized per manager.
std::vector<Term> ticketBodies(TermManager &M,
                               const synth::ShapeTemplate &Shape) {
  synth::Formals F = synth::formalsFor(M, Shape);
  Term PC = M.mkVar("pc", Sort::Array);
  Term Mv = M.mkVar("m", Sort::Array);
  Term Serv = M.mkVar("serv", Sort::Int);
  Term T = F.BoundVar;
  return {M.mkAnd(M.mkLe(M.mkRead(Mv, T), Serv),
                  M.mkEq(M.mkRead(PC, T), M.mkInt(2))),
          M.mkEq(M.mkRead(PC, T), M.mkInt(3)),
          M.mkEq(M.mkRead(Mv, T), F.Q[0])};
}

RunOutput run(const Input &In, unsigned RefineBudget, unsigned Workers) {
  TermManager M;
  front::FrontBundle B;
  if (In.Make) {
    B = In.Make(M);
  } else {
    front::LoadResult L = front::loadProtocolFile(M, In.Path);
    if (!L.ok()) {
      ADD_FAILURE() << In.Path << ": "
                    << (L.Error ? L.Error->render() : "load failed");
      return {};
    }
    B = std::move(*L.Bundle);
  }
  synth::SynthOptions Opts = synth::optionsFor(B);
  if (In.PinTicketTemplate)
    Opts.FixedSetBodies = ticketBodies(M, Opts.Shape);
  Opts.RefineBudget = RefineBudget;
  Opts.NumWorkers = Workers;
  obs::Tracer T; // Counters only: no events, no log.
  Opts.Trace = &T;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  RunOutput Out;
  Out.Name = B.Sys->name();
  Out.Property = B.Property;
  Out.Verified = R.Verified;
  Out.Inconclusive = R.Inconclusive;
  Out.HasCex = R.Cex.has_value();
  if (R.Cex)
    Out.CexSteps = R.Cex->TransitionNames;
  for (Term S : R.SetBodies)
    Out.SetBodies.push_back(logic::toString(S));
  for (Term A : R.Atoms)
    Out.Atoms.push_back(logic::toString(A));
  if (const int64_t *V = R.Stats.Metrics.counter("refine_budget_exhausted"))
    Out.BudgetExhausted = *V;
  Out.Note = R.Note;
  return Out;
}

void expectSameAnswer(const RunOutput &Got, const RunOutput &Oracle) {
  EXPECT_EQ(Got.Verified, Oracle.Verified)
      << Got.Note << " / oracle: " << Oracle.Note;
  EXPECT_EQ(Got.Inconclusive, Oracle.Inconclusive);
  EXPECT_EQ(Got.HasCex, Oracle.HasCex);
  EXPECT_EQ(Got.SetBodies, Oracle.SetBodies);
  EXPECT_EQ(Got.Atoms, Oracle.Atoms);
}

/// The serial default loop against the serial budget-0 oracle; returns
/// the default run.
RunOutput expectMatchesOracle(const Input &In) {
  SCOPED_TRACE(In.Name);
  RunOutput Oracle = run(In, /*RefineBudget=*/0, /*Workers=*/1);
  RunOutput Default =
      run(In, synth::SynthOptions().RefineBudget, /*Workers=*/1);
  expectSameAnswer(Default, Oracle);
  EXPECT_EQ(Default.BudgetExhausted, 0) << "refinement budget exhausted";
  return Default;
}

/// One file's answer as golden lines.
std::string goldenEntry(const std::string &Stem, const RunOutput &Out) {
  std::ostringstream SS;
  SS << "== " << Stem << "\n"
     << "name: " << Out.Name << "\n"
     << "property: " << Out.Property << "\n"
     << "verdict: "
     << (Out.Verified       ? "verified"
         : Out.HasCex       ? "unsafe"
         : Out.Inconclusive ? "inconclusive"
                            : "unknown")
     << "\n";
  for (const std::string &S : Out.SetBodies)
    SS << "set: " << S << "\n";
  for (const std::string &A : Out.Atoms)
    SS << "atom: " << A << "\n";
  for (const std::string &T : Out.CexSteps)
    SS << "step: " << T << "\n";
  return SS.str();
}

Input fileInput(const std::string &Stem) {
  Input In;
  In.Name = Stem;
  In.Path = protoDir() + "/" + Stem + ".sharpie";
  In.PinTicketTemplate = Stem == "ticket_lock";
  return In;
}

Input bundleInput(const std::string &Name, protocols::BundleFactory Make) {
  Input In;
  In.Name = Name;
  In.Make = std::move(Make);
  return In;
}

TEST(SynthRefineOracle, EveryProtocolMatchesTheEagerOracle) {
  std::vector<std::string> Stems;
  for (const auto &E : std::filesystem::directory_iterator(protoDir()))
    if (E.path().extension() == ".sharpie")
      Stems.push_back(E.path().stem().string());
  std::sort(Stems.begin(), Stems.end());
  // The corpus this suite was written against; growth is welcome,
  // silent shrinkage is not.
  ASSERT_GE(Stems.size(), 19u) << "protocols missing under " << protoDir();
  std::string Got;
  for (const std::string &S : Stems)
    Got += goldenEntry(S, expectMatchesOracle(fileInput(S)));

  std::string Path =
      std::string(SHARPIE_REPO_ROOT) + "/tests/golden/protocols.golden";
  if (std::getenv("SHARPIE_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Got;
    GTEST_SKIP() << "golden file regenerated: " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with SHARPIE_UPDATE_GOLDEN=1)";
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str()) << "answers differ from " << Path;
}

TEST(SynthRefineOracle, BundlesWithoutSharpieFilesMatchTheEagerOracle) {
  expectMatchesOracle(bundleInput("one-third", protocols::makeOneThird));
  expectMatchesOracle(bundleInput("ticket-mutex", protocols::makeTicketMutex));
}

// The budget is a performance valve, not a semantics knob: a budget of 1
// forces the fall-back full grounding on nearly every check, and the
// verdict and invariant must not move.
TEST(SynthRefineOracle, TinyBudgetMatchesTheEagerOracle) {
  Input In = fileInput("increment");
  expectSameAnswer(run(In, /*RefineBudget=*/1, /*Workers=*/1),
                   run(In, /*RefineBudget=*/0, /*Workers=*/1));
}

// The full ticket_lock template search at 4 workers: it verifies, and no
// tuple any worker attempts needs the full-grounding fallback.
TEST(SynthRefineOracle, TicketLockSearchFourWorkersNeverExhaustsTheBudget) {
  Input In = fileInput("ticket_lock");
  In.PinTicketTemplate = false;
  RunOutput Out = run(In, synth::SynthOptions().RefineBudget, /*Workers=*/4);
  EXPECT_TRUE(Out.Verified) << Out.Note;
  EXPECT_EQ(Out.BudgetExhausted, 0) << "refinement budget exhausted";
}

} // namespace
