//===- tests/grammar_test.cpp - Search-space grammar tests ----------------------===//
//
// Part of sharpie. The grammars must produce the paper's inferred
// cardinality sets among their candidates, with safety-derived sets ranked
// first, and keep per-local constants separated. No atom of the pool may
// be valid, checked by Z3 on every protocol.
//
//===----------------------------------------------------------------------===//

#include "synth/Grammar.h"
#include "ExampleProtocols.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"
#include "smt/SmtSolver.h"

#include <filesystem>
#include <gtest/gtest.h>

using namespace sharpie;
using namespace sharpie::logic;
using namespace sharpie::synth;
using test::loadExample;

namespace {

bool containsBody(const std::vector<SetCandidate> &Cands, Term Body) {
  for (const SetCandidate &C : Cands)
    if (C.Body == Body)
      return true;
  return false;
}

TEST(Grammar, TicketLockCandidatesIncludeThePaperSets) {
  TermManager M;
  front::FrontBundle B = loadExample(M, "ticket_lock");
  Formals F = makeFormals(M, B.Shape);
  std::vector<SetCandidate> Cands = enumerateSetBodies(*B.Sys, F);
  Term PC = M.mkVar("pc", Sort::Array);
  Term Mv = M.mkVar("m", Sort::Array);
  Term Serv = M.mkVar("serv", Sort::Int);
  Term T = F.BoundVar;
  // The three sets of the paper's Fig. 6 row.
  EXPECT_TRUE(containsBody(Cands, M.mkEq(M.mkRead(PC, T), M.mkInt(3))));
  EXPECT_TRUE(containsBody(
      Cands, M.mkAnd(M.mkLe(M.mkRead(Mv, T), Serv),
                     M.mkEq(M.mkRead(PC, T), M.mkInt(2)))));
  EXPECT_TRUE(containsBody(Cands, M.mkEq(M.mkRead(Mv, T), F.Q[0])));
  // The safety-derived set must rank first.
  EXPECT_EQ(Cands.front().Body, M.mkEq(M.mkRead(PC, T), M.mkInt(3)));
  EXPECT_EQ(Cands.front().Origin, "safety");
}

TEST(Grammar, FilterLockCandidatesIncludeThePaperSet) {
  TermManager M;
  front::FrontBundle B = loadExample(M, "filter_lock");
  Formals F = makeFormals(M, B.Shape);
  std::vector<SetCandidate> Cands = enumerateSetBodies(*B.Sys, F);
  Term Lv = M.mkVar("lv", Sort::Array);
  EXPECT_TRUE(
      containsBody(Cands, M.mkGe(M.mkRead(Lv, F.BoundVar), F.Q[0])));
}

TEST(Grammar, PerLocalConstantsDoNotLeakAcrossLocals) {
  TermManager M;
  front::FrontBundle B = loadExample(M, "ticket_lock");
  std::map<Term, std::vector<int64_t>> Cs = perLocalConstants(*B.Sys);
  Term PC = M.mkVar("pc", Sort::Array);
  Term Mv = M.mkVar("m", Sort::Array);
  // pc compares with locations 1..3 but never with the ticket sentinel -1.
  ASSERT_TRUE(Cs.count(PC));
  for (int64_t C : Cs[PC])
    EXPECT_NE(C, -1);
  // m is initialized to -1.
  ASSERT_TRUE(Cs.count(Mv));
  EXPECT_NE(std::find(Cs[Mv].begin(), Cs[Mv].end(), -1), Cs[Mv].end());
}

TEST(Grammar, AtomPoolCoversThePaperInvariants) {
  TermManager M;
  front::FrontBundle B = loadExample(M, "ticket_lock");
  Formals F = makeFormals(M, B.Shape);
  std::vector<Term> Pool = enumerateInvAtoms(*B.Sys, F);
  Term Tick = M.mkVar("tick", Sort::Int);
  Term Serv = M.mkVar("serv", Sort::Int);
  auto Has = [&](Term A) {
    return std::find(Pool.begin(), Pool.end(), A) != Pool.end();
  };
  // Mutual exclusion: k0 + k1 <= 1.
  EXPECT_TRUE(Has(M.mkLe(M.mkAdd(F.K[0], F.K[1]), M.mkInt(1))));
  // Per-ticket uniqueness: k2 <= 1.
  EXPECT_TRUE(Has(M.mkLe(F.K[2], M.mkInt(1))));
  // No ticket at or above the dispenser: q >= tick -> k2 <= 0.
  EXPECT_TRUE(Has(M.mkImplies(M.mkGe(F.Q[0], Tick),
                              M.mkLe(F.K[2], M.mkInt(0)))));
  // Service never passes the dispenser: serv <= tick.
  EXPECT_TRUE(Has(M.mkLe(Serv, Tick)));
  // In-flight bound: k <= tick - serv.
  EXPECT_TRUE(Has(M.mkLe(F.K[0], M.mkSub(Tick, Serv))));
}

TEST(Grammar, SystemConstantsAreSortedAndDeduped) {
  TermManager M;
  front::FrontBundle B = loadExample(M, "cache");
  std::vector<int64_t> Cs = systemConstants(*B.Sys);
  EXPECT_TRUE(std::is_sorted(Cs.begin(), Cs.end()));
  EXPECT_EQ(std::adjacent_find(Cs.begin(), Cs.end()), Cs.end());
  EXPECT_TRUE(std::find(Cs.begin(), Cs.end(), 3) != Cs.end());
}

/// The atoms of \p B's pool that Z3 proves valid, printed.
std::vector<std::string> validAtoms(TermManager &M,
                                    const front::FrontBundle &B) {
  Formals F = makeFormals(M, B.Shape);
  std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
  std::vector<std::string> Valid;
  for (Term A : enumerateInvAtoms(*B.Sys, F))
    if (smt::checkValid(*S, M, A) != smt::Validity::Invalid)
      Valid.push_back(toString(A));
  return Valid;
}

// A valid atom survives every Houdini round and every minimization trial
// without changing any answer, so the grammar must not emit one: not
// `pc(q) = 1 -> pc(q) <= 3`, not `pc(q) >= 2 -> pc(q) != 1`, not
// `(q0 != q1 /\ pc(q0) = 1 /\ pc(q1) = 2) -> pc(q0) < pc(q1)`.
TEST(Grammar, NoPoolAtomIsValidInAnyBuiltin) {
  for (const auto &[Name, Make] : protocols::builtins()) {
    TermManager M;
    protocols::ProtocolBundle B = Make(M);
    for (const std::string &A : validAtoms(M, B))
      ADD_FAILURE() << Name << ": valid atom " << A;
  }
}

TEST(Grammar, NoPoolAtomIsValidInAnyExampleFile) {
  std::vector<std::string> Stems;
  for (const auto &E : std::filesystem::directory_iterator(
           std::string(SHARPIE_REPO_ROOT) + "/examples/protocols"))
    if (E.path().extension() == ".sharpie")
      Stems.push_back(E.path().stem().string());
  std::sort(Stems.begin(), Stems.end());
  ASSERT_GE(Stems.size(), 19u);
  for (const std::string &Stem : Stems) {
    TermManager M;
    front::FrontBundle B = loadExample(M, Stem);
    for (const std::string &A : validAtoms(M, B))
      ADD_FAILURE() << Stem << ": valid atom " << A;
  }
}

// The pool sizes of the benchmark's one-tuple inputs and of increment,
// pinned so that a filter that also drops a non-valid atom fails here.
TEST(Grammar, PoolSizesOfTheOneTupleInputs) {
  const std::pair<const char *, size_t> Want[] = {{"lamport-bakery", 2839},
                                                  {"robot-2x2", 557},
                                                  {"ticket-mutex", 357},
                                                  {"one-third", 208}};
  std::map<std::string, protocols::BundleFactory> Builtins =
      protocols::builtins();
  for (const auto &[Name, Size] : Want) {
    TermManager M;
    protocols::ProtocolBundle B = Builtins.at(Name)(M);
    EXPECT_EQ(enumerateInvAtoms(*B.Sys, makeFormals(M, B.Shape)).size(), Size)
        << Name;
  }
  TermManager M;
  front::FrontBundle B = loadExample(M, "increment");
  EXPECT_EQ(enumerateInvAtoms(*B.Sys, makeFormals(M, B.Shape)).size(), 31u);
}

} // namespace
