//===- tests/smt_cross_test.cpp - MiniSolver vs. Z3 cross-validation -----------===//
//
// Part of sharpie. The from-scratch MiniSolver and the Z3 back end must
// agree on every formula in the MiniSolver's fragment. Random ground
// formulas over linear integer arithmetic, booleans and array reads are
// generated; whenever MiniSolver answers Sat/Unsat, Z3's answer must
// match, and Sat answers must come with a model that evaluates the
// formula to true. Z3's unsat cores must come back as the very
// assumption Terms passed in.
//
//===----------------------------------------------------------------------===//

#include "logic/TermOps.h"
#include "smt/SmtSolver.h"

#include <algorithm>
#include <gtest/gtest.h>
#include <random>
#include <set>

using namespace sharpie;
using namespace sharpie::logic;
using smt::SatResult;

namespace {

class FormulaGen {
public:
  FormulaGen(TermManager &M, unsigned Seed) : M(M), Rng(Seed * 2654435761u) {
    for (int I = 0; I < 4; ++I)
      Vars.push_back(M.mkVar("cv" + std::to_string(I), Sort::Int));
    for (int I = 0; I < 2; ++I)
      Tids.push_back(M.mkVar("ct" + std::to_string(I), Sort::Tid));
    Arr = M.mkVar("carr", Sort::Array);
  }

  Term intTerm(int Depth) {
    switch (pick(Depth > 0 ? 5 : 2)) {
    case 0:
      return Vars[pick(Vars.size())];
    case 1:
      return M.mkInt(static_cast<int64_t>(pick(9)) - 4);
    case 2:
      return M.mkAdd(intTerm(Depth - 1), intTerm(Depth - 1));
    case 3:
      return M.mkSub(intTerm(Depth - 1), intTerm(Depth - 1));
    default:
      return M.mkRead(Arr, Tids[pick(Tids.size())]);
    }
  }

  Term atom(int Depth) {
    Term A = intTerm(Depth), B = intTerm(Depth);
    switch (pick(3)) {
    case 0:
      return M.mkLe(A, B);
    case 1:
      return M.mkLt(A, B);
    default:
      return M.mkEq(A, B);
    }
  }

  Term formula(int Depth) {
    if (Depth == 0)
      return atom(1);
    switch (pick(5)) {
    case 0:
      return M.mkAnd(formula(Depth - 1), formula(Depth - 1));
    case 1:
      return M.mkOr(formula(Depth - 1), formula(Depth - 1));
    case 2:
      return M.mkNot(formula(Depth - 1));
    case 3:
      return M.mkImplies(formula(Depth - 1), formula(Depth - 1));
    default:
      return atom(1);
    }
  }

private:
  unsigned pick(size_t N) { return Rng() % static_cast<unsigned>(N); }

  TermManager &M;
  std::mt19937 Rng;
  std::vector<Term> Vars, Tids;
  Term Arr;
};

class SmtCrossTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SmtCrossTest, MiniSolverAgreesWithZ3) {
  TermManager M;
  FormulaGen Gen(M, GetParam());
  Term F = Gen.formula(3);

  std::unique_ptr<smt::SmtSolver> Mini = smt::makeMiniSolver(M);
  Mini->add(F);
  SatResult RM = Mini->check();
  if (RM == SatResult::Unknown)
    GTEST_SKIP() << "outside MiniSolver fragment";

  std::unique_ptr<smt::SmtSolver> Z3 = smt::makeZ3Solver(M);
  Z3->add(F);
  SatResult RZ = Z3->check();
  ASSERT_NE(RZ, SatResult::Unknown);
  EXPECT_EQ(RM, RZ) << "disagree on " << toString(F);

  if (RM == SatResult::Sat) {
    std::unique_ptr<smt::SmtModel> Model = Mini->model();
    ASSERT_NE(Model, nullptr);
    std::optional<bool> V = Model->evalBool(F);
    if (V.has_value()) {
      EXPECT_TRUE(*V) << "MiniSolver model does not satisfy " << toString(F);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtCrossTest, ::testing::Range(0u, 200u));

TEST(SmtCross, StoreEquationsAtTopLevel) {
  TermManager M;
  Term F = M.mkVar("f", Sort::Array);
  Term G = M.mkVar("g", Sort::Array);
  Term J = M.mkVar("j", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);
  // g = f[j <- 7] /\ g(u) = 3 /\ f(u) = 3 is sat (u != j);
  // adding u = j makes it unsat.
  Term Base = M.mkAnd({M.mkEq(G, M.mkStore(F, J, M.mkInt(7))),
                       M.mkEq(M.mkRead(G, U), M.mkInt(3)),
                       M.mkEq(M.mkRead(F, U), M.mkInt(3))});
  std::unique_ptr<smt::SmtSolver> S1 = smt::makeMiniSolver(M);
  S1->add(Base);
  EXPECT_EQ(S1->check(), SatResult::Sat);
  std::unique_ptr<smt::SmtSolver> S2 = smt::makeMiniSolver(M);
  S2->add(M.mkAnd(Base, M.mkEq(U, J)));
  EXPECT_EQ(S2->check(), SatResult::Unsat);
}

TEST(SmtCross, AckermannCongruence) {
  TermManager M;
  Term F = M.mkVar("f", Sort::Array);
  Term T1 = M.mkVar("t1", Sort::Tid);
  Term T2 = M.mkVar("t2", Sort::Tid);
  // t1 = t2 /\ f(t1) != f(t2) is unsat.
  Term Phi = M.mkAnd(M.mkEq(T1, T2),
                     M.mkNe(M.mkRead(F, T1), M.mkRead(F, T2)));
  std::unique_ptr<smt::SmtSolver> S = smt::makeMiniSolver(M);
  S->add(Phi);
  EXPECT_EQ(S->check(), SatResult::Unsat);
}

TEST(SmtCross, PushPopScoping) {
  TermManager M;
  Term X = M.mkVar("x", Sort::Int);
  std::unique_ptr<smt::SmtSolver> S = smt::makeMiniSolver(M);
  S->add(M.mkGe(X, M.mkInt(5)));
  EXPECT_EQ(S->check(), SatResult::Sat);
  S->push();
  S->add(M.mkLe(X, M.mkInt(3)));
  EXPECT_EQ(S->check(), SatResult::Unsat);
  S->pop();
  EXPECT_EQ(S->check(), SatResult::Sat);
}

// About a thousand indicator literals of mixed polarity, with one planted
// three-literal conflict in the context: Z3's core must hand back the
// assumption Terms themselves (polarity included), contain every planted
// literal, and be unsatisfiable on its own.
TEST(SmtCross, Z3CoreIsTheAssumptionTerms) {
  TermManager M;
  std::vector<Term> A;
  for (int I = 0; I < 1000; ++I) {
    Term B = M.mkVar("ind" + std::to_string(I), Sort::Bool);
    A.push_back(I % 3 == 0 ? M.mkNot(B) : B);
  }
  Term X = M.mkVar("x", Sort::Int);
  std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
  // Each literal constrains x loosely; none of these clash.
  for (int I = 0; I < 1000; ++I)
    S->add(M.mkImplies(A[I], M.mkLe(X, M.mkInt(2000 - I))));
  const std::vector<Term> Planted = {A[123], A[457], A[791]};
  ASSERT_EQ(A[123].kind(), Kind::Not);
  ASSERT_EQ(A[457].kind(), Kind::Var);
  S->add(M.mkNot(M.mkAnd(Planted)));

  ASSERT_EQ(S->checkAssuming(A), SatResult::Unsat);
  std::vector<Term> Core = S->unsatCore();
  std::set<Term> Passed(A.begin(), A.end());
  for (Term T : Core)
    EXPECT_TRUE(Passed.count(T)) << toString(T) << " is not an assumption";
  for (Term P : Planted)
    EXPECT_NE(std::find(Core.begin(), Core.end(), P), Core.end())
        << toString(P) << " missing from the core";
  EXPECT_EQ(std::set<Term>(Core.begin(), Core.end()).size(), Core.size());

  EXPECT_EQ(S->checkAssuming(Core), SatResult::Unsat);
  // Dropping any assumption of the planted conflict restores Sat.
  std::vector<Term> Rest(A.begin(), A.end());
  Rest.erase(std::find(Rest.begin(), Rest.end(), A[457]));
  EXPECT_EQ(S->checkAssuming(Rest), SatResult::Sat);
}

} // namespace
