//===- tests/card_soundness_test.cpp - Theorem 1 property tests ----------------===//
//
// Part of sharpie. Property test for the soundness of the reduction
// pipeline (paper Theorem 1): whenever reduceToGround declares a formula
// unsatisfiable, no finite model may satisfy the original -- cardinalities
// evaluated exactly by the reference semantics of logic/Eval.h.
//
// Random formulas mix cardinality comparisons, update equations, universal
// facts and arithmetic; random finite models are sampled densely. A single
// (model satisfies Psi) /\ (reduction says Unsat) witness would be a
// soundness bug in the axioms of card/Card.cpp.
//
// Every seed runs under each of the three reduction modes
// (engine::ReduceMode): the Full ground, the recheck's Filtered ground and
// the Houdini clauses' Manifest core, each alone and conjoined with its
// deferred manifest. And since Ground AND the manifest is the Full
// reduction, the two must agree on every definite answer whenever neither
// reduction lost precision.
//
// Theorem 2 (relative completeness of CARD-UPD for difference bounds) is
// additionally spot-checked: for an update g = f[j <- v], the reduction
// must *derive* the exact +-1 relation between the two counts.
//
//===----------------------------------------------------------------------===//

#include "engine/Reduce.h"
#include "logic/Eval.h"
#include "logic/TermOps.h"

#include <gtest/gtest.h>
#include <random>
#include <tuple>

using namespace sharpie;
using namespace sharpie::logic;
using smt::SatResult;

namespace {

/// Builds random formulas over two arrays, two Tid vars, two Int scalars,
/// two cardinality terms, and an update equation.
class CardFormulaGen {
public:
  CardFormulaGen(TermManager &M, unsigned Seed)
      : M(M), Rng(Seed * 40503u + 1) {
    F = M.mkVar("f", Sort::Array);
    G = M.mkVar("g", Sort::Array);
    T1 = M.mkVar("t1", Sort::Tid);
    T2 = M.mkVar("t2", Sort::Tid);
    A = M.mkVar("a", Sort::Int);
    Bv = M.mkVar("b", Sort::Int);
    BoundT = M.mkVar("bt", Sort::Tid);
  }

  Term setBody(Term Arr) {
    Term Rd = M.mkRead(Arr, BoundT);
    switch (pick(4)) {
    case 0:
      return M.mkEq(Rd, M.mkInt(pick(3)));
    case 1:
      return M.mkGe(Rd, M.mkInt(pick(3)));
    case 2:
      return M.mkLe(Rd, A);
    default:
      return M.mkAnd(M.mkGe(Rd, M.mkInt(0)), M.mkLe(Rd, M.mkInt(pick(3))));
    }
  }

  Term formula() {
    Term CardF = M.mkCard(BoundT, setBody(F));
    Term CardG = M.mkCard(BoundT, setBody(G));
    std::vector<Term> Conj;
    // Cardinality comparisons.
    for (int I = 0; I < 2; ++I) {
      Term C = pick(2) ? CardF : CardG;
      Term Rhs = pick(2) ? Term(M.mkInt(pick(4)))
                         : (pick(2) ? A : Bv);
      switch (pick(3)) {
      case 0:
        Conj.push_back(M.mkLe(C, Rhs));
        break;
      case 1:
        Conj.push_back(M.mkLt(Rhs, C));
        break;
      default:
        Conj.push_back(M.mkEq(C, Rhs));
        break;
      }
    }
    // Maybe an update equation.
    if (pick(2))
      Conj.push_back(
          M.mkEq(G, M.mkStore(F, T1, M.mkInt(pick(4)))));
    // Maybe a universal fact.
    if (pick(2))
      Conj.push_back(M.mkForall(
          {BoundT}, M.mkGe(M.mkRead(F, BoundT), M.mkInt(0))));
    // Some arithmetic.
    Conj.push_back(pick(2) ? M.mkLe(A, Bv)
                           : M.mkEq(Bv, M.mkAdd(A, M.mkInt(1))));
    if (pick(2))
      Conj.push_back(M.mkGe(M.mkRead(F, T2), M.mkInt(pick(3))));
    return M.mkAnd(Conj);
  }

  /// Random finite model over the generator's variables.
  FiniteModel randomModel(int64_t N) {
    FiniteModel Mod;
    Mod.DomainSize = N;
    Mod.Scalars[A] = static_cast<int64_t>(pick(5)) - 1;
    Mod.Scalars[Bv] = static_cast<int64_t>(pick(5)) - 1;
    Mod.Scalars[T1] = pick(N);
    Mod.Scalars[T2] = pick(N);
    std::vector<int64_t> Fv, Gv;
    for (int64_t I = 0; I < N; ++I) {
      Fv.push_back(pick(4));
      Gv.push_back(pick(4));
    }
    Mod.Arrays[F] = Fv;
    Mod.Arrays[G] = Gv;
    return Mod;
  }

  /// All free variables must be interpreted; skolems introduced by the
  /// reduction don't appear in the original formula.
  TermManager &M;
  Term F, G, T1, T2, A, Bv, BoundT;

private:
  unsigned pick(size_t N) { return Rng() % static_cast<unsigned>(N); }
  std::mt19937 Rng;
};

using SoundnessParam = std::tuple<unsigned, engine::ReduceMode>;

class CardSoundnessTest : public ::testing::TestWithParam<SoundnessParam> {};

TEST_P(CardSoundnessTest, ReductionNeverRefutesASatisfiableFormula) {
  const auto [Seed, Mode] = GetParam();
  TermManager M;
  CardFormulaGen Gen(M, Seed);
  Term Psi = Gen.formula();

  // Search for a finite model first (cheap).
  bool FoundModel = false;
  for (int Trial = 0; Trial < 300 && !FoundModel; ++Trial) {
    FiniteModel Mod = Gen.randomModel(2 + Trial % 3);
    Evaluator Ev(Mod);
    FoundModel = Ev.evalBool(Psi);
  }

  auto Reduce = [&](engine::ReduceMode Md) {
    engine::ReduceOptions Opts;
    Opts.Card.Venn = Seed % 2 == 0; // Exercise both configurations.
    Opts.Mode = Md;
    std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
    return engine::reduceToGround(M, Psi, Opts, Oracle.get());
  };
  auto Check = [&](Term F) {
    std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
    S->add(F);
    return S->check();
  };
  engine::ReduceResult R = Reduce(Mode);
  SatResult GroundOnly = Check(R.Ground);
  SatResult WithManifest =
      R.Deferred.empty() ? GroundOnly
                         : Check(M.mkAnd(R.Ground, M.mkAnd(R.Deferred)));

  if (FoundModel) {
    EXPECT_NE(GroundOnly, SatResult::Unsat)
        << "soundness bug: finite model exists for " << toString(Psi);
    EXPECT_NE(WithManifest, SatResult::Unsat)
        << "soundness bug (with manifest): finite model exists for "
        << toString(Psi);
  }
  if (Mode == engine::ReduceMode::Manifest) {
    engine::ReduceResult Full = Reduce(engine::ReduceMode::Full);
    SatResult FullAnswer = Check(Full.Ground);
    if (R.Complete && Full.Complete && FullAnswer != SatResult::Unknown &&
        WithManifest != SatResult::Unknown) {
      EXPECT_EQ(WithManifest, FullAnswer)
          << "Ground AND manifest is not the Full reduction for "
          << toString(Psi);
    }
  }
}

/// Test names read Mode_Seed, e.g. Manifest_17.
std::string soundnessName(const ::testing::TestParamInfo<SoundnessParam> &I) {
  static const char *const Modes[] = {"Full", "Filtered", "Manifest"};
  return std::string(Modes[static_cast<int>(std::get<1>(I.param))]) + "_" +
         std::to_string(std::get<0>(I.param));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CardSoundnessTest,
    ::testing::Combine(::testing::Range(0u, 150u),
                       ::testing::Values(engine::ReduceMode::Full,
                                         engine::ReduceMode::Filtered,
                                         engine::ReduceMode::Manifest)),
    soundnessName);

// Theorem 2 spot check: the update axiom captures the exact difference
// bound induced by a point-wise update.
TEST(CardCompleteness, UpdateAxiomDerivesExactDelta) {
  TermManager M;
  Term F = M.mkVar("f", Sort::Array);
  Term G = M.mkVar("g", Sort::Array);
  Term J = M.mkVar("j", Sort::Tid);
  Term T = M.mkVar("t", Sort::Tid);
  Term K = M.mkVar("k", Sort::Int);
  Term L = M.mkVar("l", Sort::Int);
  Term CardF = M.mkCard(T, M.mkEq(M.mkRead(F, T), M.mkInt(1)));
  Term CardG = M.mkCard(T, M.mkEq(M.mkRead(G, T), M.mkInt(1)));
  Term Base = M.mkAnd({M.mkEq(CardF, K), M.mkEq(CardG, L),
                       M.mkEq(M.mkRead(F, J), M.mkInt(0)),
                       M.mkEq(G, M.mkStore(F, J, M.mkInt(1)))});

  auto Refutes = [&](Term Extra) {
    std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
    engine::ReduceResult R = engine::reduceToGround(
        M, M.mkAnd(Base, Extra), {}, Oracle.get());
    std::unique_ptr<smt::SmtSolver> S = smt::makeZ3Solver(M);
    S->add(R.Ground);
    return S->check() == SatResult::Unsat;
  };
  // l = k + 1 must be forced: both strict deviations refuted...
  EXPECT_TRUE(Refutes(M.mkLe(L, K)));
  EXPECT_TRUE(Refutes(M.mkGe(L, M.mkAdd(K, M.mkInt(2)))));
  // ...and the exact value consistent.
  EXPECT_FALSE(Refutes(M.mkEq(L, M.mkAdd(K, M.mkInt(1)))));
}

} // namespace
