//===- tests/quant_test.cpp - Skolemization / expansion tests ------------------===//
//
// Part of sharpie. Unit tests for the instantiation layer of quant/Quant.h
// and its soundness contract (expansion may only weaken; skolemization is
// equisatisfiable outside universal scopes).
//
//===----------------------------------------------------------------------===//

#include "quant/Quant.h"
#include "logic/TermOps.h"

#include <gtest/gtest.h>

using namespace sharpie;
using namespace sharpie::logic;

namespace {

class QuantTest : public ::testing::Test {
protected:
  TermManager M;
  Term F = M.mkVar("f", Sort::Array);
  Term T = M.mkVar("t", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);
  Term X = M.mkVar("x", Sort::Int);
};

TEST_F(QuantTest, SkolemizeTopLevelExists) {
  Term Phi = M.mkExists({T}, M.mkEq(M.mkRead(F, T), M.mkInt(2)));
  quant::SkolemResult R = quant::skolemize(M, Phi);
  EXPECT_TRUE(R.Complete);
  ASSERT_EQ(R.Skolems.size(), 1u);
  EXPECT_FALSE(containsKind(R.Formula, Kind::Exists));
  // Body instantiated at the fresh constant.
  Subst S;
  S[T] = R.Skolems[0];
  EXPECT_EQ(R.Formula,
            substitute(M, M.mkEq(M.mkRead(F, T), M.mkInt(2)), S));
}

TEST_F(QuantTest, NegatedForallBecomesSkolemizedWitness) {
  Term Phi = M.mkNot(M.mkForall({T}, M.mkEq(M.mkRead(F, T), M.mkInt(1))));
  quant::SkolemResult R = quant::skolemize(M, Phi);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.Skolems.size(), 1u);
  EXPECT_FALSE(containsKind(R.Formula, Kind::Forall));
}

TEST_F(QuantTest, ExistsUnderForallFlagsIncomplete) {
  Term Phi = M.mkForall(
      {T}, M.mkExists({U}, M.mkEq(M.mkRead(F, T), M.mkRead(F, U))));
  quant::SkolemResult R = quant::skolemize(M, Phi);
  EXPECT_FALSE(R.Complete);
}

TEST_F(QuantTest, ExpansionEnumeratesTidTerms) {
  Term Phi = M.mkForall({T}, M.mkGe(M.mkRead(F, T), M.mkInt(0)));
  Term C1 = M.mkVar("c1", Sort::Tid), C2 = M.mkVar("c2", Sort::Tid);
  quant::ExpandResult R = quant::expandForalls(M, Phi, {C1, C2}, {});
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.NumInstances, 2u);
  EXPECT_EQ(R.Formula, M.mkAnd(M.mkGe(M.mkRead(F, C1), M.mkInt(0)),
                               M.mkGe(M.mkRead(F, C2), M.mkInt(0))));
}

TEST_F(QuantTest, MultiBinderExpansionIsProduct) {
  Term Phi = M.mkForall({T, U}, M.mkOr(M.mkEq(T, U),
                                       M.mkNe(M.mkRead(F, T),
                                              M.mkRead(F, U))));
  Term C1 = M.mkVar("c1", Sort::Tid), C2 = M.mkVar("c2", Sort::Tid);
  quant::ExpandResult R = quant::expandForalls(M, Phi, {C1, C2}, {});
  EXPECT_EQ(R.NumInstances, 4u);
}

TEST_F(QuantTest, CoreTidsPartitionTheExpansion) {
  // With a core list, an instance binding a Tid outside it is routed into
  // Deferred; Formula AND Deferred is the unpartitioned expansion.
  Term Phi = M.mkForall({T}, M.mkGe(M.mkRead(F, T), M.mkInt(0)));
  Term C1 = M.mkVar("c1", Sort::Tid), C2 = M.mkVar("c2", Sort::Tid);
  std::vector<Term> Core{C1};
  quant::ExpandResult R = quant::expandForalls(M, Phi, {C1, C2}, {}, &Core);
  EXPECT_TRUE(R.Complete);
  EXPECT_EQ(R.NumInstances, 2u);
  EXPECT_EQ(R.Formula, M.mkGe(M.mkRead(F, C1), M.mkInt(0)));
  ASSERT_EQ(R.Deferred.size(), 1u);
  EXPECT_EQ(R.Deferred[0], M.mkGe(M.mkRead(F, C2), M.mkInt(0)));
  EXPECT_EQ(M.mkAnd(R.Formula, M.mkAnd(R.Deferred)),
            quant::expandForalls(M, Phi, {C1, C2}, {}).Formula);
}

TEST_F(QuantTest, BudgetOverrunWeakensToTrue) {
  // Three Tid binders over 28 terms ask for 28^3 = 21952 instances, past
  // the 20000 budget: the estimate rejects the universal before any
  // instance is built.
  Term V = M.mkVar("v", Sort::Tid);
  Term Phi = M.mkForall(
      {T, U, V}, M.mkOr({M.mkEq(T, U), M.mkEq(U, V),
                         M.mkGe(M.mkRead(F, T), M.mkRead(F, V))}));
  std::vector<Term> Tids;
  for (int I = 0; I < 28; ++I)
    Tids.push_back(M.mkVar("c" + std::to_string(I), Sort::Tid));
  quant::ExpandResult R = quant::expandForalls(M, Phi, Tids, {});
  EXPECT_FALSE(R.Complete);
  EXPECT_EQ(R.NumInstances, 0u);
  EXPECT_EQ(R.Formula, M.mkTrue());
}

TEST_F(QuantTest, IntIndexTermsCollectReadsConstsAndOffsets) {
  Term N = M.mkVar("n", Sort::Int);
  Term Phi = M.mkAnd(M.mkEq(M.mkRead(F, T), M.mkSub(N, M.mkInt(1))),
                     M.mkGe(N, M.mkInt(2)));
  std::set<Term> Terms = quant::intIndexTerms(Phi);
  EXPECT_TRUE(Terms.count(M.mkSub(N, M.mkInt(1))));
  EXPECT_TRUE(Terms.count(M.mkRead(F, T)));
  EXPECT_TRUE(Terms.count(M.mkInt(2)));
  // Bare variables are excluded by design.
  EXPECT_FALSE(Terms.count(N));
}

TEST_F(QuantTest, TidIndexTermsAreFreeTidVars) {
  Term Phi = M.mkAnd(M.mkEq(T, U),
                     M.mkForall({T}, M.mkGe(M.mkRead(F, T), M.mkInt(0))));
  std::set<Term> Terms = quant::tidIndexTerms(Phi);
  EXPECT_TRUE(Terms.count(T)); // Free occurrence in the equality.
  EXPECT_TRUE(Terms.count(U));
  EXPECT_EQ(Terms.size(), 2u);
}

} // namespace
