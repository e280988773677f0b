//===- tests/termio_test.cpp - Textual term codec tests -----------------------===//
//
// Part of sharpie. logic/TermIO is the foundation both store tiers stand
// on: terms round-trip exactly, and malformed input -- including nesting
// deeper than the reader's bound -- fails with a message, never a crash.
// Also built into front_corpus_asan_test, so the depth bound is checked
// under ASan's larger stack frames.
//
//===----------------------------------------------------------------------===//

#include "logic/TermIO.h"

#include <gtest/gtest.h>

#include <string>

using namespace sharpie;
using logic::Sort;
using logic::Term;

namespace {

TEST(TermIO, RoundTripsRepresentativeTerms) {
  logic::TermManager M;
  Term T = M.mkVar("t", Sort::Tid);
  Term F = M.mkVar("f", Sort::Array);
  Term K = M.mkVar("k weird\"name\\", Sort::Int);
  Term Terms[] = {
      M.mkTrue(),
      M.mkInt(-42),
      M.mkAdd({K, M.mkInt(3)}),
      M.mkIte(M.mkLe(K, M.mkInt(0)), K, M.mkNeg(K)),
      M.mkForall({T}, M.mkGe(M.mkRead(F, T), M.mkInt(1))),
      M.mkCard(T, M.mkLt(M.mkRead(F, T), K)),
      M.mkStore(F, T, M.mkInt(9)),
  };
  for (Term X : Terms) {
    std::string Text = logic::serializeTerm(X);
    std::string Err;
    Term Back = logic::deserializeTerm(M, Text, &Err);
    EXPECT_TRUE(Err.empty()) << Err << " for " << Text;
    // Hash-consing makes round-trip identity a pointer check.
    EXPECT_EQ(X, Back) << Text;
  }
}

TEST(TermIO, MalformedInputsNeverCrash) {
  logic::TermManager M;
  const char *Bad[] = {
      "",
      "(",
      ")",
      "(and",
      "(v q \"x\")",         // Bad sort code.
      "(+ #t #f)",           // Sort mismatch.
      "(rd (v i \"k\") (v t \"t\"))", // rd of non-array.
      "(card (v i \"k\") #t)",        // Card binder must be Tid.
      "(= (v i \"a\"))",              // Arity.
      "(v t \"t\") trailing",
      "(unknownop #t #t)",
  };
  for (const char *Text : Bad) {
    std::string Err;
    Term X = logic::deserializeTerm(M, Text, &Err);
    EXPECT_TRUE(X.isNull()) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
  // Deep nesting is bounded, not stack-fatal.
  std::string Deep;
  for (int I = 0; I < 5000; ++I)
    Deep += "(not ";
  Deep += "#t";
  for (int I = 0; I < 5000; ++I)
    Deep += ")";
  std::string Err;
  EXPECT_TRUE(logic::deserializeTerm(M, Deep, &Err).isNull());
  EXPECT_FALSE(Err.empty());
}

TEST(TermIO, NullTermRoundTrips) {
  logic::TermManager M;
  EXPECT_EQ("()", logic::serializeTerm(Term()));
  std::string Err;
  Term Back = logic::deserializeTerm(M, "()", &Err);
  EXPECT_TRUE(Back.isNull());
  EXPECT_TRUE(Err.empty());
}

} // namespace
