//===- tests/front_parity_test.cpp - .sharpie vs hand-built bundle parity -----===//
//
// Part of sharpie. The one protocol written twice: increment is both
// examples/protocols/increment.sharpie and protocols::makeIncrement (the
// benchmark harness warms up on the builder). Parsing the file and
// running #Pi must give the same verdict, template metadata and inferred
// set bodies as the builder under identical SynthOptions. Every other
// file is pinned by its golden answer (synth_refine_oracle_test and
// tests/golden/protocols.golden).
//
//===----------------------------------------------------------------------===//

#include "ExampleProtocols.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

using namespace sharpie;
using logic::Term;
using logic::TermManager;

namespace {

struct Side {
  TermManager M;
  front::FrontBundle B; ///< Declared after M: destroyed before it.
};

synth::SynthResult run(Side &S) {
  return synth::synthesize(*S.B.Sys, synth::optionsFor(S.B));
}

std::vector<std::string> strs(const std::vector<Term> &Ts) {
  std::vector<std::string> Out;
  for (Term T : Ts)
    Out.push_back(logic::toString(T));
  return Out;
}

void expectMetadataParity(const Side &FileSide, const Side &HandSide) {
  const front::FrontBundle &File = FileSide.B, &Hand = HandSide.B;
  EXPECT_EQ(File.Shape.NumSets, Hand.Shape.NumSets);
  EXPECT_EQ(File.Shape.Quantifiers, Hand.Shape.Quantifiers);
  EXPECT_EQ(File.ExpectSafe, Hand.ExpectSafe);
  EXPECT_EQ(File.NeedsVenn, Hand.NeedsVenn);
  EXPECT_EQ(File.Sys->mode(), Hand.Sys->mode());
  EXPECT_EQ(File.Sys->globals().size(), Hand.Sys->globals().size());
  EXPECT_EQ(File.Sys->locals().size(), Hand.Sys->locals().size());
  EXPECT_EQ(File.Sys->transitions().size(), Hand.Sys->transitions().size());
}

TEST(FrontParity, Increment) {
  Side File, Hand;
  File.B = test::loadExample(File.M, "increment");
  Hand.B = protocols::makeIncrement(Hand.M);
  expectMetadataParity(File, Hand);
  synth::SynthResult RF = run(File), RH = run(Hand);
  EXPECT_TRUE(RH.Verified) << RH.Note;
  EXPECT_EQ(RF.Verified, RH.Verified) << RF.Note;
  // The full search is deterministic and both systems declare the same
  // variables in the same order, so the invariants print identically.
  EXPECT_EQ(strs(RF.SetBodies), strs(RH.SetBodies));
  EXPECT_EQ(strs(RF.Atoms), strs(RH.Atoms));
}

} // namespace
