//===- tests/synth_basic_test.cpp - End-to-end synthesis smoke tests ----------===//
//
// Part of sharpie. Runs the full #Pi pipeline on the small Figure 6
// upper-table protocols (their examples/protocols/ files) and on the
// Sec. 3 increment program (the C++ bundle the benchmark harness builds).
//
//===----------------------------------------------------------------------===//

#include "ExampleProtocols.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

using namespace sharpie;
using namespace sharpie::protocols;
using test::loadExample;

namespace {

synth::SynthResult runBundle(ProtocolBundle &B) {
  return synth::synthesize(*B.Sys, synth::optionsFor(B));
}

TEST(SynthBasic, ExplicitCheckerValidatesModels) {
  // Each correct model must be safe for small instances.
  auto ExpectSafe = [](const ProtocolBundle &B) {
    explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
    EXPECT_TRUE(R.Safe) << B.Sys->name();
    EXPECT_GT(R.NumStates, 1u) << B.Sys->name();
  };
  {
    logic::TermManager M;
    ExpectSafe(makeIncrement(M));
  }
  for (const char *Stem : {"intro", "bluetooth", "cache"}) {
    logic::TermManager M;
    ExpectSafe(loadExample(M, Stem));
  }
}

TEST(SynthBasic, Increment) {
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
  ASSERT_EQ(R.SetBodies.size(), 1u);
}

TEST(SynthBasic, Intro) {
  logic::TermManager M;
  ProtocolBundle B = loadExample(M, "intro");
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
}

TEST(SynthBasic, Bluetooth) {
  logic::TermManager M;
  ProtocolBundle B = loadExample(M, "bluetooth");
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
}

TEST(SynthBasic, Cache) {
  logic::TermManager M;
  ProtocolBundle B = loadExample(M, "cache");
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
}

} // namespace
