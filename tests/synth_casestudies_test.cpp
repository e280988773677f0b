//===- tests/synth_casestudies_test.cpp - Fig. 6 lower-table case studies -----===//
//
// Part of sharpie. End-to-end synthesis for the ticket lock, filter lock
// (their examples/protocols/ files), and one-third rule (the C++ bundle)
// (paper Sec. 2 / Fig. 6 lower table).
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

TEST(CaseStudies, ExplicitModelsAreSafe) {
  auto ExpectSafe = [](const ProtocolBundle &B) {
    explct::ExplicitResult R = explct::explore(*B.Sys, B.Explicit);
    EXPECT_TRUE(R.Safe) << B.Sys->name();
    EXPECT_GT(R.NumStates, 1u) << B.Sys->name();
  };
  for (const char *Stem : {"ticket_lock", "filter_lock"}) {
    logic::TermManager M;
    ExpectSafe(loadExample(M, Stem));
  }
  logic::TermManager M;
  ExpectSafe(makeOneThird(M));
}

TEST(CaseStudies, TicketLock) {
  logic::TermManager M;
  ProtocolBundle B = loadExample(M, "ticket_lock");
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
  for (logic::Term S : R.SetBodies)
    printf("  set: %s\n", logic::toString(S).c_str());
  for (logic::Term A : R.Atoms)
    printf("  atom: %s\n", logic::toString(A).c_str());
  printf("  tuples=%u smt=%u time=%.2fs\n", R.Stats.TuplesTried,
         R.Stats.SmtChecks, R.Stats.Seconds);
}

TEST(CaseStudies, FilterLock) {
  logic::TermManager M;
  ProtocolBundle B = loadExample(M, "filter_lock");
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
  printf("  tuples=%u smt=%u time=%.2fs\n", R.Stats.TuplesTried,
         R.Stats.SmtChecks, R.Stats.Seconds);
}

TEST(CaseStudies, OneThird) {
  logic::TermManager M;
  ProtocolBundle B = makeOneThird(M);
  synth::SynthResult R = runBundle(B);
  EXPECT_TRUE(R.Verified) << R.Note;
  printf("  tuples=%u smt=%u time=%.2fs\n", R.Stats.TuplesTried,
         R.Stats.SmtChecks, R.Stats.Seconds);
}

} // namespace
