//===- examples/one_third_consensus.cpp - One-third rule (paper Fig. 3) -----------===//
//
// Part of sharpie. Verifies agreement of the one-third rule consensus
// protocol in the heard-of model (paper Sec. 2): a synchronous, round-based
// system whose round relation itself contains cardinality thresholds
// (> 2n/3 of the processes), exercised with the Venn decomposition of
// Sec. 5.2.
//
//===----------------------------------------------------------------------===//

#include "explicit/Explicit.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"

#include <cstdio>

using namespace sharpie;

int main() {
  logic::TermManager M;
  protocols::ProtocolBundle B = protocols::makeOneThird(M);
  std::printf("one-third rule (paper Fig. 3, heard-of model)\n"
              "property: %s\n",
              B.Property.c_str());

  // Exhaustive rounds for 3 processes over initial proposals {0,1}.
  explct::ExplicitResult ER = explct::explore(*B.Sys, B.Explicit);
  std::printf("explicit N=%lld: %u states, %s\n",
              static_cast<long long>(B.Explicit.NumThreads), ER.NumStates,
              ER.Safe ? "agreement holds" : "AGREEMENT VIOLATED");
  if (!ER.Safe)
    return 1;

  // One set, one Tid quantifier, Venn regions (paper Sec. 5.2).
  synth::SynthOptions Opts = synth::optionsFor(B);
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  if (!R.Verified) {
    std::printf("synthesis failed: %s\n", R.Note.c_str());
    return 1;
  }
  std::printf("\nVERIFIED for every number of processes, in %.2fs.\n",
              R.Stats.Seconds);
  std::printf("inferred cardinality (paper: #{t | x(t) = x(q)}):\n");
  for (logic::Term S : R.SetBodies)
    std::printf("  #{t | %s}\n", logic::toString(S).c_str());
  std::printf("invariant atoms:\n");
  for (logic::Term A : R.Atoms)
    std::printf("  %s\n", logic::toString(A).c_str());
  return 0;
}
