//===- examples/garbage_collection.cpp - Tri-colour GC (paper Fig. 8) -------------===//
//
// Part of sharpie. Verifies the mark-and-sweep garbage collector of paper
// Fig. 8: parallel mutators grey white nodes under a lock while a marker
// thread greys and then blackens; the property couples mutator mutual
// exclusion with colour monotonicity ("nodes only darken"), the paper's
// showcase for the interplay of safety properties and cardinalities.
//
//===----------------------------------------------------------------------===//

#include "explicit/Explicit.h"
#include "front/Front.h"
#include "logic/TermOps.h"
#include "synth/Synth.h"

#include <cstdio>

using namespace sharpie;

int main() {
  logic::TermManager M;
  front::LoadResult L = front::loadProtocolFile(
      M, SHARPIE_REPO_ROOT "/examples/protocols/garbage_collection.sharpie");
  if (!L.ok()) {
    std::fprintf(stderr, "%s\n", L.Error->render().c_str());
    return 3;
  }
  front::FrontBundle &B = *L.Bundle;
  std::printf("garbage collection (paper Fig. 8)\nproperty: %s\n",
              B.Property.c_str());

  // Exhaustive exploration of the 3-address instance: colours darken
  // monotonically and at most one mutator is in its critical region.
  explct::ExplicitResult ER = explct::explore(*B.Sys, B.Explicit);
  std::printf("explicit N=%lld: %u states, %s\n",
              static_cast<long long>(B.Explicit.NumThreads), ER.NumStates,
              ER.Safe ? "safe" : "UNSAFE");
  if (!ER.Safe)
    return 1;

  // One counting set, no quantifiers.
  synth::SynthOptions Opts = synth::optionsFor(B);
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  if (!R.Verified) {
    std::printf("synthesis failed: %s\n", R.Note.c_str());
    return 1;
  }
  std::printf("\nVERIFIED for any number of mutators, in %.2fs.\n",
              R.Stats.Seconds);
  std::printf("inferred cardinality (paper: #{t | 2 <= pc(t) <= 4}):\n");
  for (logic::Term S : R.SetBodies)
    std::printf("  #{t | %s}\n", logic::toString(S).c_str());
  std::printf("invariant atoms:\n");
  for (logic::Term A : R.Atoms)
    std::printf("  %s\n", logic::toString(A).c_str());
  return 0;
}
