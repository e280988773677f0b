//===- examples/ticket_lock.cpp - Verifying the ticket lock (paper Fig. 1) -------===//
//
// Part of sharpie. Verifies mutual exclusion of the classic ticket lock,
// the paper's first motivating example (Sec. 2): #Pi infers a combination
// of cardinalities and a universally quantified per-ticket counting
// invariant. The run also demonstrates the explicit-state checker as an
// independent witness on small instances.
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
      M, SHARPIE_REPO_ROOT "/examples/protocols/ticket_lock.sharpie");
  if (!L.ok()) {
    std::fprintf(stderr, "%s\n", L.Error->render().c_str());
    return 3;
  }
  front::FrontBundle &B = *L.Bundle;
  std::printf("ticket lock (paper Fig. 1)\nproperty: %s\n",
              B.Property.c_str());

  // Independent evidence first: exhaustively explore small instances.
  for (int64_t N = 2; N <= 3; ++N) {
    explct::ExplicitOptions EO = B.Explicit;
    EO.NumThreads = N;
    explct::ExplicitResult ER = explct::explore(*B.Sys, EO);
    std::printf("explicit N=%lld: %u states, %s\n",
                static_cast<long long>(N), ER.NumStates,
                ER.Safe ? "safe" : "UNSAFE");
    if (!ER.Safe)
      return 1;
  }

  // The parameterized proof.
  // 3 sets, one Int quantifier (paper Fig. 6); tickets are non-negative;
  // Venn regions (paper Sec. 5.2).
  synth::SynthOptions Opts = synth::optionsFor(B);
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  if (!R.Verified) {
    std::printf("synthesis failed: %s\n", R.Note.c_str());
    return 1;
  }
  std::printf("\nVERIFIED for every number of threads, in %.2fs.\n",
              R.Stats.Seconds);
  std::printf("inferred cardinalities (paper: #{t | m(t) <= s /\\ pc(t) = 2}, "
              "#{t | pc(t) = 3}, #{t | m(t) = q}):\n");
  for (logic::Term S : R.SetBodies)
    std::printf("  #{t | %s}\n", logic::toString(S).c_str());
  std::printf("invariant atoms:\n");
  for (logic::Term A : R.Atoms)
    std::printf("  %s\n", logic::toString(A).c_str());
  return 0;
}
