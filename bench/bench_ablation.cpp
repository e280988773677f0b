//===- bench/bench_ablation.cpp - Design-choice ablations -------------------------===//
//
// Part of sharpie. Ablation runs for the design choices DESIGN.md calls
// out: (i) Venn decomposition on/off (paper Sec. 5.2 says the lower Fig. 6
// table needs it), (ii) the explicit-state pre-filter on/off, and
// (iii) the update axiom on/off (paper Sec. 5.1 / Theorem 2). Each cell
// reports verified? + time on the three Sec. 2 case studies and one
// representative Fig. 7 benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;
using protocols::ProtocolBundle;

namespace {

struct Cell {
  bool Verified;
  double Seconds;
};

Cell runWith(const protocols::BundleFactory &Make, bool Venn, bool Prefilter,
             bool UpdateAxiom) {
  logic::TermManager M;
  ProtocolBundle B = Make(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.Reduce.Card.Venn = Venn && B.NeedsVenn;
  Opts.Reduce.Card.Update = UpdateAxiom;
  Opts.ExplicitPrefilter = Prefilter;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  return {R.Verified, R.Stats.Seconds};
}

} // namespace

int main() {
  struct Named {
    const char *Name;
    protocols::BundleFactory Make;
  };
  std::vector<Named> Benchmarks = {
      {"filter lock", exampleFile("filter_lock")},
      {"one-third rule", protocols::makeOneThird},
      {"parent/child",
       [](logic::TermManager &M) { return protocols::makeParentChild(M, true); }},
  };
  struct Config {
    const char *Name;
    bool Venn, Prefilter, Update;
  };
  std::vector<Config> Configs = {
      {"full", true, true, true},
      {"-venn", false, true, true},
      {"-prefilter", true, false, true},
      {"-card-upd", true, true, false},
  };

  std::printf("== Ablation: Venn decomposition / explicit pre-filter / "
              "CARD-UPD ==\n");
  std::printf("%-16s", "Program");
  for (const Config &C : Configs)
    std::printf(" %-16s", C.Name);
  std::printf("\n");
  for (const Named &B : Benchmarks) {
    std::printf("%-16s", B.Name);
    for (const Config &C : Configs) {
      Cell R = runWith(B.Make, C.Venn, C.Prefilter, C.Update);
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%s %.1fs",
                    R.Verified ? "ok" : "FAIL", R.Seconds);
      std::printf(" %-16s", Buf);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: the Sec. 2 case studies lose their proofs "
              "without the Venn\ndecomposition or the update axiom (paper "
              "Sec. 5.1-5.2); dropping the\npre-filter only costs time.\n");
  return 0;
}
