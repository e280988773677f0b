//===- examples/run_protocol_fixed.cpp - #Pi with a pinned template ---------------===//
//
// Part of sharpie. Runs one Fig. 6 (lower) case study like `sharpie`,
// but hands #Pi the exact set bodies the paper's table reports (the
// paper's shape template made fully concrete). Useful to separate the
// set-search cost from the solving cost and for debugging individual
// benchmarks:
//
//   example_run_protocol_fixed ticket|filter|one-third
//                              [--log-level debug] [--stats]
//
//===----------------------------------------------------------------------===//

#include "front/Front.h"
#include "logic/TermOps.h"
#include "obs/Cli.h"
#include "protocols/Protocols.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace sharpie;
using namespace sharpie::protocols;
using logic::Sort;
using logic::Term;

int main(int argc, char **argv) {
  obs::CliObs Obs;
  std::string Name;
  for (int I = 1; I < argc; ++I) {
    std::string Err;
    if (Obs.parseArg(argc, argv, I, Err)) {
      if (!Err.empty()) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 2;
      }
    } else
      Name = argv[I];
  }

  logic::TermManager M;
  ProtocolBundle B;
  auto Load = [&](const char *Stem) {
    front::LoadResult L = front::loadProtocolFile(
        M, std::string(SHARPIE_REPO_ROOT) + "/examples/protocols/" + Stem +
               ".sharpie");
    if (!L.ok()) {
      std::fprintf(stderr, "%s\n", L.Error->render().c_str());
      std::exit(3);
    }
    B = std::move(*L.Bundle);
  };
  std::vector<Term> Fixed;
  if (Name == "ticket") {
    Load("ticket_lock");
    synth::Formals F = synth::formalsFor(M, B.Shape);
    Term PC = M.mkVar("pc", Sort::Array);
    Term Mv = M.mkVar("m", Sort::Array);
    Term Serv = M.mkVar("serv", Sort::Int);
    Term T = F.BoundVar;
    Fixed = {M.mkAnd(M.mkLe(M.mkRead(Mv, T), Serv),
                     M.mkEq(M.mkRead(PC, T), M.mkInt(2))),
             M.mkEq(M.mkRead(PC, T), M.mkInt(3)),
             M.mkEq(M.mkRead(Mv, T), F.Q[0])};
  } else if (Name == "filter") {
    Load("filter_lock");
    synth::Formals F = synth::formalsFor(M, B.Shape);
    Term Lv = M.mkVar("lv", Sort::Array);
    Fixed = {M.mkGe(M.mkRead(Lv, F.BoundVar), F.Q[0])};
  } else if (Name == "one-third") {
    B = makeOneThird(M);
    synth::Formals F = synth::formalsFor(M, B.Shape);
    Term X = M.mkVar("x", Sort::Array);
    Fixed = {M.mkEq(M.mkRead(X, F.BoundVar), M.mkRead(X, F.Q[0]))};
  } else {
    std::fprintf(stderr, "usage: %s ticket|filter|one-third %s\n", argv[0],
                 obs::CliObs::usageFragment());
    return 2;
  }

  std::unique_ptr<obs::Tracer> Tracer = Obs.makeTracer();
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.Trace = Tracer.get();
  Opts.FixedSetBodies = Fixed;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  std::string Err;
  if (!Obs.writeOutputs(*Tracer, Err))
    std::fprintf(stderr, "warning: %s\n", Err.c_str());
  if (Obs.Stats)
    std::fprintf(stderr, "%s",
                 synth::renderStatsTable(R.Stats, R.Stats.Seconds).c_str());
  if (R.Verified) {
    std::printf("VERIFIED in %.2fs with the paper template\n",
                R.Stats.Seconds);
    for (Term A : R.Atoms)
      std::printf("  %s\n", logic::toString(A).c_str());
    return 0;
  }
  std::printf("NOT VERIFIED: %s\n", R.Note.c_str());
  return 1;
}
