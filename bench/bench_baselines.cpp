//===- bench/bench_baselines.cpp - Our comparator implementations ------------------===//
//
// Part of sharpie. Runs the two from-scratch baseline verifiers on the
// benchmarks of their respective comparisons: the counter-abstraction
// model checker (the paper's Fig. 7 comparator stands in for PACMAN) and
// the interval abstract interpreter (the Fig. 9 I-column stand-in).
// Expected shape per the paper: the baselines verify the simple barrier
// benchmarks but track every location counter eagerly and support no
// quantified invariants, so they give up where #Pi does not.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "baselines/CounterAbs.h"
#include "baselines/IntervalAI.h"

#include <cstdio>

using namespace sharpie;
using bench::exampleFile;
using protocols::ProtocolBundle;

int main() {
  using logic::TermManager;
  struct Row {
    const char *Name;
    protocols::BundleFactory Make;
  };
  std::vector<Row> Fig7 = {
      {"max", exampleFile("max")},
      {"reader/writer", exampleFile("reader_writer")},
      {"parent/child",
       [](TermManager &M) { return protocols::makeParentChild(M, true); }},
      {"simp-bar",
       [](TermManager &M) { return protocols::makeSimpBar(M, true); }},
      {"dyn-barrier", exampleFile("dyn_barrier")},
      {"as-many", exampleFile("as_many")},
  };
  std::printf("== Counter-abstraction baseline (Fig. 7 comparator) ==\n");
  std::printf("%-18s %-12s %-10s %-8s %s\n", "Program", "Verdict", "AbsStates",
              "Time", "Note");
  for (const Row &R : Fig7) {
    TermManager M;
    ProtocolBundle B = R.Make(M);
    baselines::CounterAbsResult CR =
        baselines::checkByCounterAbstraction(*B.Sys);
    const char *V = CR.Verdict == baselines::CounterVerdict::Safe ? "safe"
                    : CR.Verdict == baselines::CounterVerdict::Unknown
                        ? "unknown"
                        : "unsupported";
    std::printf("%-18s %-12s %-10u %-8.2f %s\n", R.Name, V,
                CR.NumAbstractStates, CR.Seconds, CR.Note.c_str());
  }

  std::vector<Row> Fig9 = {
      {"barrier", protocols::makeBarrier},
      {"central barrier", protocols::makeCentralBarrier},
      {"work stealing", exampleFile("work_stealing")},
      {"dining philosophers", protocols::makeDiningPhilosophers},
      {"tree traverse", exampleFile("tree_traverse")},
  };
  std::printf("\n== Interval-AI baseline (Fig. 9 I-column stand-in) ==\n");
  std::printf("%-20s %-12s %-8s %-6s %s\n", "Program", "Verdict", "Classes",
              "Iter", "Note");
  for (const Row &R : Fig9) {
    TermManager M;
    ProtocolBundle B = R.Make(M);
    baselines::IntervalAIResult IR = baselines::checkByIntervalAI(*B.Sys);
    const char *V = IR.Verdict == baselines::IntervalVerdict::Safe ? "safe"
                    : IR.Verdict == baselines::IntervalVerdict::Unknown
                        ? "unknown"
                        : "unsupported";
    std::printf("%-20s %-12s %-8u %-6u %s\n", R.Name, V, IR.NumClasses,
                IR.NumIterations, IR.Note.c_str());
  }
  return 0;
}
