//===- bench/bench_fig9_lower.cpp - Paper Figure 9, lower table -------------------===//
//
// Part of sharpie. Reproduces the lower table of Fig. 9: comparison with
// [Sanchez et al. 2012] (interval / polytope / octagon timings reprinted
// from the paper). The robot swarm scales over grid sizes; the paper's
// tool times out on 4x4.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;

int main() {
  using logic::TermManager;
  std::vector<RowResult> Rows;
  Rows.push_back(runBundle("barrier", protocols::makeBarrier,
                           {"0.4s", "I 0.1s / P 0.1s / O 0.1s"}));
  Rows.push_back(runBundle("central barrier", protocols::makeCentralBarrier,
                           {"0.4s", "I 0.1s / P 1.1s / O 6.2s"}));
  Rows.push_back(runBundle("work stealing", exampleFile("work_stealing"),
                           {"0.5s", "I 0.1s / P 0.1s / O 6.2s"}));
  Rows.push_back(runBundle("dining philosophers",
                           protocols::makeDiningPhilosophers,
                           {"8.2s", "I 0.1s / P 6.3s / O 20s"}));
  struct Grid {
    int R, C;
    const char *PaperTime;
  };
  const Grid Grids[] = {
      {2, 2, "2.8s"}, {2, 3, "16.1s"}, {3, 3, "34.0s"}, {4, 4, "TO"}};
  for (const Grid &G : Grids) {
    std::string Name =
        "robot " + std::to_string(G.R) + "x" + std::to_string(G.C);
    Rows.push_back(runBundle(Name,
                             [G](TermManager &M) {
                               return protocols::makeRobot(M, G.R, G.C);
                             },
                             {G.PaperTime}, /*TimeBudgetSeconds=*/120));
  }
  return printTable("Figure 9 (lower): comparison with [Sanchez et al. 2012]",
                    Rows, "I/P/O (paper)")
             ? 0
             : 1;
}
