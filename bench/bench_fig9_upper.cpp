//===- bench/bench_fig9_upper.cpp - Paper Figure 9, upper table ------------------===//
//
// Part of sharpie. Reproduces the upper table of Fig. 9: cardinality-free
// reasoning compared with [Abdulla et al. 2007] on bakery-style mutual
// exclusion protocols (templates with two Tid quantifiers).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;

int main() {
  std::vector<RowResult> Rows;
  Rows.push_back(runBundle("Simplified Bakery",
                           exampleFile("simplified_bakery"),
                           {"0.4s", "0.8s (real) / 0.3s (int)"}));
  Rows.push_back(runBundle("Lamport's Bakery", protocols::makeLamportBakery,
                           {"0.5s", "2.1s (real) / 2s (int)"},
                           /*TimeBudgetSeconds=*/300));
  Rows.push_back(runBundle("Bogus Bakery", protocols::makeBogusBakery,
                           {"0.6s", "0.8s (real) / 11s (int)"}));
  Rows.push_back(runBundle("Ticket Mutex", protocols::makeTicketMutex,
                           {"0.5s", "0.3s (real) / 1.6s (int)"}));
  return printTable("Figure 9 (upper): comparison with [Abdulla et al. 2007]",
                    Rows, "[Abdulla] (paper)")
             ? 0
             : 1;
}
