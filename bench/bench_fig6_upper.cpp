//===- bench/bench_fig6_upper.cpp - Paper Figure 6, upper table ----------------===//
//
// Part of sharpie. Reproduces the upper table of Fig. 6: cardinality-based
// reasoning on the examples from [Farzan et al. 2014] plus the cache and
// garbage-collection case studies.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;

int main() {
  std::vector<RowResult> Rows;
  Rows.push_back(runBundle("intro", exampleFile("intro"),
                           {"1.2s", "", "#{t | pc(t) = 2}"}));
  Rows.push_back(runBundle("bluetooth", exampleFile("bluetooth"),
                           {"1.6s", "", "#{t | pc(t) = 2}"}));
  Rows.push_back(runBundle("tree traverse", exampleFile("tree_traverse"),
                           {"4.2s", "", "- (cardinality-free)"}));
  Rows.push_back(runBundle("cache", exampleFile("cache"),
                           {"0.7s", "", "#{t | pc(t) >= 3}"}));
  Rows.push_back(runBundle("garbage collection",
                           exampleFile("garbage_collection"),
                           {"10.1s", "", "#{t | 2 <= pc(t) <= 4}"}));
  return printTable("Figure 6 (upper): cardinality-based reasoning", Rows)
             ? 0
             : 1;
}
