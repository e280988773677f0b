//===- bench/bench_fig6_lower.cpp - Paper Figure 6, lower table ----------------===//
//
// Part of sharpie. Reproduces the lower table of Fig. 6: the three case
// studies of Sec. 2 (ticket lock, filter lock, one-third rule), all of
// which exercise the Venn decomposition of Sec. 5.2.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;

int main() {
  std::vector<RowResult> Rows;
  Rows.push_back(runBundle(
      "ticket lock", exampleFile("ticket_lock"),
      {"20.9s", "",
       "#{t | m(t) <= s /\\ pc(t) = 2}, #{t | pc(t) = 3}, #{t | m(t) = q}"}));
  Rows.push_back(runBundle("filter lock", exampleFile("filter_lock"),
                           {"27.5s", "", "#{t | lv(t) >= q}"}));
  Rows.push_back(runBundle("one-third rule", protocols::makeOneThird,
                           {"0.8s", "", "#{t | x(t) = x(q)}"}));
  return printTable("Figure 6 (lower): case studies", Rows) ? 0 : 1;
}
