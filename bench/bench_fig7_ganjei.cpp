//===- bench/bench_fig7_ganjei.cpp - Paper Figure 7 -----------------------------===//
//
// Part of sharpie. Reproduces Fig. 7: the comparison with [Ganjei et al.
// 2015] on twelve barrier/lock benchmarks, half of them buggy. The paper's
// comparator timings (PACMAN) are reprinted from the paper; see
// bench_baselines for our own counter-abstraction stand-in.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

using namespace sharpie;
using namespace sharpie::bench;

int main() {
  using logic::TermManager;
  std::vector<RowResult> Rows;
  auto Builder = [](protocols::ProtocolBundle (*Make)(TermManager &, bool),
                    bool Barrier) {
    return [=](TermManager &M) { return Make(M, Barrier); };
  };
  Rows.push_back(
      runBundle("max", exampleFile("max"),
                {"4.2s", "192s",
                 "#{t|pc(t)<=2}, #{t|pc(t)<=3}, #{t|pc(t)>=5}"}));
  Rows.push_back(
      runBundle("max-nobar", exampleFile("max_nobar"), {"7.2s", "24s"}));
  Rows.push_back(runBundle("reader/writer", exampleFile("reader_writer"),
                           {"0.4s", "38s"}));
  Rows.push_back(runBundle("reader/writer-bug",
                           exampleFile("reader_writer_bug"), {"0.5s", "11s"}));
  Rows.push_back(runBundle("parent/child",
                           Builder(protocols::makeParentChild, true),
                           {"1.2s", "73s", "#{t | 2 <= pc(t) <= 3}"}));
  Rows.push_back(runBundle("parent/child-nobar",
                           Builder(protocols::makeParentChild, false),
                           {"1.8s", "3s"}));
  Rows.push_back(
      runBundle("simp-bar", Builder(protocols::makeSimpBar, true),
                {"26.7s", "93s",
                 "#{t|pc(t)<=3}, #{t|pc(t)<=2}, #{t|pc(t)=5}"}));
  Rows.push_back(runBundle("simp-nobar",
                           Builder(protocols::makeSimpBar, false),
                           {"4.2s", "13s"}));
  Rows.push_back(runBundle("dyn-barrier", exampleFile("dyn_barrier"),
                           {"1.3s", "8s", "#{t|pc(t)<=2}, #{t|pc(t)>=4}"}));
  Rows.push_back(runBundle("dyn-barrier-nobar",
                           exampleFile("dyn_barrier_nobar"), {"1.4s", "3s"}));
  Rows.push_back(runBundle("as-many", exampleFile("as_many"),
                           {"0.5s", "62s", "#{t | pc(t) >= 2}"}));
  Rows.push_back(
      runBundle("as-many-bug", exampleFile("as_many_bug"), {"0.7s", "2s"}));
  return printTable("Figure 7: comparison with [Ganjei et al. 2015]", Rows,
                    "PACMAN (paper)")
             ? 0
             : 1;
}
