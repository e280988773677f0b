//===- tests/screen_oracle_test.cpp - The bounded-N screen's oracle -----------===//
//
// Part of sharpie. The bounded-N tuple screen (DESIGN.md Sec. 4) may only
// reject a tuple that cannot verify. For simp-bar, max, parent-child and
// increment at 1 worker, every tuple the screen rejected is run alone
// through the full pipeline -- SynthOptions::FixedSetBodies makes it
// rank 1, which is never screened -- and must fail; and a winner ranked 2
// or later must have passed the screen.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"
#include "protocols/Protocols.h"
#include "synth/Synth.h"

#include "ExampleProtocols.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace sharpie;
using logic::Term;

namespace {

/// The "tuple" span detail of \p Bodies: "#{t | b1} #{t | b2} ...".
std::string render(const std::vector<Term> &Bodies) {
  std::string D;
  for (Term B : Bodies)
    D += (D.empty() ? "" : " ") + ("#{t | " + logic::toString(B) + "}");
  return D;
}

/// The set bodies whose rendering \p Detail lists, in its order.
std::vector<Term> bodiesOf(const std::string &Detail,
                           const std::vector<synth::SetCandidate> &Cands) {
  std::vector<std::pair<size_t, Term>> Found;
  for (const synth::SetCandidate &C : Cands) {
    size_t Pos = Detail.find(render({C.Body}));
    if (Pos != std::string::npos)
      Found.push_back({Pos, C.Body});
  }
  std::sort(Found.begin(), Found.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  std::vector<Term> Out;
  for (const auto &[Pos, Body] : Found)
    Out.push_back(Body);
  return Out;
}

/// Runs \p B at 1 worker, replays every rejected tuple alone, and returns
/// the number of rejections.
size_t checkScreen(const std::string &Name, front::FrontBundle &B) {
  SCOPED_TRACE(Name);
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  synth::SynthOptions O = synth::optionsFor(B);
  O.NumWorkers = 1;
  O.Trace = &T;
  synth::SynthResult Res = synth::synthesize(*B.Sys, O);
  EXPECT_TRUE(Res.Verified) << Res.Note;

  // Worker 0 of the search is trace rank 1; its tuple spans come in rank
  // order.
  std::vector<std::string> Tuples, Rejected;
  std::vector<bool> Screened;
  for (const obs::Event &E : T.mergedEvents()) {
    if (E.Worker != 1)
      continue;
    if (E.Kind == obs::EventKind::SpanBegin &&
        std::strcmp(E.Name, "tuple") == 0) {
      Tuples.push_back(E.Detail);
      Screened.push_back(false);
    } else if (E.Kind == obs::EventKind::SpanBegin &&
               std::strcmp(E.Name, "screen") == 0) {
      EXPECT_GE(Tuples.size(), 2u) << "rank 1 must not be screened";
      Screened.back() = true;
    } else if (E.Kind == obs::EventKind::Instant &&
               std::strcmp(E.Name, "screen_reject") == 0) {
      EXPECT_NE(E.Detail.find("N=" + std::to_string(B.Explicit.NumThreads)),
                std::string::npos)
          << E.Detail;
      Rejected.push_back(Tuples.back());
    }
  }
  EXPECT_EQ(static_cast<size_t>(Res.Stats.TuplesScreened), Rejected.size());

  // The winner passed the screen when it had to take it.
  std::string Winner = render(Res.SetBodies);
  auto It = std::find(Tuples.begin(), Tuples.end(), Winner);
  EXPECT_NE(It, Tuples.end()) << Winner;
  if (It != Tuples.end() && It != Tuples.begin()) {
    EXPECT_TRUE(Screened[static_cast<size_t>(It - Tuples.begin())])
        << "winner " << Winner << " skipped the screen";
  }
  EXPECT_EQ(std::find(Rejected.begin(), Rejected.end(), Winner),
            Rejected.end())
      << "winner " << Winner << " was rejected";

  // Every rejected tuple, alone and unscreened, fails the full pipeline.
  logic::TermManager &M = B.Sys->manager();
  std::vector<synth::SetCandidate> Cands =
      synth::enumerateSetBodies(*B.Sys, synth::formalsFor(M, B.Shape));
  for (const std::string &Detail : Rejected) {
    std::vector<Term> Bodies = bodiesOf(Detail, Cands);
    if (Bodies.size() != B.Shape.NumSets) {
      ADD_FAILURE() << "cannot rebuild the tuple " << Detail;
      continue;
    }
    synth::SynthOptions Alone = synth::optionsFor(B);
    Alone.NumWorkers = 1;
    Alone.FixedSetBodies = Bodies;
    synth::SynthResult R = synth::synthesize(*B.Sys, Alone);
    EXPECT_FALSE(R.Verified) << "the screen rejected a tuple that verifies: "
                             << Detail;
    EXPECT_EQ(R.Stats.TuplesScreened, 0u);
  }
  return Rejected.size();
}

} // namespace

// simp-bar and max: the screen rejects most of their failing tuples.
TEST(ScreenOracle, SimpBarRejectionsFailAlone) {
  logic::TermManager M;
  front::FrontBundle B = protocols::makeSimpBar(M, /*Barrier=*/true);
  EXPECT_GT(checkScreen("simp-bar", B), 0u);
}

TEST(ScreenOracle, MaxRejectionsFailAlone) {
  logic::TermManager M;
  front::FrontBundle B = test::loadExample(M, "max");
  EXPECT_GT(checkScreen("max", B), 0u);
}

// parent-child and increment win on rank 2, which must pass the screen.
TEST(ScreenOracle, ParentChildWinnerPasses) {
  logic::TermManager M;
  front::FrontBundle B = protocols::makeParentChild(M, /*Barrier=*/true);
  checkScreen("parent-child", B);
}

TEST(ScreenOracle, IncrementWinnerPasses) {
  logic::TermManager M;
  front::FrontBundle B = test::loadExample(M, "increment");
  checkScreen("increment", B);
}
