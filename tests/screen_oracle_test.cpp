//===- tests/screen_oracle_test.cpp - The bounded-N screen's oracle -----------===//
//
// Part of sharpie. The bounded-N tuple screen (DESIGN.md Sec. 4) may only
// reject a tuple that cannot verify. For simp-bar, max, parent-child and
// increment at 1 worker, every tuple the screen rejected is run alone
// through the full pipeline -- SynthOptions::FixedSetBodies makes it
// rank 1, which is never screened -- and must fail; and a winner ranked 2
// or later must have passed the screen. A search worker keeps one screen
// across its tuples, so for simp-bar and max the screen's verdicts must
// not depend on the order it sees the tuples in, nor on a failed run in
// between.
//
//===----------------------------------------------------------------------===//

#include "bounded/Screen.h"
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

/// A 1-worker search of a bundle, read off its trace.
struct SearchTrace {
  synth::SynthResult Res;
  std::vector<std::string> Tuples;   ///< Tuple span details, rank order.
  std::vector<bool> Screened;        ///< Tuples[I] was screened.
  std::vector<std::string> Rejected; ///< The tuples the screen rejected.
};

SearchTrace traceSearch(front::FrontBundle &B) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  synth::SynthOptions O = synth::optionsFor(B);
  O.NumWorkers = 1;
  O.Trace = &T;
  SearchTrace Out;
  Out.Res = synth::synthesize(*B.Sys, O);
  EXPECT_TRUE(Out.Res.Verified) << Out.Res.Note;

  // Worker 0 of the search is trace rank 1; its tuple spans come in rank
  // order. The screen's teardown after the last tuple screens nothing.
  for (const obs::Event &E : T.mergedEvents()) {
    if (E.Worker != 1)
      continue;
    if (E.Kind == obs::EventKind::SpanBegin &&
        std::strcmp(E.Name, "tuple") == 0) {
      Out.Tuples.push_back(E.Detail);
      Out.Screened.push_back(false);
    } else if (E.Kind == obs::EventKind::SpanBegin &&
               std::strcmp(E.Name, "screen") == 0 &&
               E.Detail != "teardown") {
      EXPECT_GE(Out.Tuples.size(), 2u) << "rank 1 must not be screened";
      Out.Screened.back() = true;
    } else if (E.Kind == obs::EventKind::Instant &&
               std::strcmp(E.Name, "screen_reject") == 0) {
      EXPECT_NE(E.Detail.find("N=" + std::to_string(B.Explicit.NumThreads)),
                std::string::npos)
          << E.Detail;
      Out.Rejected.push_back(Out.Tuples.back());
    }
  }
  EXPECT_EQ(static_cast<size_t>(Out.Res.Stats.TuplesScreened),
            Out.Rejected.size());
  return Out;
}

/// Runs \p B at 1 worker, replays every rejected tuple alone, and returns
/// the number of rejections.
size_t checkScreen(const std::string &Name, front::FrontBundle &B) {
  SCOPED_TRACE(Name);
  SearchTrace Run = traceSearch(B);
  const synth::SynthResult &Res = Run.Res;
  const std::vector<std::string> &Tuples = Run.Tuples;
  const std::vector<std::string> &Rejected = Run.Rejected;
  const std::vector<bool> &Screened = Run.Screened;

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

/// One screen verdict per tuple: 'R'eject, 'P'ass or 'U'nknown.
char verdictChar(const bounded::Screen::Result &R) {
  switch (R.V) {
  case bounded::Screen::Verdict::Reject:
    return 'R';
  case bounded::Screen::Verdict::Pass:
    return 'P';
  case bounded::Screen::Verdict::Unknown:
    return 'U';
  }
  return '?';
}

/// The tuples of rank 2 and later that a 1-worker search of a bundle
/// screens, as the closed invariants of the atoms it screens them on,
/// and the search's verdict on each ('R' or 'P').
struct ScreenedTuples {
  std::vector<std::vector<Term>> Invs;
  std::string Searched;
};

ScreenedTuples screenedTuples(front::FrontBundle &B) {
  SearchTrace Run = traceSearch(B);
  logic::TermManager &M = B.Sys->manager();
  synth::Formals F = synth::formalsFor(M, B.Shape);
  std::vector<synth::SetCandidate> Cands =
      synth::enumerateSetBodies(*B.Sys, F);
  std::vector<Term> Pool = synth::enumerateInvAtoms(*B.Sys, F);
  // The search's pre-filter states: at most 400, evenly spaced.
  explct::ExplicitResult ER = explct::explore(*B.Sys, B.Explicit);
  std::vector<sys::ParamSystem::State> States;
  size_t Step = std::max<size_t>(1, ER.States.size() / 400);
  for (size_t I = 0; I < ER.States.size(); I += Step)
    States.push_back(ER.States[I]);

  ScreenedTuples Out;
  for (size_t R = 1; R < Run.Tuples.size(); ++R) {
    std::vector<Term> Bodies = bodiesOf(Run.Tuples[R], Cands);
    EXPECT_EQ(Bodies.size(), B.Shape.NumSets) << Run.Tuples[R];
    std::vector<Term> &TupleInvs = Out.Invs.emplace_back();
    for (Term A : synth::prefilterAtoms(M, F, B.QGuard, Pool, Bodies, States))
      TupleInvs.push_back(synth::closedInvariant(M, F, B.QGuard, Bodies, {A}));
    bool Rejected = std::find(Run.Rejected.begin(), Run.Rejected.end(),
                              Run.Tuples[R]) != Run.Rejected.end();
    Out.Searched += Rejected ? 'R' : 'P';
  }
  return Out;
}

/// Drives \p B's screened tuples through one screen per tuple, one
/// screen in rank order and one in reverse order: all three must give
/// every tuple the verdict the search gave it. Halfway through the
/// rank-order pass, a tuple with no exact encoding and an aborted run
/// must leave the screen usable and the next verdict unchanged.
void expectOrderIndependent(const std::string &Name, front::FrontBundle &B) {
  SCOPED_TRACE(Name);
  const auto [Invs, Searched] = screenedTuples(B);
  ASSERT_FALSE(Invs.empty());
  logic::TermManager &M = B.Sys->manager();

  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(1);
  const unsigned N = B.Explicit.NumThreads;
  auto Never = [] { return false; };
  auto Always = [] { return true; };

  std::string Fresh;
  for (const std::vector<Term> &I : Invs) {
    bounded::Screen S(*B.Sys, N, /*TimeoutMs=*/0);
    Fresh += verdictChar(S.run(I, TB, Never));
  }

  std::string Forward;
  bounded::Screen One(*B.Sys, N, /*TimeoutMs=*/0);
  Term Q = M.mkVar("order$q", logic::Sort::Int);
  Term G = M.mkVar("order$g", logic::Sort::Int);
  const std::vector<Term> NoEncoding{M.mkForall({Q}, M.mkLe(Q, G))};
  for (size_t K = 0; K < Invs.size(); ++K) {
    if (K == Invs.size() / 2) {
      EXPECT_EQ(verdictChar(One.run(NoEncoding, TB, Never)), 'U');
      EXPECT_EQ(verdictChar(One.run(Invs[K], TB, Always)), 'U');
      ASSERT_TRUE(One.usable());
    }
    Forward += verdictChar(One.run(Invs[K], TB, Never));
    ASSERT_TRUE(One.usable()) << "after tuple " << K + 2;
  }

  std::string Backward(Invs.size(), '?');
  bounded::Screen Rev(*B.Sys, N, /*TimeoutMs=*/0);
  for (size_t K = Invs.size(); K-- > 0;) {
    Backward[K] = verdictChar(Rev.run(Invs[K], TB, Never));
    ASSERT_TRUE(Rev.usable()) << "after tuple " << K + 2;
  }

  EXPECT_EQ(Fresh, Searched);
  EXPECT_EQ(Forward, Fresh);
  EXPECT_EQ(Backward, Fresh);
  // One context per fresh screen, one each for the two long-lived ones.
  const obs::MetricsSummary Metrics = T.metrics();
  const int64_t *Contexts = Metrics.counter("smt_contexts");
  ASSERT_NE(Contexts, nullptr);
  EXPECT_EQ(*Contexts, static_cast<int64_t>(Invs.size()) + 2);
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

// The verdicts do not depend on the screen's history.
TEST(ScreenOracle, SimpBarVerdictsIgnoreOrder) {
  logic::TermManager M;
  front::FrontBundle B = protocols::makeSimpBar(M, /*Barrier=*/true);
  expectOrderIndependent("simp-bar", B);
}

TEST(ScreenOracle, MaxVerdictsIgnoreOrder) {
  logic::TermManager M;
  front::FrontBundle B = test::loadExample(M, "max");
  expectOrderIndependent("max", B);
}

// A check that runs out of time leaves the screen unusable. Like the
// search, the test then builds a new screen for the next tuple, and every
// verdict it does get is the search's.
TEST(ScreenOracle, SimpBarTimeoutsDropTheScreen) {
  logic::TermManager M;
  front::FrontBundle B = protocols::makeSimpBar(M, /*Barrier=*/true);
  const auto [Invs, Searched] = screenedTuples(B);
  ASSERT_FALSE(Invs.empty());
  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(1);
  std::unique_ptr<bounded::Screen> S;
  unsigned Dropped = 0;
  for (size_t K = 0; K < Invs.size(); ++K) {
    if (!S)
      S = std::make_unique<bounded::Screen>(*B.Sys, B.Explicit.NumThreads,
                                            /*TimeoutMs=*/1);
    bounded::Screen::Result R = S->run(Invs[K], TB, [] { return false; });
    if (R.V == bounded::Screen::Verdict::Unknown)
      EXPECT_FALSE(S->usable()) << "tuple " << K + 2 << ": " << R.Detail;
    else
      EXPECT_EQ(verdictChar(R), Searched[K]) << "tuple " << K + 2;
    if (!S->usable()) {
      S.reset();
      ++Dropped;
    }
  }
  EXPECT_GT(Dropped, 0u) << "no check ran out of its 1 ms";
}

TEST(ScreenOracle, IncrementWinnerPasses) {
  logic::TermManager M;
  front::FrontBundle B = test::loadExample(M, "increment");
  checkScreen("increment", B);
}
