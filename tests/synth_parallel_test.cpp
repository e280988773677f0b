//===- tests/synth_parallel_test.cpp - Parallel-search determinism ------------===//
//
// Part of sharpie. The worker count must be a pure performance knob: for
// any width, the synthesized invariant (set bodies and atoms) must be the
// 1-worker one, because results merge by rank and every tuple attempt
// runs the deterministic pipeline in a fresh world of its own. The same
// fresh worlds make a rerun repeat exactly. See DESIGN.md, "Parallel
// search & determinism".
//
//===----------------------------------------------------------------------===//

#include "ExampleProtocols.h"
#include "engine/Reduce.h"
#include "logic/TermOps.h"
#include "obs/Export.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace sharpie;
using namespace sharpie::protocols;

namespace {

struct RunOutput {
  bool Verified = false;
  std::vector<std::string> SetBodies;
  std::vector<std::string> Atoms;
  std::string Note;
  synth::SynthStats Stats;
};

/// Runs bundle \p B with the given worker count and renders the result to
/// strings, so runs over distinct TermManagers compare structurally.
RunOutput runOn(const ProtocolBundle &B, unsigned NumWorkers) {
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = NumWorkers;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  RunOutput Out;
  Out.Verified = R.Verified;
  for (logic::Term S : R.SetBodies)
    Out.SetBodies.push_back(logic::toString(S));
  for (logic::Term A : R.Atoms)
    Out.Atoms.push_back(logic::toString(A));
  Out.Note = R.Note;
  Out.Stats = R.Stats;
  return Out;
}

/// runOn over a fresh TermManager.
RunOutput runWith(BundleFactory Make, unsigned NumWorkers) {
  logic::TermManager M;
  return runOn(Make(M), NumWorkers);
}

void expectIdentical(BundleFactory Make, const char *Name) {
  RunOutput Serial = runWith(Make, 1);
  RunOutput Par = runWith(Make, 4);
  ASSERT_TRUE(Serial.Verified) << Name << ": " << Serial.Note;
  ASSERT_TRUE(Par.Verified) << Name << ": " << Par.Note;
  EXPECT_EQ(Serial.SetBodies, Par.SetBodies) << Name;
  // The search clamps workers to the tuple count, so 4 is an upper bound
  // (ticket_mutex has a single coverage-satisfying tuple, for instance).
  EXPECT_GE(Par.Stats.NumWorkers, 1u) << Name;
  EXPECT_LE(Par.Stats.NumWorkers, 4u) << Name;
  EXPECT_EQ(Serial.Stats.NumWorkers, 1u) << Name;
  EXPECT_EQ(Serial.Atoms, Par.Atoms) << Name;
}

TEST(SynthParallel, TicketMutexIdenticalInvariant) {
  expectIdentical(makeTicketMutex, "ticket_mutex");
}

TEST(SynthParallel, TicketLockIdenticalInvariant) {
  expectIdentical(
      [](logic::TermManager &M) {
        return test::loadExample(M, "ticket_lock");
      },
      "ticket_lock");
}

TEST(SynthParallel, OneThirdIdenticalInvariant) {
  expectIdentical(makeOneThird, "one_third");
}

// A 1-worker run reports its width and a measured utilization: the one
// worker is busy for part of the search wall time, world building
// included, never more than all of it.
TEST(SynthParallel, SerialStatsStayHonest) {
  RunOutput Serial = runWith(makeTicketMutex, 1);
  ASSERT_TRUE(Serial.Verified) << Serial.Note;
  EXPECT_EQ(Serial.Stats.NumWorkers, 1u);
  EXPECT_GT(Serial.Stats.TuplesTried, 0u);
  EXPECT_GT(Serial.Stats.WorkerUtilization, 0.0);
  EXPECT_LE(Serial.Stats.WorkerUtilization, 1.0);
}

// A tuple's outcome must not depend on what ran before it in the caller's
// manager: every attempt builds its own world, so a second run on the
// same TermManager repeats the first one exactly -- tuples, SMT checks and
// invariant -- and both match a run on a fresh manager.
TEST(SynthParallel, RerunOnOneManagerRepeatsExactly) {
  for (BundleFactory Make : {makeTicketMutex, makeBarrier}) {
    logic::TermManager M;
    ProtocolBundle B = Make(M);
    RunOutput First = runOn(B, 1);
    RunOutput Second = runOn(B, 1);
    RunOutput Fresh = runWith(Make, 1);
    ASSERT_TRUE(First.Verified) << First.Note;
    for (const RunOutput *R : {&Second, &Fresh}) {
      EXPECT_EQ(R->Stats.TuplesTried, First.Stats.TuplesTried);
      EXPECT_EQ(R->Stats.SmtChecks, First.Stats.SmtChecks);
      EXPECT_EQ(R->SetBodies, First.SetBodies);
      EXPECT_EQ(R->Atoms, First.Atoms);
    }
  }
}

// Oversubscription beyond the tuple count must clamp, not deadlock. The
// increment program has two candidate tuples (the first fails, the second
// verifies), so this genuinely runs multiple workers and exercises the
// rank merge; it is also the fast case the ThreadSanitizer ctest entry
// runs (tests/CMakeLists.txt).
TEST(SynthParallel, MoreWorkersThanTuples) {
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 64;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  EXPECT_TRUE(R.Verified) << R.Note;
  EXPECT_GE(R.Stats.NumWorkers, 2u);
  EXPECT_LE(R.Stats.NumWorkers, 64u);
}

// A tracer observing the parallel search: every worker -- the calling
// thread as worker 0 among them -- emits into its own rank's buffer
// concurrently and the leveled log sink is hit from all of them, so this
// is the race surface the ThreadSanitizer ctest entry runs
// (tests/CMakeLists.txt). Also pins the rank scheme -- driver on rank 0,
// worker W on rank W+1 -- and that the merged metrics survive the fold.
TEST(SynthParallel, TracerFourWorkers) {
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  Cfg.Level = obs::LogLevel::Debug;
  std::FILE *Sink = std::fopen("/dev/null", "w");
  ASSERT_NE(Sink, nullptr);
  Cfg.LogStream = Sink;
  obs::Tracer T(Cfg);

  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 4;
  Opts.Trace = &T;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  EXPECT_TRUE(R.Verified) << R.Note;

  std::set<unsigned> Ranks;
  for (const obs::Event &E : T.mergedEvents())
    Ranks.insert(E.Worker);
  EXPECT_TRUE(Ranks.count(0)) << "driver events missing from rank 0";
  EXPECT_GE(Ranks.size(), 2u) << "no worker rank emitted events";
  for (unsigned W : Ranks)
    EXPECT_LE(W, Opts.NumWorkers) << "rank beyond W+1 scheme";

  const int64_t *Checks = R.Stats.Metrics.counter("smt_checks");
  ASSERT_NE(Checks, nullptr);
  EXPECT_GT(*Checks, 0);
  EXPECT_NE(R.Stats.Metrics.hist("smt_ms"), nullptr);

  // The tracer saw this run only, so each scalar count is its counter's
  // total over all ranks (an absent counter reads as 0).
  auto Ctr = [&](const char *Name) -> int64_t {
    const int64_t *V = R.Stats.Metrics.counter(Name);
    return V ? *V : 0;
  };
  EXPECT_EQ(int64_t(R.Stats.CacheMisses), Ctr("reduce_cache_misses"));
  EXPECT_EQ(int64_t(R.Stats.CacheHits), Ctr("reduce_cache_hits"));
  EXPECT_EQ(int64_t(R.Stats.SmtChecks), Ctr("smt_checks"));
  EXPECT_EQ(int64_t(R.Stats.TuplesTried), Ctr("tuples_tried"));
  EXPECT_EQ(int64_t(R.Stats.TuplesScreened), Ctr("tuples_screened"));
  std::fclose(Sink);
}

// A caller-held ReduceCache handed to the 4-worker search: all workers
// consult it under its mutex, entries live in the cache's own manager,
// and a re-verification run hits the reductions the first run's attempts
// stored (every attempt's world is built from scratch, so without the
// cache the second run would re-reduce everything). Results must stay
// byte-identical across runs -- cache-hit grounds differ from fresh ones
// only in re-skolemized witness names, which the semantic fixpoint
// cannot observe. This test doubles as the TSan entry for the cache
// locking (tests/CMakeLists.txt).
TEST(SynthParallel, SharedReduceCacheHitsAcrossRunsFourWorkers) {
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  engine::ReduceCache Shared;
  auto Run = [&] {
    synth::SynthOptions Opts = synth::optionsFor(B);
    Opts.NumWorkers = 4;
    Opts.ReuseReduceCache = &Shared;
    synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
    RunOutput Out;
    Out.Verified = R.Verified;
    for (logic::Term S : R.SetBodies)
      Out.SetBodies.push_back(logic::toString(S));
    for (logic::Term A : R.Atoms)
      Out.Atoms.push_back(logic::toString(A));
    Out.Note = R.Note;
    Out.Stats = R.Stats;
    return Out;
  };

  RunOutput R1 = Run();
  ASSERT_TRUE(R1.Verified) << R1.Note;
  EXPECT_EQ(R1.Stats.CacheHits, 0u) << "single-run hits must be impossible";
  EXPECT_GT(R1.Stats.CacheMisses, 0u);

  RunOutput R2 = Run();
  ASSERT_TRUE(R2.Verified) << R2.Note;
  EXPECT_GT(R2.Stats.CacheHits, 0u)
      << "second 4-worker run must reuse the first run's reductions";
  EXPECT_LT(R2.Stats.CacheMisses, R1.Stats.CacheMisses);
  EXPECT_EQ(R1.SetBodies, R2.SetBodies);
  EXPECT_EQ(R1.Atoms, R2.Atoms);
}

} // namespace
