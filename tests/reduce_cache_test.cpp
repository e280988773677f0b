//===- tests/reduce_cache_test.cpp - Reduction memoization tests --------------===//
//
// Part of sharpie. The ReduceCache memoizes reduceToGround per (input
// formula, axiom configuration, counters, extra index terms), keyed by
// content: rebuilding the same obligation must hit, and a hit equals the
// stored result up to its re-skolemized "!" names; changing any axiom
// knob or auxiliary input must miss. Hits and misses are read off the
// reduce_cache_* counters of a local tracer, the cache's only tally.
//
//===----------------------------------------------------------------------===//

#include "engine/Reduce.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

using namespace sharpie;
using namespace sharpie::logic;

namespace {

class ReduceCacheTest : public ::testing::Test {
protected:
  Term obligation() {
    Term Card = M.mkCard(T, M.mkGe(M.mkRead(F, T), M.mkInt(2)));
    return M.mkAnd({M.mkForall({T}, M.mkEq(M.mkRead(F, T), M.mkInt(1))),
                    M.mkEq(Card, KV), M.mkGe(KV, M.mkInt(1))});
  }

  engine::ReduceResult reduce(engine::ReduceCache &Cache,
                              const engine::ReduceOptions &Opts,
                              Term Psi) {
    std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
    return engine::reduceToGroundCached(&Cache, M, Psi, Opts, Oracle.get(),
                                        {}, {}, TB);
  }

  int64_t counter(const char *Name) const {
    obs::MetricsSummary MS = Tr.metrics();
    const int64_t *V = MS.counter(Name);
    return V ? *V : 0;
  }
  int64_t hits() const { return counter("reduce_cache_hits"); }
  int64_t misses() const { return counter("reduce_cache_misses"); }

  obs::Tracer Tr;
  obs::TraceBuffer *TB = Tr.worker(0);
  TermManager M;
  Term T = M.mkVar("t", Sort::Tid);
  Term F = M.mkVar("f", Sort::Array);
  Term KV = M.mkVar("k", Sort::Int);
};

TEST_F(ReduceCacheTest, RepeatedObligationHits) {
  engine::ReduceCache Cache;
  engine::ReduceOptions Opts;
  engine::ReduceResult R1 = reduce(Cache, Opts, obligation());
  EXPECT_EQ(hits(), 0);
  EXPECT_EQ(misses(), 1);

  // Rebuilding the obligation from scratch gives the same content, so the
  // second reduction is a lookup. The hit re-skolemizes the entry's "!"
  // variables into fresh ones, so it equals the stored result up to
  // those names: same size, instances and deferred count.
  engine::ReduceResult R2 = reduce(Cache, Opts, obligation());
  EXPECT_EQ(hits(), 1);
  EXPECT_EQ(misses(), 1);
  EXPECT_EQ(logic::termSize(R1.Ground), logic::termSize(R2.Ground));
  EXPECT_EQ(R1.NumInstances, R2.NumInstances);
  EXPECT_EQ(R1.NumDeferred, R2.NumDeferred);
}

TEST_F(ReduceCacheTest, AxiomConfigChangeMisses) {
  engine::ReduceCache Cache;
  engine::ReduceOptions Opts;
  reduce(Cache, Opts, obligation());

  // Any option that changes the reduction's output must change the key.
  engine::ReduceOptions VennOpts = Opts;
  VennOpts.Card.Venn = true;
  reduce(Cache, VennOpts, obligation());
  EXPECT_EQ(hits(), 0);
  EXPECT_EQ(misses(), 2);

  engine::ReduceOptions ModeOpts = Opts;
  ModeOpts.Mode = engine::ReduceMode::Manifest;
  reduce(Cache, ModeOpts, obligation());
  EXPECT_EQ(misses(), 3);

  // The original configuration still hits its old entry.
  reduce(Cache, Opts, obligation());
  EXPECT_EQ(hits(), 1);
  EXPECT_EQ(misses(), 3);
}

TEST_F(ReduceCacheTest, DistinctObligationsMiss) {
  engine::ReduceCache Cache;
  engine::ReduceOptions Opts;
  reduce(Cache, Opts, obligation());
  reduce(Cache, Opts, M.mkAnd(obligation(), M.mkGe(KV, M.mkInt(2))));
  EXPECT_EQ(hits(), 0);
  EXPECT_EQ(misses(), 2);
}

TEST_F(ReduceCacheTest, ExternalCountersPartOfKey) {
  engine::ReduceCache Cache;
  engine::ReduceOptions Opts;
  Term N = M.mkVar("n", Sort::Int);
  std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
  engine::reduceToGroundCached(&Cache, M, obligation(), Opts, Oracle.get(),
                               {}, {}, TB);
  engine::reduceToGroundCached(&Cache, M, obligation(), Opts, Oracle.get(),
                               {{N, M.mkTrue()}}, {}, TB);
  EXPECT_EQ(hits(), 0);
  EXPECT_EQ(misses(), 2);

  // Same counters again: hit.
  engine::reduceToGroundCached(&Cache, M, obligation(), Opts, Oracle.get(),
                               {{N, M.mkTrue()}}, {}, TB);
  EXPECT_EQ(hits(), 1);
}

TEST_F(ReduceCacheTest, NullCacheIsPlainCall) {
  engine::ReduceOptions Opts;
  std::unique_ptr<smt::SmtSolver> Oracle = smt::makeZ3Solver(M);
  engine::ReduceResult R = engine::reduceToGroundCached(
      nullptr, M, obligation(), Opts, Oracle.get());
  EXPECT_FALSE(R.Ground.isNull());
}

// Within one synthesis run the cache never hits -- the ranked tuple
// enumeration is duplicate-free and each clause formula embeds its tuple's
// measurement terms, so every reduction input is distinct (the all-zero
// cache_hits columns in BENCH_PR1/PR2 are by construction, not a keying
// bug; see ReduceCache's doc). Hits come from *sharing* a cache across
// runs, which SynthOptions::ReuseReduceCache enables. Both halves pinned
// here.
TEST(ReduceCacheSharing, HitsComeFromCrossRunSharingOnly) {
  logic::TermManager M;
  protocols::ProtocolBundle B = protocols::makeIncrement(M);
  engine::ReduceCache Shared;
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 1; // The parallel twin lives in synth_parallel_test.
  Opts.ReuseReduceCache = &Shared;

  synth::SynthResult R1 = synth::synthesize(*B.Sys, Opts);
  ASSERT_TRUE(R1.Verified) << R1.Note;
  EXPECT_EQ(R1.Stats.CacheHits, 0u) << "single-run hits must be impossible";
  EXPECT_GT(R1.Stats.CacheMisses, 0u);

  // Re-verification replays the same obligations -- every attempt builds
  // them in a fresh world, so even their skolem names repeat -- and every
  // lookup lands.
  synth::SynthResult R2 = synth::synthesize(*B.Sys, Opts);
  ASSERT_TRUE(R2.Verified) << R2.Note;
  EXPECT_GT(R2.Stats.CacheHits, 0u) << "second run must reuse reductions";
  EXPECT_EQ(R2.Stats.CacheMisses, 0u);
  EXPECT_EQ(R2.Stats.CacheHits, R1.Stats.CacheMisses);
}

} // namespace
