//===- tests/serve_store_test.cpp - Persistent store robustness tests ---------===//
//
// Part of sharpie. The acceptance contract of serve/Store.h: round trips
// are exact, and every flavor of on-disk damage -- truncation, garbage,
// version skew -- degrades to a cache miss with a counter, never to an
// error or a wrong result. Tier 2 additionally pins the cross-process
// re-keying: entries serialized from one ReduceCache produce hits in a
// fresh one.
//
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace sharpie;
using namespace sharpie::serve;
using logic::Sort;
using logic::Term;

namespace {

class StoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "sharpie_store_" +
          std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string Cmd = "rm -rf '" + Dir + "'";
    ASSERT_EQ(0, std::system(Cmd.c_str()));
  }

  void TearDown() override {
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  front::CanonicalHash hash(uint64_t Hi, uint64_t Lo) { return {Hi, Lo}; }

  ResultStore::T1Entry entry() {
    ResultStore::T1Entry E;
    E.Exit = 0;
    E.Protocol = "increment";
    E.StatsJson = "\"tuples_tried\": 2, \"smt_checks\": 9";
    E.SynthSeconds = 1.25;
    E.Verdict = "VERIFIED in 1.25s (2 tuples, 9 SMT checks; parse 0.2ms)\n"
                "inferred cardinalities:\n  #{t | (2 <= pc(%set_t))}\n"
                "invariant atoms (1):\n  (%k0 <= a)\n";
    return E;
  }

  void corruptT1(const front::CanonicalHash &H, const std::string &Content) {
    std::ofstream Out(Dir + "/t1/" + H.hex() + ".entry",
                      std::ios::binary | std::ios::trunc);
    Out << Content;
  }

  std::string Dir;
};

TEST_F(StoreTest, DisabledStoreMissesAndRefusesWrites) {
  ResultStore S("");
  EXPECT_FALSE(S.enabled());
  EXPECT_FALSE(S.lookup(hash(1, 2)).has_value());
  EXPECT_FALSE(S.store(hash(1, 2), entry()));
}

TEST_F(StoreTest, Tier1RoundTripIsExact) {
  ResultStore S(Dir);
  ResultStore::T1Entry E = entry();
  ASSERT_TRUE(S.store(hash(0xabcd, 0x1234), E));
  auto Hit = S.lookup(hash(0xabcd, 0x1234));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(E.Exit, Hit->Exit);
  EXPECT_EQ(E.Protocol, Hit->Protocol);
  EXPECT_EQ(E.StatsJson, Hit->StatsJson);
  EXPECT_DOUBLE_EQ(E.SynthSeconds, Hit->SynthSeconds);
  EXPECT_EQ(E.Verdict, Hit->Verdict); // Byte-exact: the warm output.
  StoreStats St = S.stats();
  EXPECT_EQ(1u, St.T1Writes);
  EXPECT_EQ(0u, St.T1Corrupt);
}

TEST_F(StoreTest, Tier1MissOnAbsentHash) {
  ResultStore S(Dir);
  EXPECT_FALSE(S.lookup(hash(7, 7)).has_value());
}

TEST_F(StoreTest, UnsafeVerdictsRoundTripTooButNothingElseWrites) {
  ResultStore S(Dir);
  ResultStore::T1Entry E = entry();
  E.Exit = 1;
  E.Verdict = "UNSAFE: explicit counterexample (3 steps):\n  a\n  b\n  c\n";
  EXPECT_TRUE(S.store(hash(1, 1), E));
  E.Exit = 2; // Unknown: never cacheable.
  EXPECT_FALSE(S.store(hash(2, 2), E));
  E.Exit = 4; // Inconclusive: never cacheable.
  EXPECT_FALSE(S.store(hash(3, 3), E));
  EXPECT_EQ(1u, S.stats().T1Writes);
}

TEST_F(StoreTest, TruncatedEntryIsAMissNotACrash) {
  ResultStore S(Dir);
  ASSERT_TRUE(S.store(hash(5, 5), entry()));
  // Re-write the file with its second half cut off.
  std::string Path = Dir + "/t1/" + hash(5, 5).hex() + ".entry";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Full = SS.str();
  corruptT1(hash(5, 5), Full.substr(0, Full.size() / 2));
  EXPECT_FALSE(S.lookup(hash(5, 5)).has_value());
  StoreStats St = S.stats();
  EXPECT_EQ(1u, St.T1Corrupt);
}

TEST_F(StoreTest, GarbageEntryIsAMiss) {
  ResultStore S(Dir);
  corruptT1(hash(6, 6), "not a store file at all \x01\x02\x03 {]");
  EXPECT_FALSE(S.lookup(hash(6, 6)).has_value());
  EXPECT_EQ(1u, S.stats().T1Corrupt);
}

TEST_F(StoreTest, WrongVersionIsAMiss) {
  ResultStore S(Dir);
  ASSERT_TRUE(S.store(hash(8, 8), entry()));
  std::string Path = Dir + "/t1/" + hash(8, 8).hex() + ".entry";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Full = SS.str();
  size_t P = Full.find("v1");
  ASSERT_NE(std::string::npos, P);
  Full.replace(P, 2, "v9");
  corruptT1(hash(8, 8), Full);
  EXPECT_FALSE(S.lookup(hash(8, 8)).has_value());
  EXPECT_EQ(1u, S.stats().T1Corrupt);
}

TEST_F(StoreTest, ExitFieldOutsideSettledRangeIsCorruption) {
  ResultStore S(Dir);
  ASSERT_TRUE(S.store(hash(9, 9), entry()));
  std::string Path = Dir + "/t1/" + hash(9, 9).hex() + ".entry";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Full = SS.str();
  size_t P = Full.find("exit 0");
  ASSERT_NE(std::string::npos, P);
  Full.replace(P, 6, "exit 4");
  corruptT1(hash(9, 9), Full);
  EXPECT_FALSE(S.lookup(hash(9, 9)).has_value());
  EXPECT_EQ(1u, S.stats().T1Corrupt);
}

// -- Tier 2 ------------------------------------------------------------------

class Tier2Test : public StoreTest {
protected:
  /// Fills \p C with one entry keyed by a small obligation over f/k.
  void populate(engine::ReduceCache &C, logic::TermManager &M,
                int GuardConst = 2) {
    Term T = M.mkVar("t", Sort::Tid);
    Term F = M.mkVar("f", Sort::Array);
    Term K = M.mkVar("k", Sort::Int);
    Term Psi =
        M.mkAnd({M.mkForall({T}, M.mkGe(M.mkRead(F, T), M.mkInt(GuardConst))),
                 M.mkGe(K, M.mkInt(1))});
    engine::ReduceResult R;
    R.Ground = M.mkGe(K, M.mkInt(GuardConst));
    R.NumInstances = 2;
    R.NumDeferred = 3;
    R.Deferred.push_back(M.mkLe(K, M.mkInt(GuardConst + 5)));
    C.insertShared(Psi, Opts, {{K, M.mkTrue()}}, {}, R);
  }

  engine::ReduceOptions Opts;
};

TEST_F(Tier2Test, RoundTripServesHitsInAFreshCache) {
  ResultStore S(Dir);
  logic::TermManager M;
  engine::ReduceCache C;
  populate(C, M);
  EXPECT_EQ(1u, C.size());
  ASSERT_EQ(1u, S.saveReduceCache(C));

  engine::ReduceCache C2;
  ASSERT_EQ(1u, S.loadReduceCache(C2));
  EXPECT_EQ(1u, C2.size());

  // A different manager rebuilding the same obligation must hit.
  logic::TermManager M2;
  Term T = M2.mkVar("t", Sort::Tid);
  Term F = M2.mkVar("f", Sort::Array);
  Term K = M2.mkVar("k", Sort::Int);
  Term Psi = M2.mkAnd({M2.mkForall({T}, M2.mkGe(M2.mkRead(F, T), M2.mkInt(2))),
                       M2.mkGe(K, M2.mkInt(1))});
  auto Hit = C2.lookupShared(M2, Psi, Opts, {{K, M2.mkTrue()}}, {});
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(2u, Hit->NumInstances);
  EXPECT_EQ(3u, Hit->NumDeferred);
  EXPECT_EQ(M2.mkGe(K, M2.mkInt(2)), Hit->Ground);
  ASSERT_EQ(1u, Hit->Deferred.size());
  EXPECT_EQ(M2.mkLe(K, M2.mkInt(7)), Hit->Deferred[0]);

  // A semantically different obligation must miss.
  Term Psi3 = M2.mkAnd({M2.mkForall({T}, M2.mkGe(M2.mkRead(F, T), M2.mkInt(3))),
                        M2.mkGe(K, M2.mkInt(1))});
  EXPECT_FALSE(C2.lookupShared(M2, Psi3, Opts, {{K, M2.mkTrue()}}, {})
                   .has_value());
}

TEST_F(Tier2Test, CorruptTailKeepsParsedPrefix) {
  ResultStore S(Dir);
  logic::TermManager M;
  engine::ReduceCache C;
  populate(C, M, 2);
  populate(C, M, 3); // Second, distinct entry.
  ASSERT_EQ(2u, S.saveReduceCache(C));

  // Chop the file mid-way through the second entry.
  std::string Path = Dir + "/t2/reduce.cache";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Full = SS.str();
  size_t Cut = Full.find("entry v1", Full.find("entry v1") + 1);
  ASSERT_NE(std::string::npos, Cut);
  Cut += 20; // Inside the second entry's body.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Full.substr(0, Cut);
  }

  engine::ReduceCache C2;
  std::string Note;
  EXPECT_EQ(1u, S.loadReduceCache(C2, &Note)); // Prefix survived.
  EXPECT_EQ(1u, C2.size());
  EXPECT_NE(std::string::npos, Note.find("corrupt_store"));
  EXPECT_EQ(1u, S.stats().T2Corrupt);
}

TEST_F(Tier2Test, GarbageFileLoadsAsEmpty) {
  ResultStore S(Dir);
  {
    std::ofstream Out(Dir + "/t2/reduce.cache",
                      std::ios::binary | std::ios::trunc);
    Out << "complete nonsense \xff\xfe\n\n\n";
  }
  engine::ReduceCache C;
  std::string Note;
  EXPECT_EQ(0u, S.loadReduceCache(C, &Note));
  EXPECT_EQ(0u, C.size());
  EXPECT_NE(std::string::npos, Note.find("corrupt_store"));
}

TEST_F(Tier2Test, WrongVersionHeaderLoadsAsEmpty) {
  ResultStore S(Dir);
  logic::TermManager M;
  engine::ReduceCache C;
  populate(C, M);
  ASSERT_EQ(1u, S.saveReduceCache(C));
  std::string Path = Dir + "/t2/reduce.cache";
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Full = SS.str();
  // A store written before the current format (the retired v3 header,
  // whose keys fingerprint option fields that are constants or a mode
  // now, and whose entries carry the dropped card-variable block) must
  // load as empty.
  size_t P = Full.find("t2 v4");
  ASSERT_NE(std::string::npos, P);
  Full.replace(P, 5, "t2 v3");
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Full;
  }
  engine::ReduceCache C2;
  EXPECT_EQ(0u, S.loadReduceCache(C2));
  EXPECT_EQ(0u, C2.size());
  EXPECT_EQ(1u, S.stats().T2Corrupt);
}

} // namespace
