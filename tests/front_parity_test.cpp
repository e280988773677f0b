//===- tests/front_parity_test.cpp - .sharpie vs hand-built bundle parity -----===//
//
// Part of sharpie. Round-trip check for the textual frontend: parsing
// examples/protocols/*.sharpie and running #Pi must give the same verdict
// (and the same template metadata) as the hand-built protocols::make*
// bundle under identical SynthOptions. Increment and cache run the full
// set search; the ticket lock pins the paper's set bodies on BOTH sides
// so the parity claim stays cheap on one core.
//
//===----------------------------------------------------------------------===//

#include "front/Front.h"
#include "logic/TermOps.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

#ifndef SHARPIE_REPO_ROOT
#error "SHARPIE_REPO_ROOT must be defined by the build"
#endif

using namespace sharpie;
using namespace sharpie::protocols;
using logic::Sort;
using logic::Term;
using logic::TermManager;

namespace {

std::string protoPath(const char *Stem) {
  return std::string(SHARPIE_REPO_ROOT) + "/examples/protocols/" + Stem +
         ".sharpie";
}

struct Side {
  TermManager M;
  front::FrontBundle B; ///< Declared after M: destroyed before it.
};

void fromFactory(Side &S, BundleFactory Make) { S.B = Make(S.M); }

void fromFile(Side &S, const char *Stem) {
  front::LoadResult R = front::loadProtocolFile(S.M, protoPath(Stem));
  ASSERT_TRUE(R.ok()) << (R.Error ? R.Error->render() : "");
  S.B = std::move(*R.Bundle);
}

synth::SynthResult run(Side &S, const std::vector<Term> &Fixed = {}) {
  synth::SynthOptions Opts = synth::optionsFor(S.B);
  Opts.FixedSetBodies = Fixed;
  return synth::synthesize(*S.B.Sys, Opts);
}

std::vector<std::string> strs(const std::vector<Term> &Ts) {
  std::vector<std::string> Out;
  for (Term T : Ts)
    Out.push_back(logic::toString(T));
  return Out;
}

void expectMetadataParity(const Side &FileSide, const Side &HandSide) {
  const front::FrontBundle &File = FileSide.B, &Hand = HandSide.B;
  EXPECT_EQ(File.Shape.NumSets, Hand.Shape.NumSets);
  EXPECT_EQ(File.Shape.Quantifiers, Hand.Shape.Quantifiers);
  EXPECT_EQ(File.ExpectSafe, Hand.ExpectSafe);
  EXPECT_EQ(File.NeedsVenn, Hand.NeedsVenn);
  EXPECT_EQ(File.Sys->mode(), Hand.Sys->mode());
  EXPECT_EQ(File.Sys->globals().size(), Hand.Sys->globals().size());
  EXPECT_EQ(File.Sys->locals().size(), Hand.Sys->locals().size());
  EXPECT_EQ(File.Sys->transitions().size(), Hand.Sys->transitions().size());
}

TEST(FrontParity, Increment) {
  Side File, Hand;
  fromFile(File, "increment");
  fromFactory(Hand, makeIncrement);
  expectMetadataParity(File, Hand);
  synth::SynthResult RF = run(File), RH = run(Hand);
  EXPECT_TRUE(RH.Verified) << RH.Note;
  EXPECT_EQ(RF.Verified, RH.Verified) << RF.Note;
  // The full search is deterministic and both systems declare the same
  // variables in the same order, so the inferred bodies print identically.
  EXPECT_EQ(strs(RF.SetBodies), strs(RH.SetBodies));
}

TEST(FrontParity, Cache) {
  Side File, Hand;
  fromFile(File, "cache");
  fromFactory(Hand, makeCache);
  expectMetadataParity(File, Hand);
  synth::SynthResult RF = run(File), RH = run(Hand);
  EXPECT_TRUE(RH.Verified) << RH.Note;
  EXPECT_EQ(RF.Verified, RH.Verified) << RF.Note;
  EXPECT_EQ(strs(RF.SetBodies), strs(RH.SetBodies));
}

// The paper's ticket-lock template (Fig. 1), concretized over a side's own
// manager: s1 = m(t) <= serv /\ pc(t) = 2, s2 = pc(t) = 3, s3 = m(t) = q.
std::vector<Term> ticketBodies(Side &S) {
  TermManager &M = S.M;
  synth::Formals F = synth::formalsFor(M, S.B.Shape);
  Term PC = M.mkVar("pc", Sort::Array);
  Term Mv = M.mkVar("m", Sort::Array);
  Term Serv = M.mkVar("serv", Sort::Int);
  Term T = F.BoundVar;
  return {M.mkAnd(M.mkLe(M.mkRead(Mv, T), Serv),
                  M.mkEq(M.mkRead(PC, T), M.mkInt(2))),
          M.mkEq(M.mkRead(PC, T), M.mkInt(3)),
          M.mkEq(M.mkRead(Mv, T), F.Q[0])};
}

TEST(FrontParity, TicketLockWithPinnedTemplate) {
  Side File, Hand;
  fromFile(File, "ticket_lock");
  fromFactory(Hand, makeTicketLock);
  expectMetadataParity(File, Hand);
  synth::SynthResult RF = run(File, ticketBodies(File));
  synth::SynthResult RH = run(Hand, ticketBodies(Hand));
  EXPECT_TRUE(RH.Verified) << RH.Note;
  EXPECT_EQ(RF.Verified, RH.Verified) << RF.Note;
  EXPECT_EQ(strs(RF.Atoms), strs(RH.Atoms));
}

} // namespace
