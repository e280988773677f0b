//===- tests/bounded_test.cpp - The N-thread encoder ---------------------------===//
//
// Part of sharpie. Unit tests for bounded::Instance's expansions
// (cardinalities, Tid binders, store equations, the size variable, the
// "unknown" answer on an Int-sorted binder), and a differential test
// against the explicit engine: on every protocol, at its own instance
// size, the encoded init holds in the initial states, and the encoded
// safety property and each pool atom's encoded closed invariant agree
// with logic::Evaluator -- the prefilter's semantics -- on every explored
// state.
//
//===----------------------------------------------------------------------===//

#include "bounded/Bounded.h"
#include "explicit/Explicit.h"
#include "protocols/Protocols.h"
#include "synth/Synth.h"

#include "ExampleProtocols.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace sharpie;
using logic::Sort;
using logic::Term;

namespace {

/// \p S over the instance's vocabulary: the globals keep their values and
/// each local's per-thread variable gets that thread's entry.
logic::FiniteModel flatten(bounded::Instance &I, const sys::ParamSystem &Sys,
                           const logic::FiniteModel &S) {
  logic::FiniteModel F;
  F.DomainSize = S.DomainSize;
  for (Term G : Sys.globals()) {
    auto It = S.Scalars.find(G);
    F.Scalars[G] = It == S.Scalars.end() ? 0 : It->second;
  }
  for (Term L : Sys.locals()) {
    auto It = S.Arrays.find(L);
    for (unsigned K = 0; K < I.size(); ++K)
      F.Scalars[I.threadVar(L, K)] =
          It == S.Arrays.end() || K >= It->second.size() ? 0 : It->second[K];
  }
  return F;
}

bool holds(Term Encoded, const logic::FiniteModel &Flat) {
  logic::Evaluator Ev(Flat);
  bool R = Ev.evalBool(Encoded);
  EXPECT_TRUE(Ev.missing().empty())
      << "encoding mentions a variable outside the instance: "
      << logic::toString(Ev.missing().front());
  return R;
}

/// A one-local system "pc" over \p N threads, for the unit tests.
struct Toy {
  logic::TermManager M;
  sys::ParamSystem Sys{M, "toy"};
  Term PC = Sys.addLocal("pc");
  Term G = Sys.addGlobal("g");
  Term T = M.mkVar("t", Sort::Tid);
  Term U = M.mkVar("u", Sort::Tid);

  logic::FiniteModel state(std::vector<int64_t> Pc, int64_t GVal = 0) {
    logic::FiniteModel S;
    S.DomainSize = static_cast<int64_t>(Pc.size());
    S.Scalars[G] = GVal;
    S.Arrays[PC] = std::move(Pc);
    return S;
  }
};

} // namespace

TEST(Bounded, CardinalityIsASumOfIndicators) {
  Toy X;
  bounded::Instance I(X.Sys, 3);
  Term AtOne = X.M.mkCard(X.T, X.M.mkEq(X.M.mkRead(X.PC, X.T), X.M.mkInt(1)));
  Term Phi = X.M.mkEq(AtOne, X.G);
  Term E = I.encode(Phi);
  ASSERT_FALSE(E.isNull());
  EXPECT_FALSE(logic::containsKind(E, logic::Kind::Card));
  EXPECT_EQ(logic::toString(I.encode(X.M.mkLe(AtOne, X.M.mkInt(7)))),
            "((ite((pc@0 = 1), 1, 0) + ite((pc@1 = 1), 1, 0) + "
            "ite((pc@2 = 1), 1, 0)) <= 7)");
  // Every assignment of three threads over {0, 1, 2}: the encoding counts
  // exactly what the finite-model evaluator counts.
  for (int64_t A = 0; A < 27; ++A) {
    std::vector<int64_t> Pc{A % 3, A / 3 % 3, A / 9};
    for (int64_t GVal = 0; GVal <= 3; ++GVal) {
      logic::FiniteModel S = X.state(Pc, GVal);
      EXPECT_EQ(holds(E, flatten(I, X.Sys, S)),
                logic::Evaluator(S).evalBool(Phi));
    }
  }
}

TEST(Bounded, TidBindersExpandOverTheThreads) {
  Toy X;
  bounded::Instance I(X.Sys, 3);
  logic::TermManager &M = X.M;
  // Pairwise distinct program counters: six ordered pairs of threads.
  Term Distinct = M.mkForall(
      {X.T, X.U}, M.mkImplies(M.mkNe(X.T, X.U),
                              M.mkNe(M.mkRead(X.PC, X.T),
                                     M.mkRead(X.PC, X.U))));
  Term Some = M.mkExists({X.T}, M.mkEq(M.mkRead(X.PC, X.T), X.G));
  Term E = I.encode(Distinct), F = I.encode(Some);
  ASSERT_FALSE(E.isNull());
  ASSERT_FALSE(F.isNull());
  EXPECT_FALSE(logic::containsKind(E, logic::Kind::Forall));
  EXPECT_EQ(logic::toString(F), "((g = pc@0) \\/ (g = pc@1) \\/ (g = pc@2))");
  for (int64_t A = 0; A < 27; ++A) {
    logic::FiniteModel S = X.state({A % 3, A / 3 % 3, A / 9}, A % 2);
    logic::FiniteModel Flat = flatten(I, X.Sys, S);
    EXPECT_EQ(holds(E, Flat), logic::Evaluator(S).evalBool(Distinct));
    EXPECT_EQ(holds(F, Flat), logic::Evaluator(S).evalBool(Some));
  }
}

TEST(Bounded, StoreEquationsUpdateOnlyTheMover) {
  Toy X;
  logic::TermManager &M = X.M;
  sys::Transition &Step =
      X.Sys.addTransition("step", M.mkEq(X.Sys.my(X.PC), M.mkInt(1)));
  Step.LocalUpd[X.PC] = M.mkInt(5);
  bounded::Instance I(X.Sys, 3);
  Term E = I.transition(X.Sys.transitions()[0]);
  ASSERT_FALSE(E.isNull());
  auto Takes = [&](std::vector<int64_t> Pre, std::vector<int64_t> Post) {
    logic::FiniteModel S = X.state(Pre);
    S.Arrays[X.Sys.post(X.PC)] = Post;
    S.Scalars[X.Sys.post(X.G)] = 0;
    logic::FiniteModel Flat = flatten(I, X.Sys, S);
    for (unsigned K = 0; K < 3; ++K)
      Flat.Scalars[I.threadVar(X.Sys.post(X.PC), K)] = Post[K];
    Flat.Scalars[X.Sys.post(X.G)] = 0;
    return holds(E, Flat);
  };
  EXPECT_TRUE(Takes({1, 1, 2}, {5, 1, 2}));  // Thread 0 moves.
  EXPECT_TRUE(Takes({1, 1, 2}, {1, 5, 2}));  // Thread 1 moves.
  EXPECT_FALSE(Takes({1, 1, 2}, {1, 1, 5})); // Thread 2's guard fails.
  EXPECT_FALSE(Takes({1, 1, 2}, {1, 1, 2})); // The mover's store is no frame.
  EXPECT_FALSE(Takes({1, 1, 2}, {5, 5, 2})); // Only the mover is written.
}

TEST(Bounded, SizeVariableIsTheInstanceSize) {
  Toy X;
  Term N = X.Sys.addGlobal("n");
  X.Sys.setSizeVar(N);
  bounded::Instance I(X.Sys, 3);
  EXPECT_EQ(I.encode(X.M.mkEq(N, X.M.mkInt(3))), X.M.mkTrue());
  EXPECT_EQ(I.encode(X.M.mkEq(X.Sys.post(N), X.M.mkInt(2))), X.M.mkFalse());
}

TEST(Bounded, IntBinderIsUnknown) {
  Toy X;
  Term Q = X.M.mkVar("q", Sort::Int);
  bounded::Instance I(X.Sys, 3);
  EXPECT_TRUE(I.encode(X.M.mkForall({Q}, X.M.mkLe(X.G, Q))).isNull());
  EXPECT_TRUE(I.encode(X.M.mkAnd(X.M.mkLe(X.G, X.M.mkInt(1)),
                                 X.M.mkExists({Q}, X.M.mkLt(Q, X.G))))
                  .isNull());
}

// -- Differential test against the explicit engine -----------------------------------

namespace {

/// The initial states explct::explore starts from.
std::vector<logic::FiniteModel> initialStates(const front::FrontBundle &B) {
  const sys::ParamSystem &Sys = *B.Sys;
  int64_t N = B.Explicit.NumThreads;
  std::vector<logic::FiniteModel> Out;
  if (Sys.CustomInit) {
    Out = Sys.CustomInit(N);
  } else {
    logic::FiniteModel S;
    for (Term G : Sys.globals())
      S.Scalars[G] = 0;
    for (Term L : Sys.locals())
      S.Arrays[L] = std::vector<int64_t>(static_cast<size_t>(N), 0);
    Out.push_back(std::move(S));
  }
  for (logic::FiniteModel &S : Out) {
    S.DomainSize = N;
    S.IntBound = B.Explicit.IntBound;
    if (Sys.sizeVar())
      S.Scalars[*Sys.sizeVar()] = N;
  }
  return Out;
}

/// Checks one protocol; returns the number of (formula, state) pairs
/// compared.
size_t checkAgainstExplicit(const std::string &Name, front::FrontBundle &B) {
  SCOPED_TRACE(Name);
  logic::TermManager &M = B.Sys->manager();
  const sys::ParamSystem &Sys = *B.Sys;
  unsigned N = static_cast<unsigned>(B.Explicit.NumThreads);
  bounded::Instance I(Sys, N);

  // Every init and safety property of the corpus has an exact encoding.
  Term Init = I.init(), Safe = I.safe();
  if (Init.isNull() || Safe.isNull()) {
    ADD_FAILURE() << "init or safe has no encoding";
    return 0;
  }
  for (const logic::FiniteModel &S : initialStates(B))
    EXPECT_TRUE(holds(Init, flatten(I, Sys, S))) << "initial state";

  // What the prefilter evaluates, per atom, under the top-ranked set
  // bodies: the atom's closed invariant.
  synth::Formals F = synth::formalsFor(M, B.Shape);
  std::vector<synth::SetCandidate> Cands = synth::enumerateSetBodies(Sys, F);
  std::vector<Term> Bodies;
  for (size_t K = 0; K < B.Shape.NumSets && K < Cands.size(); ++K)
    Bodies.push_back(Cands[K].Body);
  if (Bodies.size() < B.Shape.NumSets)
    return 0;
  std::vector<std::pair<Term, Term>> Formulas{{Sys.safe(), Safe}};
  for (Term A : synth::enumerateInvAtoms(Sys, F)) {
    Term Inv = synth::closedInvariant(M, F, B.QGuard, Bodies, {A});
    Formulas.push_back({Inv, I.encode(Inv)});
  }

  explct::ExplicitResult ER = explct::explore(Sys, B.Explicit);
  EXPECT_FALSE(ER.States.empty());
  size_t Compared = 0;
  for (const logic::FiniteModel &S : ER.States) {
    logic::FiniteModel Flat = flatten(I, Sys, S);
    for (const auto &[Phi, Enc] : Formulas) {
      if (Enc.isNull())
        continue; // An Int binder: no encoding, nothing to compare.
      if (holds(Enc, Flat) != logic::Evaluator(S).evalBool(Phi)) {
        ADD_FAILURE() << "the encoding disagrees with the evaluator on "
                      << logic::toString(Phi);
        return Compared;
      }
      ++Compared;
    }
  }
  return Compared;
}

} // namespace

TEST(BoundedDifferential, BuiltinsAgreeWithTheExplicitEngine) {
  std::map<std::string, protocols::BundleFactory> All = protocols::builtins();
  ASSERT_EQ(All.size(), 13u);
  for (const auto &[Name, Make] : All) {
    logic::TermManager M;
    front::FrontBundle B = Make(M);
    EXPECT_GT(checkAgainstExplicit(Name, B), 0u) << Name;
  }
}

TEST(BoundedDifferential, ExampleFilesAgreeWithTheExplicitEngine) {
  const char *Stems[] = {
      "as_many",          "as_many_bug",       "bluetooth",
      "bluetooth_bug",    "cache",             "dyn_barrier",
      "dyn_barrier_nobar", "filter_lock",      "garbage_collection",
      "increment",        "intro",             "max",
      "max_nobar",        "reader_writer",     "reader_writer_bug",
      "simplified_bakery", "ticket_lock",      "tree_traverse",
      "work_stealing"};
  ASSERT_EQ(std::size(Stems), 19u);
  for (const char *Stem : Stems) {
    logic::TermManager M;
    front::FrontBundle B = test::loadExample(M, Stem);
    EXPECT_GT(checkAgainstExplicit(Stem, B), 0u) << Stem;
  }
}
