//===- explicit/Explicit.h - Explicit-state model checker -------*- C++ -*-===//
//
// Part of sharpie. Enumerates the reachable states of a finite instance
// (N threads) of a parameterized system by breadth-first search, evaluating
// guards, updates, cardinalities and quantifiers with the reference
// finite-model semantics of logic/Eval.h.
//
// Three uses: (1) validating protocol models (correct versions stay safe,
// buggy variants produce concrete counterexample traces), (2) cross-checking
// synthesized invariants against every reachable state, and (3) cheaply
// pre-filtering candidate invariant atoms before any SMT solving (an atom
// violated in a reachable state of the N=2 or N=3 instance can never be
// part of an invariant of the parameterized family).
//
// The search is exact but bounded (MaxStates); systems with unbounded data
// (e.g. the ticket lock's growing counters) explore a finite prefix, which
// keeps uses (1)-(3) sound: every explored state is genuinely reachable.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_EXPLICIT_EXPLICIT_H
#define SHARPIE_EXPLICIT_EXPLICIT_H

#include "obs/Obs.h"
#include "system/System.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sharpie {
namespace explct {

struct ExplicitOptions {
  int64_t NumThreads = 3;      ///< Instance size N.
  unsigned MaxStates = 50000;  ///< Exploration cap.
  int64_t IntBound = 6;        ///< Range for Int-sorted quantifier evaluation.
};

struct Counterexample {
  std::vector<std::string> TransitionNames; ///< Path from an initial state.
  sys::ParamSystem::State BadState;
};

struct ExplicitResult {
  bool Exhausted = false;   ///< True if the full reachable set was explored.
  bool Safe = true;         ///< No explored state violates the property.
  unsigned NumStates = 0;
  std::optional<Counterexample> Cex;
  /// The explored states (capped at MaxStates).
  std::vector<sys::ParamSystem::State> States;
};

/// Explores the N-thread instance of \p Sys. Initial states come from
/// Sys.CustomInit if set, otherwise from the all-zero state (validated
/// against Sys.init()). Successors come from Sys.CustomStepper if set,
/// otherwise from the transitions themselves (choice variables
/// enumerated over [Sys.ChoiceLo, Sys.ChoiceHi]): one mover per step for
/// an asynchronous system; for a sync system, rounds whose post-state
/// satisfies the round relation at every thread, each thread's post
/// locals ranging over [-IntBound, IntBound]. A round outside that range
/// is not explored, so the prefix shrinks; no round the relation forbids
/// is ever taken.
/// \p Trace, when non-null, receives an "explicit" span, the
/// "explicit_states" counter and an instant event on a counterexample.
ExplicitResult explore(const sys::ParamSystem &Sys,
                       const ExplicitOptions &Opts = {},
                       obs::TraceBuffer *Trace = nullptr);

/// Evaluates formula \p Phi in every state of \p States; returns false on
/// the first violation. Used to cross-check synthesized invariants.
bool holdsInAll(const std::vector<sys::ParamSystem::State> &States,
                logic::Term Phi);

} // namespace explct
} // namespace sharpie

#endif // SHARPIE_EXPLICIT_EXPLICIT_H
