//===- bounded/Screen.h - Houdini on the N-thread instance -------*- C++ -*-===//
//
// Part of sharpie. The bounded-N tuple screen's solver state (DESIGN.md
// Sec. 4, "Bounded-N tuple screen"): Houdini over a candidate's atoms on
// the N-thread instance of a system, in one Z3 solver that outlives the
// candidates it screens. The base -- init, each transition and the
// negated property, each behind its clause selector, and the selector
// disjunction -- is asserted once. Each candidate pushes one frame that
// ties its atoms to the selectors, runs the Houdini loop, and pops it.
//
// A screen owns its own TermManager, system clone, Instance and Z3
// context, so it lives on past the caller's per-candidate worlds; it is
// single-threaded like every solver. Its verdict does not depend on the
// candidates it screened before: the encoding is exact and
// quantifier-free, and the greatest N-inductive subset of an atom set is
// unique.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_BOUNDED_SCREEN_H
#define SHARPIE_BOUNDED_SCREEN_H

#include "bounded/Bounded.h"

#include <functional>
#include <memory>

namespace sharpie {
namespace bounded {

class Screen {
public:
  enum class Verdict {
    Pass,    ///< The survivors imply safety at N.
    Reject,  ///< A state satisfies every survivor and violates safety.
    Unknown, ///< No answer: the candidate runs as if unscreened.
  };

  struct Result {
    Verdict V = Verdict::Unknown;
    /// Live[k]: atom k survived to the verdict (Pass and Reject).
    std::vector<char> Live;
    /// Reject: the violating N-thread state (Instance::renderState).
    /// Unknown: why there is no answer.
    std::string Detail;
  };

  /// Clones \p Sys into the screen's own manager and encodes its init,
  /// transitions and property at \p N threads. A part without an exact
  /// encoding makes every run() answer Unknown, without a solver. The
  /// solver is made on the first candidate whose atoms all encode; each
  /// check is bounded by \p TimeoutMs (0 = none). Throws what the clone
  /// throws.
  Screen(const sys::ParamSystem &Sys, unsigned N, unsigned TimeoutMs);

  /// Screens the atoms whose closed invariants are \p Invs: formulas over
  /// the system's pre-state, in any manager whose names match the
  /// system's. Checks are traced on \p TB (not null; `smt_ms.screen`),
  /// and a context made here counts in `smt_contexts` there. \p Aborted
  /// is polled before every check; an aborted run answers Unknown. Every
  /// run leaves the solver as it found it, or the screen not usable().
  Result run(const std::vector<logic::Term> &Invs, obs::TraceBuffer *TB,
             const std::function<bool()> &Aborted);

  /// False once a run's failure -- a solver Unknown or timeout, a missing
  /// model, an exception, a failed pop -- may have left the solver out of
  /// step with the base. The owner drops the screen then, and builds a
  /// new one for the next candidate.
  bool usable() const { return Usable; }

private:
  /// The Houdini loop over one pushed frame.
  Result houdini(const std::vector<logic::Term> &Pre,
                 const std::vector<logic::Term> &Post, obs::TraceBuffer *TB,
                 const std::function<bool()> &Aborted);

  logic::TermManager M;
  std::unique_ptr<sys::ParamSystem> Sys;
  Instance I;
  unsigned TimeoutMs;
  /// The encoded base; Init is null when the system has no exact encoding.
  logic::Term Init, Safe;
  std::vector<logic::Term> Trans;
  /// Clause selectors: init, one per transition, the property.
  logic::Term SelInit, SelSafe;
  std::vector<logic::Term> SelTrans;
  std::unique_ptr<smt::SmtSolver> S; ///< Null until the first check.
  bool Usable = true;
};

} // namespace bounded
} // namespace sharpie

#endif // SHARPIE_BOUNDED_SCREEN_H
