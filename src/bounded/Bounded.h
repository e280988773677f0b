//===- bounded/Bounded.h - The N-thread instance of a system ----*- C++ -*-===//
//
// Part of sharpie. Encodes formulas over a parameterized system's state at
// a fixed number N of threads, as quantifier-free formulas over Int and
// Bool variables with no cardinality, array or Tid term left:
//
//   * a Tid-sorted binder becomes a conjunction (forall) or a disjunction
//     (exists) over the threads 0..N-1;
//   * #{t | phi} becomes  sum_i ite(phi(i), 1, 0), the finite-scope
//     encoding of a set cardinality;
//   * each local array L, and its post twin L', becomes one Int variable
//     per thread, named "L@i";
//   * a free Tid variable -- the async mover self(), a Tid choice --
//     ranges over the threads: the encoding is the disjunction over its N
//     values, so a transition formula becomes "some thread moves";
//   * the size variable, when the system has one, is the constant N.
//
// Every step is exact for the N-thread instance. An Int-sorted binder has
// no finite expansion, so a formula that contains one is not encoded:
// encode() returns a null Term ("unknown"), never an approximation. The
// module depends only on logic/, system/ and smt/ (see DESIGN.md Sec. 4,
// "Bounded-N tuple screen").
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_BOUNDED_BOUNDED_H
#define SHARPIE_BOUNDED_BOUNDED_H

#include "smt/SmtSolver.h"
#include "system/System.h"

#include <map>
#include <string>
#include <vector>

namespace sharpie {
namespace bounded {

/// The N-thread instance of one system, built in the system's manager.
class Instance {
public:
  Instance(const sys::ParamSystem &Sys, unsigned N);

  unsigned size() const { return N; }

  /// The N-thread encoding of \p Phi, a formula over the system's pre-
  /// and post-state vocabulary. Free Tid variables are read
  /// existentially (a disjunction over their values); free Int variables
  /// other than the size variable stay free. Null when \p Phi has no
  /// exact encoding (an Int-sorted binder).
  logic::Term encode(logic::Term Phi);

  logic::Term init() { return encode(Sys.init()); }
  logic::Term safe() { return encode(Sys.safe()); }
  /// \p T's transition formula at N: the mover and every Tid choice range
  /// over the threads, and a sync round's relation holds at every thread.
  logic::Term transition(const sys::Transition &T) {
    return encode(Sys.transitionFormula(T));
  }

  /// The Int variable holding local array \p Local (a declared local or
  /// its post twin) at thread \p Thread.
  logic::Term threadVar(logic::Term Local, unsigned Thread);

  /// The N-thread pre-state of \p Model: the globals, then each thread's
  /// locals, e.g. "fl=0 | t0: pc=5 | t1: pc=1 | t2: pc=2".
  std::string renderState(smt::SmtModel &Model);

private:
  class Encoder;

  const sys::ParamSystem &Sys;
  logic::TermManager &M;
  unsigned N;
  /// Per-thread variables of each array variable met so far.
  std::map<logic::Term, std::vector<logic::Term>> ThreadVars;
};

} // namespace bounded
} // namespace sharpie

#endif // SHARPIE_BOUNDED_BOUNDED_H
