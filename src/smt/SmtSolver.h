//===- smt/SmtSolver.h - SMT back-end interface -----------------*- C++ -*-===//
//
// Part of sharpie. The quantifier-free SMT oracle used after ELIMCARD and
// quantifier instantiation have reduced proof obligations to the
// quantifier- and cardinality-free combined theory (paper Sec. 3, 5.1).
// Two implementations exist: Z3Solver (libz3) and MiniSolver (from-scratch
// DPLL(T), used for cross-checking).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SMT_SMTSOLVER_H
#define SHARPIE_SMT_SMTSOLVER_H

#include "logic/Term.h"
#include "obs/Obs.h"

#include <memory>
#include <optional>

namespace sharpie {
namespace smt {

enum class SatResult { Sat, Unsat, Unknown };
enum class Validity { Valid, Invalid, Unknown };

const char *satResultName(SatResult R);

/// A satisfying assignment handle. Valid only until the owning solver is
/// mutated (add/pop) or destroyed.
class SmtModel {
public:
  virtual ~SmtModel();

  /// Evaluates a ground Int- or Tid-sorted term in the model. Returns
  /// nullopt when the model cannot interpret the term.
  virtual std::optional<int64_t> evalInt(logic::Term T) = 0;

  /// Evaluates a ground formula in the model.
  virtual std::optional<bool> evalBool(logic::Term T) = 0;
};

/// Incremental SMT solver interface over logic::Term.
class SmtSolver {
public:
  virtual ~SmtSolver();

  virtual void push() = 0;
  virtual void pop() = 0;

  /// Asserts formula \p T. Card terms must have been eliminated; quantifiers
  /// are accepted (back ends may answer Unknown on them).
  virtual void add(logic::Term T) = 0;

  virtual SatResult check() = 0;

  /// Checks satisfiability of the current assertions conjoined with
  /// \p Assumptions (Bool-sorted literals: variables or their negations).
  /// Unlike add(), the assumptions do not persist -- the next check sees
  /// only the asserted stack -- which is what makes Houdini-style candidate
  /// pruning incremental: the clause set is asserted once and each
  /// iteration just varies the assumption literals. The base implementation
  /// emulates the call with push/add/check/pop; back ends override it with
  /// a native mechanism (Z3: check-sat-assuming) where one exists.
  virtual SatResult checkAssuming(const std::vector<logic::Term> &Assumptions);

  /// After a checkAssuming() that answered Unsat: a subset of the passed
  /// assumptions sufficient for unsatisfiability (an unsat core). The core
  /// need not be minimal; returning the full assumption list is always a
  /// correct (maximally conservative) answer, and is what the base
  /// emulation does. Undefined after Sat/Unknown or after plain check().
  virtual std::vector<logic::Term> unsatCore() const { return LastAssumptions; }

  /// Returns the model after a Sat answer; nullptr otherwise.
  virtual std::unique_ptr<SmtModel> model() = 0;

  /// Sets a per-check soft timeout. 0 disables the timeout.
  virtual void setTimeoutMs(unsigned Ms) = 0;

  /// After a check() that answered Unknown: a short lower-case reason
  /// ("timeout", "incomplete: ...", Z3's reason_unknown text). Empty when
  /// the back end has nothing to say; undefined after Sat/Unsat. The
  /// resilience layer (resil/Resil.h) classifies Unknowns with this.
  virtual std::string reasonUnknown() const { return std::string(); }

  /// Number of check()/checkAssuming() calls, for benchmark statistics.
  unsigned numChecks() const { return NumChecks; }

protected:
  unsigned NumChecks = 0;
  /// Assumptions of the most recent checkAssuming(), kept so the default
  /// unsatCore() can answer conservatively.
  std::vector<logic::Term> LastAssumptions;
};

/// Creates a Z3-backed solver over \p M. The manager must outlive the
/// solver. \p Simple selects Z3's plain SMT kernel instead of its default
/// tactic-combined solver: it skips the tactic setup of the first check
/// (several milliseconds), which dominates a short-lived solver that
/// answers a few small checks.
std::unique_ptr<SmtSolver> makeZ3Solver(logic::TermManager &M,
                                        bool Simple = false);

/// Creates the from-scratch MiniSolver (see smt/MiniSolver.h) over \p M.
std::unique_ptr<SmtSolver> makeMiniSolver(logic::TermManager &M);

/// Convenience: checks validity of \p T (i.e. unsatisfiability of its
/// negation) under the solver's current assertions (push/pop scoped).
Validity checkValid(SmtSolver &S, logic::TermManager &M, logic::Term T);

/// Instrumented check(): wraps the call in an "smt_check" span on \p Trace
/// (which must not be null), counts it in "smt_checks", samples the span's
/// duration into the global "smt_ms" histogram and, when \p PhaseHist is
/// non-null, into that per-phase histogram too (e.g. "smt_ms.houdini").
/// \p Detail annotates the span.
inline SatResult checkTraced(SmtSolver &S, obs::TraceBuffer *Trace,
                             const char *PhaseHist = nullptr,
                             const char *Detail = "") {
  obs::Span Sp(Trace, "smt_check", [&] { return std::string(Detail); });
  SatResult R = S.check();
  Trace->counter("smt_checks", 1);
  double Ms = Sp.close() * 1e3;
  Trace->sample("smt_ms", Ms);
  if (PhaseHist)
    Trace->sample(PhaseHist, Ms);
  return R;
}

/// Instrumented checkAssuming(): like checkTraced, over the assumption
/// literals \p A.
inline SatResult checkAssumingTraced(SmtSolver &S,
                                     const std::vector<logic::Term> &A,
                                     obs::TraceBuffer *Trace,
                                     const char *PhaseHist = nullptr,
                                     const char *Detail = "") {
  obs::Span Sp(Trace, "smt_check", [&] { return std::string(Detail); });
  SatResult R = S.checkAssuming(A);
  Trace->counter("smt_checks", 1);
  double Ms = Sp.close() * 1e3;
  Trace->sample("smt_ms", Ms);
  if (PhaseHist)
    Trace->sample(PhaseHist, Ms);
  return R;
}

} // namespace smt
} // namespace sharpie

#endif // SHARPIE_SMT_SMTSOLVER_H
