//===- resil/Resil.h - Supervised SMT solving -------------------*- C++ -*-===//
//
// Part of sharpie. The resilience layer around smt::SmtSolver: quantified
// invariant checking is exactly the regime where back ends time out,
// answer Unknown, or throw, and a search that serves heavy traffic must
// degrade instead of hanging or aborting. SupervisedSolver wraps any
// back end and
//
//   * enforces a per-check deadline, clamped to the remaining global
//     time budget so no single check outlives the search;
//   * classifies every Unknown (timeout vs. incompleteness vs. injected
//     fault vs. budget exhaustion vs. solver exception);
//   * retries a timeout-class Unknown once with a doubled time slice --
//     the "backoff" grows the per-attempt slice, since an in-process
//     solver has nothing to recover from by merely waiting (no slice,
//     backoff included, exceeds 120 s);
//   * escalates to the other back end (Z3 <-> MiniSolver) after the
//     retry is spent, replaying the recorded assertion trail into a
//     fresh solver (a null fallback factory disables this);
//   * counts every retry, fallback, injected fault and Unknown class on
//     its trace buffer ("retries", "fallbacks", "faults_injected",
//     "unknown_timeouts", "unknown_incomplete", "solver_exceptions"),
//     the one tally the synthesizer derives its SynthStats counts from.
//
// Soundness is untouched: the wrapper only ever converts an Unknown into
// a Sat/Unsat obtained from a real solver run over the same assertions,
// or passes the Unknown through. Callers keep treating Unknown
// conservatively (candidate dropped, safety not declared).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_RESIL_RESIL_H
#define SHARPIE_RESIL_RESIL_H

#include "resil/Fault.h"
#include "smt/SmtSolver.h"

#include <chrono>
#include <functional>

namespace sharpie {
namespace resil {

/// Why the last supervised check() returned Unknown.
enum class FailureClass : uint8_t {
  None,            ///< Last check answered Sat/Unsat.
  Timeout,         ///< Back end hit its per-check deadline.
  Incomplete,      ///< Query outside the back end's complete fragment.
  InjectedFault,   ///< A FaultPlan rule fired.
  SolverException, ///< The back end threw; contained here.
  BudgetExhausted, ///< Global TimeBudgetSeconds left no time to check.
  /// A persistent-store file (serve/Store.h) failed to parse: truncated
  /// write, version skew, or plain corruption. Always degrades to a cache
  /// miss -- the class exists so store incidents surface in the same
  /// taxonomy as solver incidents instead of as ad-hoc strings.
  CorruptStore,
};

const char *failureClassName(FailureClass C);

struct SupervisionOptions {
  /// Disabled reproduces the bare back end: the reference the chaos
  /// tests compare supervised runs against. The drivers always supervise.
  bool Enabled = true;
};

/// Supervised wrapper over an smt::SmtSolver. Records the assertion
/// trail (terms + frame stack) so a restarted or fallback solver can be
/// replayed to the exact current state. Single-threaded, like every
/// solver in this codebase.
class SupervisedSolver final : public smt::SmtSolver {
public:
  using Factory = std::function<std::unique_ptr<smt::SmtSolver>()>;

  /// \p Fallback may be null (no escalation). \p Faults and \p TB may be
  /// null; without \p TB nothing is counted. \p Deadline is the global
  /// search deadline (time_point::max() when unbudgeted); per-check
  /// timeouts are clamped to the time remaining before it.
  SupervisedSolver(std::unique_ptr<smt::SmtSolver> Primary, Factory Fallback,
                   SupervisionOptions Opts, FaultInjector *Faults,
                   const char *Site, obs::TraceBuffer *TB,
                   std::chrono::steady_clock::time_point Deadline);

  void push() override;
  void pop() override;
  void add(logic::Term T) override;
  smt::SatResult check() override;
  /// Supervised assumption-based check. Faults for this entry point fire
  /// at the dedicated `smt_check_assuming` site (not the wrapper's
  /// constructor site), so chaos plans can target core queries alone. On
  /// fallback escalation the recorded trail is replayed and the same
  /// assumption literals are passed to the fallback's checkAssuming.
  smt::SatResult
  checkAssuming(const std::vector<logic::Term> &Assumptions) override;
  /// Core of the solver that actually answered the last Unsat; falls
  /// back to the full assumption list (maximally conservative) when no
  /// back end produced a definite answer -- an injected fault or Unknown
  /// on a core query therefore degrades to "every assumption implicated",
  /// never to an unsound subset.
  std::vector<logic::Term> unsatCore() const override;
  std::unique_ptr<smt::SmtModel> model() override;
  /// Sets the base per-check time slice (before backoff and budget
  /// clamping). 0 disables the per-check timeout.
  void setTimeoutMs(unsigned Ms) override;

  /// Classification of the most recent check()'s Unknown (None after a
  /// Sat/Unsat answer).
  FailureClass lastFailure() const { return LastFailure; }

private:
  smt::SatResult checkOnce(smt::SmtSolver &S, unsigned EffTimeoutMs,
                           FailureClass &Class,
                           const std::vector<logic::Term> *Assumptions);
  smt::SatResult checkSupervised(const std::vector<logic::Term> *Assumptions);
  void applyTimeout(smt::SmtSolver &S, unsigned Ms, unsigned &Applied);
  void replayInto(smt::SmtSolver &S);
  long long remainingBudgetMs() const;
  /// Adds 1 to counter \p Ctr on the trace buffer.
  void bump(const char *Ctr);

  std::unique_ptr<smt::SmtSolver> Primary;
  Factory MakeFallback;
  /// Live only between an escalated check and the next mutation: the
  /// trail replayed into it goes stale on add/push/pop, and keeping two
  /// solvers in lockstep would double assertion-translation cost on the
  /// fault-free path.
  std::unique_ptr<smt::SmtSolver> Fallback;
  /// The solver that produced the last Sat answer; model() reads it.
  smt::SmtSolver *Answered = nullptr;
  SupervisionOptions Opts;
  FaultInjector *Faults;
  const char *Site;
  obs::TraceBuffer *TB;
  std::chrono::steady_clock::time_point Deadline;
  FailureClass LastFailure = FailureClass::None;
  unsigned BaseTimeoutMs = 0;
  unsigned PrimaryTimeoutApplied = ~0u;

  // Assertion trail for restart/fallback replay (frame scheme mirrors
  // MiniSolver's).
  std::vector<logic::Term> Trail;
  std::vector<size_t> Frames;
};

/// Classifies a back end's reasonUnknown() string: timeout/cancel/
/// resource words are Timeout, everything else Incomplete.
FailureClass classifyUnknownReason(std::string_view Reason);

} // namespace resil
} // namespace sharpie

#endif // SHARPIE_RESIL_RESIL_H
