//===- resil/Resil.cpp - Supervised SMT solving -------------------------------===//
//
// Part of sharpie. See Resil.h.
//
//===----------------------------------------------------------------------===//

#include "resil/Resil.h"

#include <algorithm>
#include <climits>
#include <thread>

using namespace sharpie;
using namespace sharpie::resil;
using smt::SatResult;

const char *sharpie::resil::failureClassName(FailureClass C) {
  switch (C) {
  case FailureClass::None:
    return "none";
  case FailureClass::Timeout:
    return "timeout";
  case FailureClass::Incomplete:
    return "incomplete";
  case FailureClass::InjectedFault:
    return "injected_fault";
  case FailureClass::SolverException:
    return "solver_exception";
  case FailureClass::BudgetExhausted:
    return "budget_exhausted";
  case FailureClass::CorruptStore:
    return "corrupt_store";
  }
  return "?";
}

FailureClass sharpie::resil::classifyUnknownReason(std::string_view Reason) {
  for (const char *W : {"timeout", "canceled", "cancelled", "budget",
                        "resource", "max. memory"})
    if (Reason.find(W) != std::string_view::npos)
      return FailureClass::Timeout;
  return FailureClass::Incomplete;
}

SupervisedSolver::SupervisedSolver(
    std::unique_ptr<smt::SmtSolver> Primary, Factory Fallback,
    FaultInjector *Faults, const char *Site, obs::TraceBuffer *TB,
    std::chrono::steady_clock::time_point Deadline)
    : Primary(std::move(Primary)), MakeFallback(std::move(Fallback)),
      Faults(Faults), Site(Site), TB(TB), Deadline(Deadline) {}

void SupervisedSolver::bump(const char *Ctr) {
  if (TB)
    TB->counter(Ctr, 1);
}

void SupervisedSolver::push() {
  Frames.push_back(Trail.size());
  Fallback.reset();
  Answered = nullptr;
  Primary->push();
}

void SupervisedSolver::pop() {
  if (!Frames.empty()) {
    Trail.resize(Frames.back());
    Frames.pop_back();
  }
  Fallback.reset();
  Answered = nullptr;
  Primary->pop();
}

void SupervisedSolver::add(logic::Term T) {
  Trail.push_back(T);
  Fallback.reset();
  Answered = nullptr;
  Primary->add(T);
}

void SupervisedSolver::setTimeoutMs(unsigned Ms) { BaseTimeoutMs = Ms; }

std::unique_ptr<smt::SmtModel> SupervisedSolver::model() {
  return (Answered ? Answered : Primary.get())->model();
}

long long SupervisedSolver::remainingBudgetMs() const {
  if (Deadline == std::chrono::steady_clock::time_point::max())
    return LLONG_MAX;
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Deadline - std::chrono::steady_clock::now())
      .count();
}

void SupervisedSolver::applyTimeout(smt::SmtSolver &S, unsigned Ms,
                                    unsigned &Applied) {
  // setTimeoutMs is not free on Z3 (a param-set per call); skip the call
  // when the effective value is unchanged -- on the fault-free path with
  // no global budget that is every check after the first.
  if (Ms == Applied || (Ms == 0 && Applied == ~0u))
    return;
  S.setTimeoutMs(Ms);
  Applied = Ms;
}

void SupervisedSolver::replayInto(smt::SmtSolver &S) {
  size_t Next = 0;
  for (size_t F = 0; F <= Frames.size(); ++F) {
    size_t End = F < Frames.size() ? Frames[F] : Trail.size();
    for (; Next < End; ++Next)
      S.add(Trail[Next]);
    if (F < Frames.size())
      S.push();
  }
}

SatResult SupervisedSolver::checkOnce(smt::SmtSolver &S, unsigned EffTimeoutMs,
                                      FailureClass &Class,
                                      const std::vector<logic::Term> *A) {
  // Assumption-based checks draw faults from their own site so a chaos
  // plan can stress core queries without also hitting plain checks.
  const char *EffSite = A ? "smt_check_assuming" : Site;
  if (Faults) {
    FaultDecision D = Faults->next(EffSite);
    switch (D.Kind) {
    case FaultKind::None:
      break;
    case FaultKind::Latency:
      bump("faults_injected");
      std::this_thread::sleep_for(std::chrono::milliseconds(D.LatencyMs));
      break;
    case FaultKind::Throw:
      bump("faults_injected");
      throw InjectedFault(EffSite);
    case FaultKind::Timeout:
      // An injected timeout is indistinguishable from a real one to the
      // retry loop: it is retried with backoff and may be rescued.
      bump("faults_injected");
      Class = FailureClass::Timeout;
      return SatResult::Unknown;
    case FaultKind::Unknown:
      bump("faults_injected");
      Class = FailureClass::InjectedFault;
      return SatResult::Unknown;
    }
  }
  unsigned Applied = ~0u;
  applyTimeout(S, EffTimeoutMs,
               &S == Primary.get() ? PrimaryTimeoutApplied : Applied);
  auto T0 = std::chrono::steady_clock::now();
  SatResult R;
  try {
    R = A ? S.checkAssuming(*A) : S.check();
  } catch (const std::exception &) {
    // Both back ends contain their own exceptions; this catches a truly
    // misbehaving solver so one check cannot abort the search.
    bump("solver_exceptions");
    Class = FailureClass::SolverException;
    return SatResult::Unknown;
  }
  if (R == SatResult::Unknown) {
    Class = classifyUnknownReason(S.reasonUnknown());
    if (Class == FailureClass::Incomplete && EffTimeoutMs) {
      // No usable reason string: near-deadline elapsed time means timeout.
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      if (Ms >= 0.9 * EffTimeoutMs)
        Class = FailureClass::Timeout;
    }
  }
  return R;
}

SatResult SupervisedSolver::check() {
  ++NumChecks;
  LastFailure = FailureClass::None;
  return checkSupervised(nullptr);
}

SatResult
SupervisedSolver::checkAssuming(const std::vector<logic::Term> &A) {
  ++NumChecks;
  LastFailure = FailureClass::None;
  LastAssumptions = A;
  // Clear the answer pointer up front: a faulted/Unknown core query must
  // make unsatCore() fall back to the full assumption list, not a stale
  // core from an earlier answer.
  Answered = nullptr;
  return checkSupervised(&A);
}

std::vector<logic::Term> SupervisedSolver::unsatCore() const {
  return Answered ? Answered->unsatCore() : LastAssumptions;
}

SatResult
SupervisedSolver::checkSupervised(const std::vector<logic::Term> *A) {
  long long Rem = remainingBudgetMs();
  if (Rem <= 0) {
    LastFailure = FailureClass::BudgetExhausted;
    return SatResult::Unknown;
  }

  // Hard cap on any single check's timeout, backoff included.
  constexpr double MaxCheckTimeoutMs = 120000;
  auto Effective = [&](double SliceMs, long long RemMs) -> unsigned {
    double Eff = SliceMs > 0 ? std::min(SliceMs, MaxCheckTimeoutMs) : 0;
    if (RemMs != LLONG_MAX) {
      double R = std::max(1.0, double(RemMs));
      Eff = Eff > 0 ? std::min(Eff, R) : R;
    }
    return static_cast<unsigned>(Eff);
  };

  // Extra attempts on the primary back end after a timeout-class Unknown,
  // each with the slice grown by the backoff factor. Incompleteness is
  // not retried (the fragment will not change); it escalates straight to
  // the fallback.
  constexpr unsigned MaxRetries = 1;
  constexpr double BackoffFactor = 2.0;
  FailureClass Class = FailureClass::None;
  double Slice = BaseTimeoutMs;
  for (unsigned Attempt = 0;; ++Attempt) {
    SatResult R = checkOnce(*Primary, Effective(Slice, Rem), Class, A);
    if (R != SatResult::Unknown) {
      Answered = Primary.get();
      return R;
    }
    if (Class == FailureClass::Timeout)
      bump("unknown_timeouts");
    else if (Class == FailureClass::Incomplete ||
             Class == FailureClass::InjectedFault)
      bump("unknown_incomplete");
    // Only timeout-class Unknowns are worth retrying on the same back
    // end: incompleteness is deterministic in the query.
    if (Class != FailureClass::Timeout || Attempt >= MaxRetries)
      break;
    Rem = remainingBudgetMs();
    if (Rem <= 0) {
      Class = FailureClass::BudgetExhausted;
      break;
    }
    bump("retries");
    Slice = Slice > 0 ? Slice * BackoffFactor : Slice;
  }

  if (MakeFallback && Class != FailureClass::BudgetExhausted) {
    Rem = remainingBudgetMs();
    if (Rem > 0) {
      bump("fallbacks");
      Fallback = MakeFallback();
      replayInto(*Fallback);
      FailureClass FbClass = FailureClass::None;
      SatResult R = checkOnce(*Fallback, Effective(BaseTimeoutMs, Rem),
                              FbClass, A);
      if (R != SatResult::Unknown) {
        Answered = Fallback.get();
        return R;
      }
      if (FbClass == FailureClass::Timeout)
        bump("unknown_timeouts");
      else if (FbClass == FailureClass::Incomplete ||
               FbClass == FailureClass::InjectedFault)
        bump("unknown_incomplete");
    } else {
      Class = FailureClass::BudgetExhausted;
    }
  }

  LastFailure = Class == FailureClass::None ? FailureClass::Incomplete : Class;
  return SatResult::Unknown;
}
