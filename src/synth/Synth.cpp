//===- synth/Synth.cpp - The #Pi invariant synthesis driver -------------------===//
//
// Part of sharpie. See Synth.h.
//
// The set-tuple search (the outer loop of paper Fig. 5) is one rank-cursor
// loop at every width (SynthOptions::NumWorkers): the calling thread is
// worker 0 and pool threads are workers 1..W-1, each claiming the next
// rank from an atomic cursor. Every tuple attempt builds a private world
// -- a TermManager, the system cloned into it, the pool, states and set
// bodies translated into it, and its own SMT solvers -- and drops it when
// the attempt ends, so hash-consing tables and solver state need no locks
// and an attempt cannot see which tuples ran before it. The only shared
// mutable state is the cursor, the best-verified-rank watermark, the
// mutex-guarded per-rank outcome table, and a caller-supplied reduction
// cache. Results merge by rank: the lowest-ranked verified tuple wins, so
// the invariant is independent of thread timing and of the width (see
// DESIGN.md, "Parallel search & determinism").
//
//===----------------------------------------------------------------------===//

#include "synth/Synth.h"

#include "bounded/Bounded.h"
#include "engine/Pool.h"
#include "front/Front.h"
#include "logic/TermOps.h"
#include "quant/Quant.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>

using namespace sharpie;
using namespace sharpie::synth;
using logic::Kind;
using logic::Sort;
using logic::Subst;
using logic::Term;
using logic::TermManager;
using smt::SatResult;

Formals sharpie::synth::formalsFor(TermManager &M,
                                   const ShapeTemplate &Shape) {
  return makeFormals(M, Shape); // Deterministic names: same vars each call.
}

SynthOptions sharpie::synth::optionsFor(const front::FrontBundle &B) {
  SynthOptions O;
  O.Shape = B.Shape;
  O.QGuard = B.QGuard;
  O.Reduce.Card.Venn = B.NeedsVenn;
  O.Explicit = B.Explicit;
  return O;
}

namespace {

/// True when \p A mentions neither a template quantifier nor a counter
/// formal of \p F (e.g. "n >= 2"): such an atom holds outside the
/// template quantifier.
bool isGlobalAtom(const Formals &F, Term A) {
  for (Term V : logic::freeVars(A)) {
    if (std::find(F.Q.begin(), F.Q.end(), V) != F.Q.end())
      return false;
    if (std::find(F.K.begin(), F.K.end(), V) != F.K.end())
      return false;
  }
  return true;
}

} // namespace

Term sharpie::synth::closedInvariant(TermManager &M, const Formals &F,
                                     Term QGuard,
                                     const std::vector<Term> &SetBodies,
                                     const std::vector<Term> &Atoms) {
  Subst KSub;
  for (size_t I = 0; I < SetBodies.size(); ++I)
    KSub[F.K[I]] = M.mkCard(F.BoundVar, SetBodies[I]);
  std::vector<Term> GlobalAs, QuantAs;
  for (Term A : Atoms)
    (isGlobalAtom(F, A) ? GlobalAs : QuantAs)
        .push_back(logic::substitute(M, A, KSub));
  Term Inner = M.mkAnd(QuantAs);
  if (!QGuard.isNull())
    Inner = M.mkImplies(QGuard, Inner);
  Term Quant = F.Q.empty() ? Inner : M.mkForall(F.Q, Inner);
  return M.mkAnd(M.mkAnd(GlobalAs), Quant);
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Sets the count fields of \p S from the counters and the phase times
/// from the span totals, each as the total in \p After minus the total in
/// \p Before: a tracer shared across runs keeps counting, so the
/// difference is one run's share (absent reads as 0). Utilization divides
/// the busy "tuple" seconds by S.NumWorkers times \p SearchWall (1.0
/// without a search). The only writer of these fields.
void deriveCounts(SynthStats &S, const obs::MetricsSummary &Before,
                  const obs::MetricsSummary &After, double SearchWall) {
  auto Count = [&](const char *Name) -> uint64_t {
    auto Total = [Name](const obs::MetricsSummary &MS) -> int64_t {
      const int64_t *V = MS.counter(Name);
      return V ? *V : 0;
    };
    return static_cast<uint64_t>(Total(After) - Total(Before));
  };
  auto Seconds = [&](const char *Name) {
    return After.span(Name).Seconds - Before.span(Name).Seconds;
  };
  S.TuplesTried = Count("tuples_tried");
  S.TuplesScreened = Count("tuples_screened");
  S.SmtChecks = Count("smt_checks");
  S.ExplicitStates = Count("explicit_states");
  S.CacheHits = Count("reduce_cache_hits");
  S.CacheMisses = Count("reduce_cache_misses");
  S.Retries = Count("retries");
  S.Fallbacks = Count("fallbacks");
  S.FaultsInjected = Count("faults_injected");
  S.UnknownTimeouts = Count("unknown_timeouts");
  S.UnknownIncomplete = Count("unknown_incomplete");
  S.SolverExceptions = Count("solver_exceptions");
  S.TuplesSkipped = Count("tuples_skipped");
  S.WorkerExceptions = Count("worker_exceptions");
  S.ExplicitSeconds = Seconds("explicit");
  S.EnumerateSeconds = Seconds("enumerate");
  S.PrefilterSeconds = Seconds("prefilter");
  S.ReduceSeconds = Seconds("build_clauses");
  S.HoudiniSeconds = Seconds("houdini") + Seconds("minimize");
  S.RecheckSeconds = Seconds("recheck");
  S.WorkerUtilization =
      SearchWall > 0 ? Seconds("tuple") / (S.NumWorkers * SearchWall) : 1.0;
}

/// One instantiated occurrence of the unknown inv_0 in a reduced clause.
///
/// The invariant is split as  InvGlobal AND forall q: QGuard -> (meas AND
/// inv_0), where InvGlobal collects the atoms mentioning neither template
/// quantifiers nor counters (e.g. "n >= 2"); without the split such facts
/// would be trapped under the quantifier guard and unusable to discharge
/// the guard itself.
struct PlaceholderInst {
  Term P;          ///< Opaque Bool variable in the ground formula.
  Subst AtomSubst; ///< Formals (and state for post occurrences) -> actuals.
  bool IsHead;     ///< The skolemized head occurrence (one per clause).
  bool GlobalOnly; ///< Stands for InvGlobal rather than inv_0.
};

struct ReducedClause {
  std::string Name;
  Term Ground;
  std::vector<PlaceholderInst> Insts;
  bool HasHead = false;
  bool IsSafety = false;
  /// The deferred-instance manifest of the clause's reduction
  /// (engine::ReduceResult::Deferred). Ground AND every entry is the full
  /// reduction; entries are asserted individually as candidate models
  /// violate them (incCheck's refinement loop).
  std::vector<Term> Deferred;
  /// Quantifier instances the reduction expanded into Ground; summed per
  /// Houdini check into the instantiations_per_check histogram.
  uint64_t NumInstances = 0;
};

/// True once the run's wall-clock budget is spent or the caller cancelled.
/// External cancellation rides the budget path: every "did the budget run
/// out?" poll also observes the caller's token, so a cancelled run winds
/// down exactly like a budget-exhausted one.
bool budgetExhausted(const SynthOptions &Opts,
                     std::chrono::steady_clock::time_point Deadline) {
  if (Opts.Cancel && Opts.Cancel->cancelled())
    return true;
  return std::chrono::steady_clock::now() > Deadline;
}

/// Everything a finished tuple attempt produces, in the attempt's own
/// TermManager.
struct TupleOutcome {
  bool Verified = false;
  std::vector<Term> Atoms;
  Term Invariant;
  std::string Why;
  /// Near-miss data: a Houdini check found a counterexample to the
  /// safety clause under the live atoms.
  bool HasPartial = false;
  std::vector<Term> PartialAtoms;
  std::string FailedOn;
  unsigned AtomsAfterPrefilter = 0; ///< Left by the explicit pre-filter.
};

/// The per-tuple pipeline (prefilter -> reduce -> Houdini -> recheck) of
/// one tuple attempt, over the system cloned into the attempt's world.
/// Every term, solver and Houdini context it builds lives in that world
/// and dies with it.
class Synthesizer {
public:
  /// \p TB is the attempt's worker buffer (trace rank W+1 on worker W),
  /// \p FaultRank the rank a `worker=N` fault trigger compares against
  /// (the same W+1), and \p Superseded tells a tuple that a lower rank
  /// already won.
  Synthesizer(sys::ParamSystem &Sys, const SynthOptions &Opts,
              std::chrono::steady_clock::time_point Deadline,
              obs::TraceBuffer *TB, unsigned FaultRank,
              std::function<bool()> Superseded)
      : Sys(Sys), M(Sys.manager()), Opts(Opts),
        F(makeFormals(M, Opts.Shape)), Deadline(Deadline), TB(TB),
        Superseded(std::move(Superseded)) {
    if (Opts.Supervise && Opts.Faults && !Opts.Faults->empty()) {
      Faults.emplace(*Opts.Faults);
      Faults->setWorker(FaultRank);
    }
  }

  /// Runs the pipeline on the tuple of rank \p Rank, inside the fault
  /// scope of that rank (the "worker_task" injection site fires first). An
  /// injected throw, like any exception, escapes to the attempt's
  /// containment in the driver.
  TupleOutcome tryTuple(size_t Rank, const std::vector<Term> &SetBodies,
                        const std::vector<Term> &Pool,
                        const std::vector<sys::ParamSystem::State> &States);

private:
  bool outOfTime() const { return budgetExhausted(Opts, Deadline); }

  /// True when this tuple attempt should stop early: the time budget ran
  /// out, or a lower-ranked tuple already verified.
  bool aborted() const { return outOfTime() || Superseded(); }

  std::vector<Term> prefilterAtoms(const std::vector<Term> &Pool,
                                   const std::vector<Term> &SetBodies,
                                   const std::vector<sys::ParamSystem::State>
                                       &States) const;

  // -- Clause construction (INSTQ + measurements + placeholders) ---------------
  /// Deterministic clause-local variables: the same (clause, position)
  /// always names the same variable, so rebuilding a clause for the same
  /// set tuple yields the same formula in every world, which is what a
  /// caller's content-keyed reduction cache matches on. '$' keeps the
  /// namespace disjoint from protocol variables and freshVar's "!" names.
  Term clauseVar(const char *Base, const std::string &CN, unsigned &Ctr,
                 Sort S) {
    return M.mkVar(std::string(Base) + "$" + CN + "$" + std::to_string(Ctr++),
                   S);
  }
  Term cardAt(const std::vector<Term> &SetBodies, size_t I,
              const std::vector<Term> &Sigma, bool Post) const;
  Term qGuardAt(const std::vector<Term> &Sigma) const;
  void addInvInstance(const std::vector<Term> &SetBodies,
                      const std::vector<Term> &Sigma, bool Post, bool IsHead,
                      const std::string &CN, unsigned &Ctr,
                      std::vector<Term> &Conj,
                      std::vector<PlaceholderInst> &Insts);
  std::vector<std::vector<Term>>
  bodyInstances(const std::vector<Term> &HeadSk, bool IsTrans,
                const std::vector<Term> &ExtraTids,
                const std::vector<Term> &ExtraInts) const;
  std::vector<ReducedClause>
  buildClauses(const std::vector<Term> &SetBodies, smt::SmtSolver *Oracle);

  // -- SOLVE (incremental, assumption-based Houdini over the atom pool) ---------
  //
  // Per tuple, ALL reduced clauses are asserted ONCE into one merged
  // solver context, each behind a selector literal (sel[i] -> ground_i),
  // with every placeholder tied to per-atom indicator variables
  // (ind[k] <=> atom k is live) and Or(sel_0..sel_n) asserted. A Houdini
  // iteration is then ONE checkAssuming over the indicator literals:
  // Unsat means no clause -- the safety clause included -- has a
  // counterexample under the live set, so the fixpoint and the safety
  // verdict arrive in a single answer, while a Sat model names the
  // violated clauses through their selectors and refutes atoms in every
  // one of them at once. A model that violates the safety clause ends the
  // tuple immediately: the candidate occurs only positively in the safety
  // body, so that counterexample survives every later drop and the
  // eventual fixpoint would reject the tuple anyway. Selectors are
  // asserted, never assumed, so unsat cores range over pure indicator
  // literals; while the recorded core is consistent with the live set the
  // merged context is provably still Unsat and minimize accepts removals
  // without a solver call ("core_drops"). Clauses are built with the
  // partitioned reduction (a core ground plus a deferred manifest); a
  // model that survives the core is refined against the manifest before
  // it is trusted -- every accepting answer is an Unsat (sound under the
  // weaker core) and every counterexample satisfies the full reduction,
  // which is why verdicts and invariants match the eager grounding
  // (RefineBudget = 0).
  struct IncCtx {
    std::vector<Term> Atoms; ///< Candidate pool, fixing indicator indices.
    std::vector<Term> Ind;   ///< Ind[k]: atom k is live.
    std::map<Term, size_t> IndIndex; ///< Ind[k] -> k, for core mapping.
    std::vector<char> Live;
    /// The tuple's merged context: every clause ground behind its
    /// selector, the indicator-guarded placeholder definitions, and the
    /// selector disjunction, asserted once.
    std::unique_ptr<smt::SmtSolver> S;
    std::vector<Term> Sel; ///< Sel[i] guards clause i's ground.
    /// FullAsserted[i]: clause i's whole manifest is asserted (from the
    /// start when it has none), so its ground is the full reduction.
    std::vector<char> FullAsserted;
    /// InstSel[i] guards clause i's refinement conjuncts
    /// (houdini$inst$<i>). Sel[i] -> InstSel[i] is asserted at setup, so
    /// manifest items asserted as InstSel[i] -> item bind exactly when the
    /// clause is selected and retract with it.
    std::vector<Term> InstSel;
    /// DefAsserted[i][j] marks clause i's manifest entry j as already
    /// asserted into the live context.
    std::vector<std::vector<char>> DefAsserted;
    size_t SafetyIdx = static_cast<size_t>(-1);
    /// Unsat core of the last Unsat answer, as (atom index, assumed
    /// polarity) pairs over the indicator literals. Empty is valid (the
    /// guarded grounds alone are Unsat) and stays consistent forever.
    std::vector<std::pair<size_t, bool>> Core;
    bool CoreKnown = false;
    unsigned Checks = 0; ///< Checks answered by this context.
    /// Quantifier instances asserted into the merged context so far (core
    /// grounds at setup plus asserted manifest entries); sampled per
    /// incCheck as instantiations_per_check.
    uint64_t Instances = 0;
  };

  /// Opts.Reduce's axiom families in reduction mode \p Mode: Manifest for
  /// the clauses of the refinement loop, Filtered then Full for the
  /// recheck (engine::ReduceMode).
  engine::ReduceOptions reduceOptions(engine::ReduceMode Mode) const {
    engine::ReduceOptions RO = Opts.Reduce;
    RO.Mode = Mode;
    return RO;
  }
  void incSetup(const std::vector<ReducedClause> &Clauses,
                const std::vector<Term> &Cand);
  std::vector<Term> incAssumptions() const;
  bool coreConsistent() const;
  void incRecordCore();
  /// Asserts every not-yet-asserted manifest entry of clause \p CI -- the
  /// full grounding, reached without a re-reduction because core AND
  /// manifest is the full reduction by construction.
  void assertAllDeferred(const ReducedClause &C, size_t CI);
  /// Fully grounds every clause with pending manifest entries that
  /// \p Model elects (every pending clause when \p Model is null).
  /// Returns true when any clause was grounded.
  bool groundPending(const std::vector<ReducedClause> &Clauses,
                     smt::SmtModel *Model);
  /// One refinement round against a surviving candidate model: evaluates
  /// every selected clause's pending manifest entries under \p Model and
  /// asserts exactly the violated ones (a clause whose model evaluation
  /// fails degrades to assertAllDeferred -- never an unsound keep).
  /// Returns true when anything was asserted (the model is refuted and the
  /// caller must re-check); false certifies the model against the full
  /// reduction of every selected clause.
  bool refineAgainstModel(const std::vector<ReducedClause> &Clauses,
                          smt::SmtModel &Model, unsigned Round);
  /// One assumption-based check of the merged context, with the
  /// refinement loop folded in: an Unsat records the core; a returned Sat
  /// comes with a model that satisfies every selected clause's whole
  /// manifest, so the model is a genuine counterexample for every clause
  /// it selects.
  SatResult incCheck(const std::vector<ReducedClause> &Clauses,
                     const char *Hist,
                     std::unique_ptr<smt::SmtModel> &Model);
  std::vector<Term> liveAtoms() const;
  bool houdini(const std::vector<ReducedClause> &Clauses,
               std::vector<Term> &Cand, TupleOutcome &Out);
  void minimizeAtoms(const std::vector<ReducedClause> &Clauses,
                     std::vector<Term> &Cand);
  Term substitutedClause(const ReducedClause &C,
                         const std::vector<Term> &Cand) const;
  Term closedInvariant(const std::vector<Term> &SetBodies,
                       const std::vector<Term> &Atoms) const;
  bool recheck(Term Inv, const std::vector<sys::ParamSystem::State> &States,
               std::string &Why);
  /// The bounded-N screen (DESIGN.md Sec. 4, "Bounded-N tuple screen"):
  /// Houdini over \p Cand on the N-thread instance, N the explicit
  /// instance size. True when a model satisfies every surviving atom and
  /// violates safety at N: the tuple cannot verify, and \p Out says why.
  /// False when the survivors imply safety at N, and on every unknown --
  /// a formula without an exact encoding, a solver Unknown or timeout, an
  /// exception, aborted() -- so the tuple runs as if unscreened.
  bool screenRejects(const std::vector<Term> &SetBodies,
                     const std::vector<Term> &Cand, TupleOutcome &Out);

  /// Builds this attempt's standard solver stack for injection site
  /// \p Site: supervised Z3 with a MiniSolver fallback factory, wired to
  /// this attempt's injector, trace buffer and deadline.
  /// With supervision disabled, the bare Z3 back end (the A/B baseline).
  std::unique_ptr<smt::SmtSolver> makeSolver(const char *Site);

  sys::ParamSystem &Sys;
  TermManager &M;
  const SynthOptions &Opts; ///< With QGuard translated into the world.
  Formals F;
  /// The merged per-tuple Houdini context.
  IncCtx Inc;
  std::chrono::steady_clock::time_point Deadline;
  /// Engaged when a non-empty fault plan is configured (and supervision
  /// is on). One injector per attempt, scoped to the attempt's rank.
  std::optional<resil::FaultInjector> Faults;
  /// The attempt's trace buffer (rank W+1 on worker W); its counters are
  /// the only tally of the run's counts.
  obs::TraceBuffer *TB;
  std::function<bool()> Superseded;
};

/// One tuple attempt's world: a private TermManager and the system cloned
/// into it. Every term of the attempt lives here; the world is dropped
/// when the attempt ends, except the winner's, which the merge translates
/// back into the caller's manager.
struct World {
  TermManager M;
  std::unique_ptr<sys::ParamSystem> Sys;
};

/// The run's driver (paper Fig. 5's outer loop) on trace rank 0: explicit
/// exploration, enumeration and tuple ranking in the caller's manager,
/// then the rank-cursor search over per-attempt worlds, and the merge.
class Search {
public:
  Search(sys::ParamSystem &Sys, const SynthOptions &Opts)
      : Sys(Sys), M(Sys.manager()), Opts(Opts),
        F(makeFormals(M, Opts.Shape)),
        Deadline(Opts.TimeBudgetSeconds > 0
                     ? std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   Opts.TimeBudgetSeconds))
                     : std::chrono::steady_clock::time_point::max()) {}

  SynthResult run();

private:
  bool outOfTime() const { return budgetExhausted(Opts, Deadline); }

  std::vector<std::vector<size_t>> rankTuples(
      const std::vector<SetCandidate> &Cands) const;

  /// The rank-cursor loop over the ranked tuples on \p Workers workers,
  /// and the rank-ordered merge into \p Res.
  void searchTuples(unsigned Workers,
                    const std::vector<std::vector<Term>> &TupleBodies,
                    const std::vector<Term> &Pool,
                    const std::vector<sys::ParamSystem::State> &States,
                    SynthResult &Res);

  /// One tuple attempt on worker \p W, inside its "tuple" span (the
  /// worker's busy time): builds the world \p Wd (the clone, and the
  /// pool, states and set bodies translated into it) and runs the
  /// pipeline there, all inside the exception containment -- a throw
  /// anywhere, world construction included, marks the tuple skipped (with
  /// the reason recorded) and the search continues.
  TupleOutcome attempt(unsigned W, size_t Rank,
                       const std::vector<Term> &SetBodies,
                       const std::vector<Term> &Pool,
                       const std::vector<sys::ParamSystem::State> &States,
                       std::function<bool()> Superseded,
                       std::unique_ptr<World> &Wd);

  /// Fills \p Res.Stats at the end of the run: the search's stats, the
  /// wall time since \p Start, the tracer's metrics, and the counts and
  /// phase seconds derived from them against \p Before (the metrics when
  /// the run began).
  void finish(SynthResult &Res, const obs::MetricsSummary &Before,
              std::chrono::steady_clock::time_point Start);

  sys::ParamSystem &Sys;
  TermManager &M;
  SynthOptions Opts;
  Formals F;
  std::chrono::steady_clock::time_point Deadline;
  SynthStats Stats;
  /// Wall time of the rank-cursor search; 0 when the run ended before it.
  double SearchWall = 0;
  /// The driver's trace buffer, rank 0.
  obs::TraceBuffer *TB = nullptr;
};

// -- Tuple ranking ---------------------------------------------------------------

std::vector<std::vector<size_t>>
Search::rankTuples(const std::vector<SetCandidate> &Cands) const {
  unsigned m = Opts.Shape.NumSets;
  std::vector<std::vector<size_t>> Tuples;
  if (m == 0) {
    Tuples.push_back({});
    return Tuples;
  }
  // Select the candidate pool with per-origin diversity: a strict global
  // rank cut lets one prolific bucket (e.g. guard+pc conjunctions) crowd
  // out the quantifier-relative sets that quantified templates need.
  constexpr size_t MaxCandidateSets = 24; // Top-ranked set bodies kept.
  std::vector<size_t> Selected;
  {
    std::map<std::string, std::vector<size_t>> ByOrigin;
    std::vector<std::string> OriginOrder;
    for (size_t I = 0; I < Cands.size(); ++I) {
      auto It = ByOrigin.find(Cands[I].Origin);
      if (It == ByOrigin.end()) {
        OriginOrder.push_back(Cands[I].Origin);
        It = ByOrigin.emplace(Cands[I].Origin, std::vector<size_t>()).first;
      }
      It->second.push_back(I); // Cands is already rank-sorted.
    }
    for (size_t Round = 0; Selected.size() < MaxCandidateSets;
         ++Round) {
      bool Any = false;
      for (const std::string &O : OriginOrder) {
        const std::vector<size_t> &Bucket = ByOrigin[O];
        if (Round < Bucket.size() &&
            Selected.size() < MaxCandidateSets) {
          Selected.push_back(Bucket[Round]);
          Any = true;
        }
      }
      if (!Any)
        break;
    }
  }

  // A set body "covers" a template quantifier if the quantifier occurs in
  // it; tuples must jointly cover all template quantifiers, otherwise the
  // declared shape is not exercised.
  auto Covers = [&](size_t I, Term Q) {
    return logic::freeVars(Cands[I].Body).count(Q) != 0;
  };

  std::vector<size_t> Idx(m);
  std::function<void(size_t, size_t)> Rec = [&](size_t Pos, size_t Start) {
    if (Pos == m) {
      for (Term Q : F.Q) {
        bool Covered = false;
        for (size_t I : Idx)
          if (Covers(I, Q))
            Covered = true;
        if (!Covered)
          return;
      }
      Tuples.push_back(Idx);
      return;
    }
    for (size_t I = Start; I < Selected.size(); ++I) {
      Idx[Pos] = Selected[I];
      Rec(Pos + 1, I + 1);
    }
  };
  Rec(0, 0);
  std::stable_sort(Tuples.begin(), Tuples.end(),
                   [&](const std::vector<size_t> &A,
                       const std::vector<size_t> &B) {
                     int RA = 0, RB = 0;
                     for (size_t I : A)
                       RA += Cands[I].Rank;
                     for (size_t I : B)
                       RB += Cands[I].Rank;
                     return RA < RB;
                   });
  if (Tuples.size() > Opts.MaxTuples)
    Tuples.resize(Opts.MaxTuples);
  return Tuples;
}

// -- Explicit pre-filter ------------------------------------------------------------

std::vector<Term> Synthesizer::prefilterAtoms(
    const std::vector<Term> &Pool, const std::vector<Term> &SetBodies,
    const std::vector<sys::ParamSystem::State> &States) const {
  std::vector<Term> Out;
  // Bind counter formals to the cardinality terms themselves so the finite
  // evaluator counts exactly.
  Subst KSub;
  for (size_t I = 0; I < SetBodies.size(); ++I)
    KSub[F.K[I]] = M.mkCard(F.BoundVar, SetBodies[I]);
  for (Term A : Pool) {
    Term Inner = logic::substitute(M, A, KSub);
    if (!Opts.QGuard.isNull())
      Inner = M.mkImplies(Opts.QGuard, Inner);
    Term Quantified = F.Q.empty() ? Inner : M.mkForall(F.Q, Inner);
    bool Holds = true;
    for (const sys::ParamSystem::State &S : States) {
      logic::Evaluator Ev(S);
      if (!Ev.evalBool(Quantified)) {
        Holds = false;
        break;
      }
    }
    if (Holds)
      Out.push_back(A);
  }
  return Out;
}

// -- Clause construction -------------------------------------------------------------

Term Synthesizer::cardAt(const std::vector<Term> &SetBodies, size_t I,
                         const std::vector<Term> &Sigma, bool Post) const {
  Subst S;
  for (size_t J = 0; J < F.Q.size(); ++J)
    S[F.Q[J]] = Sigma[J];
  if (Post)
    for (const auto &[Pre, Prim] : Sys.primeSubst())
      S[Pre] = Prim;
  return M.mkCard(F.BoundVar, logic::substitute(M, SetBodies[I], S));
}

Term Synthesizer::qGuardAt(const std::vector<Term> &Sigma) const {
  if (Opts.QGuard.isNull())
    return M.mkTrue();
  Subst S;
  for (size_t J = 0; J < F.Q.size(); ++J)
    S[F.Q[J]] = Sigma[J];
  return logic::substitute(M, Opts.QGuard, S);
}

void Synthesizer::addInvInstance(const std::vector<Term> &SetBodies,
                                 const std::vector<Term> &Sigma, bool Post,
                                 bool IsHead, const std::string &CN,
                                 unsigned &Ctr, std::vector<Term> &Conj,
                                 std::vector<PlaceholderInst> &Insts) {
  PlaceholderInst Inst;
  Inst.IsHead = IsHead;
  Inst.GlobalOnly = false;
  for (size_t I = 0; I < SetBodies.size(); ++I) {
    Term KV = clauseVar("k_inst", CN, Ctr, Sort::Int);
    Conj.push_back(M.mkEq(cardAt(SetBodies, I, Sigma, Post), KV));
    Inst.AtomSubst[F.K[I]] = KV;
  }
  for (size_t J = 0; J < F.Q.size(); ++J)
    Inst.AtomSubst[F.Q[J]] = Sigma[J];
  if (Post)
    for (const auto &[Pre, Prim] : Sys.primeSubst())
      Inst.AtomSubst[Pre] = Prim;
  Term Guard = qGuardAt(Sigma);
  Inst.P = clauseVar(IsHead ? "P_head" : "P_body", CN, Ctr, Sort::Bool);
  if (IsHead) {
    // !Inv' = !InvGlobal' \/ exists q: QGuard /\ !inv_0; the measurement
    // equations above are definitional and stay conjoined.
    PlaceholderInst Glob;
    Glob.IsHead = false;
    Glob.GlobalOnly = true;
    Glob.P = clauseVar("P_head_glob", CN, Ctr, Sort::Bool);
    if (Post)
      Glob.AtomSubst = Sys.primeSubst();
    Conj.push_back(M.mkOr(M.mkNot(Glob.P),
                          M.mkAnd(Guard, M.mkNot(Inst.P))));
    Insts.push_back(std::move(Glob));
  } else {
    // Body occurrence: the global part holds unconditionally (added once
    // per clause), the quantified part under its instance guard.
    bool HaveGlob = false;
    for (const PlaceholderInst &Prev : Insts)
      if (Prev.GlobalOnly && !Prev.IsHead && Prev.AtomSubst.empty() == !Post)
        HaveGlob = true;
    if (!HaveGlob) {
      PlaceholderInst Glob;
      Glob.IsHead = false;
      Glob.GlobalOnly = true;
      Glob.P = clauseVar("P_body_glob", CN, Ctr, Sort::Bool);
      if (Post)
        Glob.AtomSubst = Sys.primeSubst();
      Conj.push_back(Glob.P);
      Insts.push_back(std::move(Glob));
    }
    Conj.push_back(M.mkImplies(Guard, Inst.P));
  }
  Insts.push_back(std::move(Inst));
}

std::vector<std::vector<Term>>
Synthesizer::bodyInstances(const std::vector<Term> &HeadSk, bool IsTrans,
                           const std::vector<Term> &ExtraTids,
                           const std::vector<Term> &ExtraInts) const {
  // Per-position candidate terms.
  std::vector<std::vector<Term>> PerPos;
  for (size_t J = 0; J < F.Q.size(); ++J) {
    std::vector<Term> L;
    // Every head skolem of matching sort: mutual-exclusion style proofs
    // need the symmetric instance (q2, q1) as well as (q1, q2).
    for (size_t J2 = 0; J2 < HeadSk.size(); ++J2)
      if (F.Q[J2].sort() == F.Q[J].sort())
        L.push_back(HeadSk[J2]);
    if (F.Q[J].sort() == Sort::Tid) {
      if (IsTrans && Sys.mode() == sys::Composition::Async)
        L.push_back(Sys.self());
      for (Term T : ExtraTids)
        L.push_back(T);
    } else {
      for (Term T : ExtraInts)
        L.push_back(T);
      if (IsTrans) {
        // Globals and their successors: unlock's s+1 is the ticket lock's
        // pivotal instance of the per-ticket counting quantifier.
        for (Term G : Sys.globals()) {
          L.push_back(G);
          L.push_back(M.mkAdd(G, M.mkInt(1)));
        }
        if (Sys.mode() == sys::Composition::Async)
          for (Term Loc : Sys.locals()) {
            L.push_back(M.mkRead(Loc, Sys.self()));
            L.push_back(M.mkAdd(M.mkRead(Loc, Sys.self()), M.mkInt(1)));
          }
      }
    }
    // Deduplicate, preserving order.
    std::vector<Term> U;
    for (Term T : L)
      if (std::find(U.begin(), U.end(), T) == U.end())
        U.push_back(T);
    PerPos.push_back(U);
  }
  // Bounded product: the INSTQ budget per clause.
  constexpr size_t MaxBodyInstances = 12;
  std::vector<std::vector<Term>> Out;
  std::vector<Term> Cur(F.Q.size());
  std::function<void(size_t)> Rec = [&](size_t Pos) {
    if (Out.size() >= MaxBodyInstances)
      return;
    if (Pos == F.Q.size()) {
      Out.push_back(Cur);
      return;
    }
    for (Term T : PerPos[Pos]) {
      Cur[Pos] = T;
      Rec(Pos + 1);
    }
  };
  Rec(0);
  return Out;
}

std::vector<ReducedClause>
Synthesizer::buildClauses(const std::vector<Term> &SetBodies,
                          smt::SmtSolver *Oracle) {
  std::vector<ReducedClause> Out;
  auto Externals = Sys.externalCounters();

  // Template-quantifier instances live only inside placeholder
  // substitutions, so the reduction cannot see them; hand them to the
  // index sets explicitly (without this, a cardinality-free clause never
  // instantiates the system's universals at the head skolems).
  auto InstanceTerms = [&](const std::vector<PlaceholderInst> &Insts) {
    std::vector<Term> Extra;
    for (const PlaceholderInst &I : Insts)
      for (Term Q : F.Q) {
        auto It = I.AtomSubst.find(Q);
        if (It != I.AtomSubst.end())
          Extra.push_back(It->second);
      }
    return Extra;
  };

  auto MakeHeadSk = [&](const std::string &CN, unsigned &Ctr) {
    std::vector<Term> Sk;
    for (Term Q : F.Q)
      Sk.push_back(clauseVar("q_hd", CN, Ctr, Q.sort()));
    return Sk;
  };

  // Every clause is reduced in manifest mode: the full reduction split
  // into a core ground plus a deferred-instance manifest, whose entries
  // model-guided refinement asserts on demand.
  const engine::ReduceOptions BuildRO =
      reduceOptions(engine::ReduceMode::Manifest);
  auto Reduce = [&](ReducedClause &C, const std::vector<Term> &Conj) {
    obs::Span Sp(TB, "reduce_clause", [&] { return C.Name; });
    Term Raw = M.mkAnd(Conj);
    engine::ReduceResult R = engine::reduceToGroundCached(
        Opts.ReuseReduceCache, M, Raw, BuildRO, Oracle, Externals,
        InstanceTerms(C.Insts), TB);
    C.Ground = R.Ground;
    C.Deferred = std::move(R.Deferred);
    C.NumInstances = R.NumInstances;
    SHARPIE_LOGF(TB, obs::LogLevel::Debug,
                 "[reduce] %-16s size=%-7zu inst=%-6u deferred=%u"
                 " manifest=%zu",
                 C.Name.c_str(), logic::termSize(C.Ground), R.NumInstances,
                 R.NumDeferred, C.Deferred.size());
  };

  // Clause (a): init /\ !Inv.
  {
    ReducedClause C;
    C.Name = "init";
    C.HasHead = true;
    unsigned Ctr = 0;
    std::vector<Term> Conj{Sys.init()};
    std::vector<Term> HeadSk = MakeHeadSk(C.Name, Ctr);
    addInvInstance(SetBodies, HeadSk, /*Post=*/false, /*IsHead=*/true,
                   C.Name, Ctr, Conj, C.Insts);
    Reduce(C, Conj);
    Out.push_back(std::move(C));
  }

  // Clauses (b): Inv /\ next_T /\ !Inv' per transition.
  for (const sys::Transition &T : Sys.transitions()) {
    ReducedClause C;
    C.Name = "ind:" + T.Name;
    C.HasHead = true;
    unsigned Ctr = 0;
    std::vector<Term> Conj{Sys.transitionFormula(T)};
    std::vector<Term> HeadSk = MakeHeadSk(C.Name, Ctr);
    addInvInstance(SetBodies, HeadSk, /*Post=*/true, /*IsHead=*/true,
                   C.Name, Ctr, Conj, C.Insts);
    for (const std::vector<Term> &Sigma :
         bodyInstances(HeadSk, /*IsTrans=*/true, {}, {}))
      addInvInstance(SetBodies, Sigma, /*Post=*/false, /*IsHead=*/false,
                     C.Name, Ctr, Conj, C.Insts);
    Reduce(C, Conj);
    Out.push_back(std::move(C));
  }

  // Clause (c): Inv /\ !safe.
  {
    ReducedClause C;
    C.Name = "safe";
    C.IsSafety = true;
    unsigned Ctr = 0;
    // Skolemized in the attempt's fresh world after the same reductions
    // every time, so the skolem names -- and the clause formula -- repeat
    // across runs, which is what lets a caller's reduction cache hit.
    quant::SkolemResult NotSafeSk = quant::skolemize(M, M.mkNot(Sys.safe()));
    std::vector<Term> Conj{NotSafeSk.Formula};
    std::vector<Term> ExtraTids, ExtraInts;
    for (Term Sk : NotSafeSk.Skolems)
      (Sk.sort() == Sort::Tid ? ExtraTids : ExtraInts).push_back(Sk);
    // Int-sorted ground subterms of the property (e.g. n-1 in the filter
    // lock's property) are natural instance candidates.
    for (Term S : logic::collectSubterms(Sys.safe(), [](Term X) {
           return X.sort() == Sort::Int &&
                  (X.kind() == Kind::Sub || X.kind() == Kind::Add ||
                   X.kind() == Kind::IntConst);
         })) {
      std::set<Term> FV = logic::freeVars(S);
      bool OnlyGlobals = true;
      for (Term V : FV)
        if (std::find(Sys.globals().begin(), Sys.globals().end(), V) ==
            Sys.globals().end())
          OnlyGlobals = false;
      if (OnlyGlobals)
        ExtraInts.push_back(S);
    }
    for (const std::vector<Term> &Sigma :
         bodyInstances({}, /*IsTrans=*/false, ExtraTids, ExtraInts))
      addInvInstance(SetBodies, Sigma, /*Post=*/false, /*IsHead=*/false,
                     C.Name, Ctr, Conj, C.Insts);
    Reduce(C, Conj);
    Out.push_back(std::move(C));
  }
  return Out;
}

// -- SOLVE --------------------------------------------------------------------------

Term Synthesizer::substitutedClause(const ReducedClause &C,
                                    const std::vector<Term> &Cand) const {
  std::map<Term, Term> Rep;
  for (const PlaceholderInst &I : C.Insts) {
    std::vector<Term> As;
    As.reserve(Cand.size());
    for (Term A : Cand) {
      if (I.GlobalOnly && !isGlobalAtom(F, A))
        continue;
      As.push_back(logic::substitute(M, A, I.AtomSubst));
    }
    Rep[I.P] = M.mkAnd(As);
  }
  return logic::replaceAll(M, C.Ground, Rep);
}

void Synthesizer::incSetup(const std::vector<ReducedClause> &Clauses,
                           const std::vector<Term> &Cand) {
  Inc = IncCtx();
  Inc.Atoms = Cand;
  Inc.Live.assign(Cand.size(), 1);
  for (size_t K = 0; K < Cand.size(); ++K) {
    // Deterministic per-index names (like clauseVar's): rebuilding the
    // context for another tuple reuses the same interned variables.
    Term IndK = M.mkVar("houdini$ind$" + std::to_string(K), Sort::Bool);
    Inc.Ind.push_back(IndK);
    Inc.IndIndex.emplace(IndK, K);
  }
  Inc.S = makeSolver("smt_check");
  for (size_t CI = 0; CI < Clauses.size(); ++CI) {
    const ReducedClause &C = Clauses[CI];
    Term Sel = M.mkVar("houdini$sel$" + std::to_string(CI), Sort::Bool);
    Inc.Sel.push_back(Sel);
    Inc.FullAsserted.push_back(C.Deferred.empty());
    if (C.IsSafety)
      Inc.SafetyIdx = CI;
    Inc.S->add(M.mkImplies(Sel, C.Ground));
    Inc.Instances += C.NumInstances;
    // Refinement conjuncts ride behind a dedicated per-clause selector
    // (deterministically named like houdini$sel$): Sel -> InstSel is
    // asserted once, manifest entries are added as InstSel -> entry, so
    // they apply exactly when the clause is selected and retract with it
    // while the assumption literals (the indicators) stay untouched.
    Term ISel = M.mkVar("houdini$inst$" + std::to_string(CI), Sort::Bool);
    Inc.InstSel.push_back(ISel);
    Inc.DefAsserted.emplace_back(C.Deferred.size(), 0);
    if (!C.Deferred.empty())
      Inc.S->add(M.mkImplies(Sel, ISel));
    // Tie every placeholder occurrence to the indicators: P_I holds iff
    // every live atom holds at instance I. Only the implication direction
    // a placeholder's polarity in the ground formula needs is asserted
    // (Plaisted-Greenbaum): the ground formula is in NNF, so a P that
    // never occurs negated only needs P -> def (and dually), which keeps
    // the per-check formula close to substitutedClause's size. Under
    // fixed indicator assumptions either direction set is equisatisfiable
    // with substituting the live atoms for P. Placeholder names embed the
    // clause name, so the definitions of different clauses never collide
    // in the merged context.
    std::set<Term> NegOcc;
    for (Term N : logic::collectSubterms(C.Ground, [](Term S) {
           return S.kind() == Kind::Not;
         }))
      NegOcc.insert(N->kid(0));
    for (const PlaceholderInst &I : C.Insts) {
      std::vector<Term> Guarded;
      Guarded.reserve(Cand.size());
      for (size_t K = 0; K < Cand.size(); ++K) {
        if (I.GlobalOnly && !isGlobalAtom(F, Cand[K]))
          continue;
        Guarded.push_back(M.mkImplies(
            Inc.Ind[K], logic::substitute(M, Cand[K], I.AtomSubst)));
      }
      Term Conj = M.mkAnd(Guarded);
      // The definitions ride behind the selector as well: with Sel false
      // the clause's placeholders are unconstrained and its definitions
      // are inert, so a check only ever evaluates the atom instantiations
      // of the clauses its model actually selects.
      Inc.S->add(M.mkImplies(Sel, M.mkImplies(I.P, Conj)));
      if (NegOcc.count(I.P))
        Inc.S->add(M.mkImplies(Sel, M.mkImplies(Conj, I.P)));
    }
  }
  // Every check must be answered by some clause: a Sat model names the
  // violated clauses through its true selectors, and Unsat means every
  // clause (safety included) is discharged under the live indicators.
  Inc.S->add(M.mkOr(Inc.Sel));
}

std::vector<Term> Synthesizer::incAssumptions() const {
  std::vector<Term> A;
  A.reserve(Inc.Ind.size());
  for (size_t K = 0; K < Inc.Ind.size(); ++K)
    A.push_back(Inc.Live[K] ? Inc.Ind[K] : M.mkNot(Inc.Ind[K]));
  return A;
}

/// The recorded core still proves the merged context Unsat exactly when
/// its indicator literals match the current live set (the asserted
/// grounds never change, they only grow by manifest entries).
bool Synthesizer::coreConsistent() const {
  for (const auto &[K, Pos] : Inc.Core)
    if (static_cast<bool>(Inc.Live[K]) != Pos)
      return false;
  return true;
}

void Synthesizer::incRecordCore() {
  Inc.Core.clear();
  for (Term T : Inc.S->unsatCore()) {
    bool Neg = T.kind() == Kind::Not;
    Term V = Neg ? T->kid(0) : T;
    auto It = Inc.IndIndex.find(V);
    if (It != Inc.IndIndex.end())
      Inc.Core.push_back({It->second, !Neg});
  }
  Inc.CoreKnown = true;
}

void Synthesizer::assertAllDeferred(const ReducedClause &C, size_t CI) {
  obs::Span Sp(TB, "refine_full", [&] { return C.Name; });
  std::vector<char> &Done = Inc.DefAsserted[CI];
  unsigned Added = 0;
  for (size_t I = 0; I < C.Deferred.size(); ++I) {
    if (Done[I])
      continue;
    Inc.S->add(M.mkImplies(Inc.InstSel[CI], C.Deferred[I]));
    Done[I] = 1;
    ++Added;
  }
  // Core plus the whole manifest is the unpartitioned full reduction by
  // construction, so no re-reduction is needed.
  Inc.FullAsserted[CI] = 1;
  Inc.Instances += Added;
  TB->counter("refine_full_groundings", 1);
  SHARPIE_LOGF(TB, obs::LogLevel::Debug,
               "[refine] %s: grounding the remaining manifest (%u of %zu "
               "entries)",
               C.Name.c_str(), Added, C.Deferred.size());
}

bool Synthesizer::groundPending(const std::vector<ReducedClause> &Clauses,
                                smt::SmtModel *Model) {
  // Read the selectors before the first add(): a model handle is valid
  // only until its solver is mutated.
  std::vector<size_t> Pending;
  for (size_t CI = 0; CI < Clauses.size(); ++CI)
    if (!Inc.FullAsserted[CI] &&
        (!Model || Model->evalBool(Inc.Sel[CI]).value_or(false)))
      Pending.push_back(CI);
  for (size_t CI : Pending)
    assertAllDeferred(Clauses[CI], CI);
  return !Pending.empty();
}

bool Synthesizer::refineAgainstModel(const std::vector<ReducedClause> &Clauses,
                                     smt::SmtModel &Model, unsigned Round) {
  obs::Span Sp(TB, "refine",
               [&] { return "round=" + std::to_string(Round + 1); });
  if (Faults) {
    resil::FaultDecision D = Faults->next("refine");
    if (D.Kind != resil::FaultKind::None) {
      TB->counter("faults_injected", 1);
      if (D.Kind == resil::FaultKind::Latency)
        std::this_thread::sleep_for(std::chrono::milliseconds(D.LatencyMs));
      else if (D.Kind == resil::FaultKind::Throw)
        throw resil::InjectedFault("refine"); // Contained by the attempt.
      else {
        // Timeout/Unknown: the model became unusable mid-refinement.
        // Degrade exactly like an evaluation failure -- fully ground
        // every pending clause. Never an unsound "keep".
        return groundPending(Clauses, nullptr);
      }
    }
  }
  // Pass 1 (read-only): evaluate the selectors and every pending manifest
  // entry against the model BEFORE touching the solver -- SmtModel handles
  // are valid only until the owning solver is mutated, so all evalBool
  // calls must precede the first add().
  struct ClausePlan {
    size_t CI;
    quant::ViolatedResult V;
  };
  std::vector<ClausePlan> Plans;
  std::vector<size_t> Failed; // Eval failure => full grounding (sound).
  for (size_t CI = 0; CI < Clauses.size(); ++CI) {
    if (Inc.FullAsserted[CI])
      continue;
    if (!Model.evalBool(Inc.Sel[CI]).value_or(false))
      continue; // Not selected: its ground (and manifest) are inert.
    const std::vector<char> &Done = Inc.DefAsserted[CI];
    quant::ViolatedResult V =
        quant::selectViolated(Model, Clauses[CI].Deferred, Done);
    if (V.EvalFailed) {
      Failed.push_back(CI);
      continue;
    }
    if (!V.Violated.empty())
      Plans.push_back({CI, std::move(V)});
  }
  // Pass 2 (mutating): assert exactly the manifest entries the model
  // violates, behind the clause's instance selector so they retract with
  // the clause. Each round either asserts >= 1 new entry or fully grounds
  // a clause, so the loop terminates with or without a budget.
  bool Progress = false;
  unsigned Asserted = 0;
  for (size_t CI : Failed) {
    assertAllDeferred(Clauses[CI], CI);
    Progress = true;
  }
  for (const ClausePlan &P : Plans) {
    const ReducedClause &C = Clauses[P.CI];
    std::vector<char> &Done = Inc.DefAsserted[P.CI];
    for (size_t I : P.V.Violated) {
      Inc.S->add(M.mkImplies(Inc.InstSel[P.CI], C.Deferred[I]));
      Done[I] = 1;
      ++Asserted;
    }
    if (std::count(Done.begin(), Done.end(), 1) ==
        static_cast<long>(Done.size()))
      Inc.FullAsserted[P.CI] = 1;
    Progress = true;
    SHARPIE_LOGF(TB, obs::LogLevel::Debug,
                 "[refine] %s: model violates %zu of %zu pending manifest "
                 "entries",
                 C.Name.c_str(), P.V.Violated.size(), C.Deferred.size());
  }
  Inc.Instances += Asserted;
  if (Asserted > 0)
    TB->counter("refine_instances_asserted", Asserted);
  return Progress;
}

SatResult Synthesizer::incCheck(const std::vector<ReducedClause> &Clauses,
                                const char *Hist,
                                std::unique_ptr<smt::SmtModel> &Model) {
  unsigned RefineRounds = 0;
  auto FlushRounds = [&] {
    if (RefineRounds > 0)
      TB->sample("refine_rounds", static_cast<double>(RefineRounds));
  };
  for (;;) {
    std::vector<Term> A = incAssumptions();
    if (Inc.Checks > 0)
      TB->counter("solver_context_reuses", 1);
    ++Inc.Checks;
    // Span detail = the phase part of the histogram name ("houdini",
    // "minimize"), so merged-context checks stay tellable apart in a
    // trace viewer now that one span covers all clauses at once.
    const char *Detail = std::strncmp(Hist, "smt_ms.", 7) == 0 ? Hist + 7 : Hist;
    SatResult R = smt::checkAssumingTraced(*Inc.S, A, TB, Hist, Detail);
    // The merged context carries every clause's expansions at once; the
    // running total is this check's instantiation load.
    TB->sample("instantiations_per_check", static_cast<double>(Inc.Instances));
    if (R == SatResult::Unsat) {
      incRecordCore();
      FlushRounds();
      return R;
    }
    if (R != SatResult::Sat) {
      // An Unknown over a lean refined context gets one more chance on
      // the fully-grounded one: grounding every pending manifest is
      // always sound, changes the formula the back end (or the
      // supervisor's fallback ladder) sees, and leaves nothing pending
      // -- so a second Unknown returns here instead of looping.
      if (groundPending(Clauses, nullptr))
        continue;
      FlushRounds();
      return R;
    }
    Model = Inc.S->model();
    if (!Model) {
      FlushRounds();
      return R; // Callers treat a model-less Sat as a stuck iteration.
    }
    // Model-guided refinement (CEGAR instantiation): assert only the
    // manifest entries this model violates; the budget bounds the rounds
    // per check, falling back to full grounding.
    bool Refined;
    if (RefineRounds >= Opts.RefineBudget) {
      TB->counter("refine_budget_exhausted", 1);
      Refined = groundPending(Clauses, Model.get());
    } else {
      Refined = refineAgainstModel(Clauses, *Model, RefineRounds);
    }
    if (!Refined) {
      FlushRounds();
      // Genuine: every selected clause's asserted ground satisfies its
      // whole manifest.
      return R;
    }
    // A model that only survived because instances were deferred is
    // counterexample-driven refinement's cue: add them and re-check.
    ++RefineRounds;
  }
}

std::vector<Term> Synthesizer::liveAtoms() const {
  std::vector<Term> Out;
  for (size_t K = 0; K < Inc.Atoms.size(); ++K)
    if (Inc.Live[K])
      Out.push_back(Inc.Atoms[K]);
  return Out;
}

bool Synthesizer::houdini(const std::vector<ReducedClause> &Clauses,
                          std::vector<Term> &Cand, TupleOutcome &Out) {
  std::string &Why = Out.Why;
  auto Bail = [&](std::string &W) {
    W = outOfTime() ? "time budget exhausted"
                    : "superseded by a lower-ranked tuple";
    return false;
  };
  unsigned MaxIters = static_cast<unsigned>(Cand.size()) + 8;
  for (unsigned Iter = 0; Iter < MaxIters; ++Iter) {
    if (aborted())
      return Bail(Why);
    obs::Span IterSp(TB, "houdini_iter", [&] {
      return "iter=" + std::to_string(Iter) +
             " atoms=" + std::to_string(liveAtoms().size());
    });
    std::unique_ptr<smt::SmtModel> Model;
    SatResult R = incCheck(Clauses, "smt_ms.houdini", Model);
    if (R == SatResult::Unsat) {
      // No clause -- the safety clause included -- has a counterexample
      // under the live set: the fixpoint and the safety verdict in one
      // answer.
      Cand = liveAtoms();
      if (TB->logEnabled(obs::LogLevel::Debug)) {
        TB->logf(obs::LogLevel::Debug, "[houdini] fixpoint with %zu atoms",
                 Cand.size());
        for (Term A : Cand)
          TB->logf(obs::LogLevel::Debug, "  %s", logic::toString(A).c_str());
      }
      return true;
    }
    if (R == SatResult::Unknown) {
      Why = "smt unknown on houdini iteration";
      return false;
    }
    std::vector<size_t> Violated;
    for (size_t CI = 0; CI < Clauses.size(); ++CI)
      if (Model && Model->evalBool(Inc.Sel[CI]).value_or(false))
        Violated.push_back(CI);
    if (std::find(Violated.begin(), Violated.end(), Inc.SafetyIdx) !=
        Violated.end()) {
      // The candidate occurs only positively in the safety body, so this
      // counterexample survives every later drop: the eventual fixpoint
      // would fail safety too, and the tuple is rejected now instead of
      // after the remaining iterations.
      const ReducedClause &C = Clauses[Inc.SafetyIdx];
      Cand = liveAtoms();
      Why = "candidate too weak for safety";
      Out.HasPartial = true;
      Out.PartialAtoms = Cand;
      Out.FailedOn = C.Name;
      SHARPIE_LOGF(TB, obs::LogLevel::Trace, "[safety clause] %s",
                   logic::toString(substitutedClause(C, Cand)).c_str());
      return false;
    }
    int64_t TotalDropped = 0;
    for (size_t CI : Violated) {
      const ReducedClause &C = Clauses[CI];
      const PlaceholderInst *Head = nullptr;
      for (const PlaceholderInst &I : C.Insts)
        if (I.IsHead)
          Head = &I;
      assert(Head && "inductive clause without head instance");
      int64_t Dropped = 0;
      for (size_t K = 0; K < Inc.Atoms.size(); ++K) {
        if (!Inc.Live[K])
          continue;
        std::optional<bool> V = Model->evalBool(
            logic::substitute(M, Inc.Atoms[K], Head->AtomSubst));
        if (V.has_value() && !*V) {
          SHARPIE_LOGF(TB, obs::LogLevel::Debug, "[houdini] %s drops %s",
                       C.Name.c_str(),
                       logic::toString(Inc.Atoms[K]).c_str());
          Inc.Live[K] = 0;
          ++Dropped;
        }
      }
      if (Dropped) {
        TB->counter("houdini_atoms_dropped", Dropped);
        TB->instant("houdini_drop", C.Name, Dropped);
      }
      TotalDropped += Dropped;
    }
    if (TotalDropped == 0) {
      Why = "stuck on " +
            (Violated.empty() ? std::string("houdini model")
                              : Clauses[Violated.front()].Name) +
            " (no atom refuted by model)";
      return false;
    }
  }
  Why = "houdini iteration budget exhausted";
  return false;
}

/// Greedily drops atoms, last to first, whose removal keeps every clause
/// (safety included) discharged. Yields the concise invariants the paper
/// reports and shrinks the final re-check's instantiation. A trial whose
/// dropped atom the recorded core ignores is accepted without any solver
/// call: the core's literals all kept their polarity, so the merged
/// context is provably still Unsat.
void Synthesizer::minimizeAtoms(const std::vector<ReducedClause> &Clauses,
                                std::vector<Term> &Cand) {
  std::vector<size_t> LiveIdx; // Pool indices of Cand's atoms, in order.
  for (size_t K = 0; K < Inc.Live.size(); ++K)
    if (Inc.Live[K])
      LiveIdx.push_back(K);
  assert(LiveIdx.size() == Cand.size() && "live set out of sync with Cand");
  for (size_t I = LiveIdx.size(); I-- > 0;) {
    if (aborted())
      return;
    size_t K = LiveIdx[I];
    Inc.Live[K] = 0; // Trial: drop atom K.
    bool Pass;
    if (Inc.CoreKnown && coreConsistent()) {
      TB->counter("core_drops", 1);
      Pass = true;
    } else {
      std::unique_ptr<smt::SmtModel> Model;
      Pass = incCheck(Clauses, "smt_ms.minimize", Model) == SatResult::Unsat;
    }
    if (Pass) {
      Cand.erase(Cand.begin() + I);
      LiveIdx.erase(LiveIdx.begin() + I);
    } else {
      Inc.Live[K] = 1;
    }
  }
}

// -- Output and re-checking -------------------------------------------------------------

Term Synthesizer::closedInvariant(const std::vector<Term> &SetBodies,
                                  const std::vector<Term> &Atoms) const {
  return synth::closedInvariant(M, F, Opts.QGuard, SetBodies, Atoms);
}

/// Re-checks the closed invariant end to end: on the explicit reachable
/// states, then every safety obligation through a fresh reduction of the
/// concrete invariant. Two levers keep it cheap: (1) each obligation is
/// first reduced in Filtered mode (relevancy-filtered CARD axioms) --
/// Unsat under that weaker ground already discharges it, and only a
/// surviving answer pays the Full reduction; (2) all checks share one
/// solver (push/pop scoped), so its back-end translation cache warms up
/// over the obligations. The Full reduction always has the final word.
bool Synthesizer::recheck(Term Inv,
                          const std::vector<sys::ParamSystem::State> &States,
                          std::string &Why) {
  if (!explct::holdsInAll(States, Inv)) {
    Why = "recheck: invariant fails on an explicit reachable state";
    return false;
  }
  std::unique_ptr<smt::SmtSolver> Oracle = makeSolver("reduce");
  std::unique_ptr<smt::SmtSolver> Solver = makeSolver("smt_check");
  const engine::ReduceOptions Filtered =
      reduceOptions(engine::ReduceMode::Filtered);
  const engine::ReduceOptions Full = reduceOptions(engine::ReduceMode::Full);
  bool FirstCheck = true;
  for (const sys::Obligation &O : sys::safetyObligations(Sys, Inv)) {
    bool Discharged = false;
    size_t LastGroundSize = 0;
    for (int Phase = 0; Phase < 2; ++Phase) {
      const engine::ReduceOptions &RO = Phase == 0 ? Filtered : Full;
      engine::ReduceResult R = engine::reduceToGroundCached(
          Opts.ReuseReduceCache, M, O.Psi, RO, Oracle.get(),
          Sys.externalCounters(), {}, TB);
      LastGroundSize = logic::termSize(R.Ground);
      Solver->push();
      Solver->add(R.Ground);
      if (!FirstCheck)
        TB->counter("solver_context_reuses", 1);
      FirstCheck = false;
      SatResult SR =
          smt::checkTraced(*Solver, TB, "smt_ms.recheck", O.Name.c_str());
      Solver->pop();
      if (SR == SatResult::Unsat) {
        Discharged = true;
        break;
      }
      // An undischarged filtered phase is conclusive only when the filter
      // deferred nothing (the ground IS the full one); otherwise escalate.
      if (Phase == 0 && R.NumDeferred == 0)
        break;
    }
    if (!Discharged) {
      Why = "recheck: obligation " + O.Name + " not discharged";
      SHARPIE_LOGF(TB, obs::LogLevel::Debug,
                   "recheck failed on %s (ground size %zu)", O.Name.c_str(),
                   LastGroundSize);
      return false;
    }
  }
  return true;
}

// -- Bounded-N screen ------------------------------------------------------------------

bool Synthesizer::screenRejects(const std::vector<Term> &SetBodies,
                                const std::vector<Term> &Cand,
                                TupleOutcome &Out) {
  const unsigned N = static_cast<unsigned>(Opts.Explicit.NumThreads);
  obs::Span Sp(TB, "screen", [&] { return "N=" + std::to_string(N); });
  auto Unknown = [&](const std::string &Why) {
    SHARPIE_LOGF(TB, obs::LogLevel::Debug, "[screen] N=%u unknown: %s", N,
                 Why.c_str());
    return false;
  };
  if (N == 0)
    return Unknown("no instance size");
  try {
    bounded::Instance I(Sys, N);
    // Each atom's own closed invariant, so the conjunction over any live
    // set is that set's closed invariant; Post is its post-state twin.
    std::vector<Term> Pre, Post;
    for (Term A : Cand) {
      Term Inv = closedInvariant(SetBodies, {A});
      Pre.push_back(I.encode(Inv));
      Post.push_back(I.encode(logic::substitute(M, Inv, Sys.primeSubst())));
      if (Pre.back().isNull() || Post.back().isNull())
        return Unknown("no exact encoding of " + logic::toString(A));
    }
    Term Init = I.init(), Safe = I.safe();
    std::vector<Term> Trans;
    for (const sys::Transition &T : Sys.transitions())
      Trans.push_back(I.transition(T));
    if (Init.isNull() || Safe.isNull() ||
        std::find(Trans.begin(), Trans.end(), Term()) != Trans.end())
      return Unknown("no exact encoding of the system");

    // One bare Z3 context, set up like incSetup's: per-atom indicators,
    // every clause behind its selector, and some clause selected. Z3's
    // plain SMT kernel skips the default solver's tactic setup, which
    // would dominate a context that answers a few small checks.
    std::unique_ptr<smt::SmtSolver> S =
        smt::makeZ3Solver(M, /*Simple=*/true);
    S->setTimeoutMs(Opts.SmtTimeoutMs);
    std::vector<Term> Ind, Hyp, HypPost;
    for (size_t K = 0; K < Cand.size(); ++K) {
      Ind.push_back(M.mkVar("screen$ind$" + std::to_string(K), Sort::Bool));
      Hyp.push_back(M.mkImplies(Ind[K], Pre[K]));
      HypPost.push_back(M.mkImplies(Ind[K], Post[K]));
    }
    Term H = M.mkAnd(Hyp), HPost = M.mkAnd(HypPost);
    std::vector<Term> Sel; // init, one per transition, safety last.
    auto AddClause = [&](Term Body) {
      Sel.push_back(
          M.mkVar("screen$sel$" + std::to_string(Sel.size()), Sort::Bool));
      S->add(M.mkImplies(Sel.back(), Body));
    };
    AddClause(M.mkAnd(Init, M.mkNot(H)));
    for (Term T : Trans)
      AddClause(M.mkAnd({H, T, M.mkNot(HPost)}));
    AddClause(M.mkAnd(H, M.mkNot(Safe)));
    S->add(M.mkOr(Sel));

    std::vector<char> Live(Cand.size(), 1);
    for (;;) {
      if (aborted())
        return Unknown("aborted");
      std::vector<Term> A;
      for (size_t K = 0; K < Cand.size(); ++K)
        A.push_back(Live[K] ? Ind[K] : M.mkNot(Ind[K]));
      SatResult R =
          smt::checkAssumingTraced(*S, A, TB, "smt_ms.screen", "screen");
      if (R == SatResult::Unsat) {
        SHARPIE_LOGF(TB, obs::LogLevel::Debug,
                     "[screen] N=%u passes with %zu of %zu atoms", N,
                     static_cast<size_t>(
                         std::count(Live.begin(), Live.end(), 1)),
                     Cand.size());
        return false;
      }
      if (R != SatResult::Sat)
        return Unknown("solver " + S->reasonUnknown());
      std::unique_ptr<smt::SmtModel> Model = S->model();
      if (!Model)
        return Unknown("no model");
      if (Model->evalBool(Sel.back()).value_or(false)) {
        // A state that satisfies every survivor and violates safety at N.
        std::string State = I.renderState(*Model);
        TB->counter("tuples_screened", 1);
        TB->instant("screen_reject", "N=" + std::to_string(N) + ": " + State,
                    N);
        SHARPIE_LOGF(TB, obs::LogLevel::Debug, "[screen] N=%u rejects: %s",
                     N, State.c_str());
        Out.Why = "candidate too weak for safety at N=" + std::to_string(N) +
                  " (screen)";
        Out.HasPartial = true;
        for (size_t K = 0; K < Cand.size(); ++K)
          if (Live[K])
            Out.PartialAtoms.push_back(Cand[K]);
        Out.FailedOn = "safe at N=" + std::to_string(N);
        return true;
      }
      // Houdini's step at N: drop every live atom the model's head state
      // falsifies in each selected clause (the pre-state for init, the
      // post-state for a transition).
      unsigned Dropped = 0;
      for (size_t C = 0; C + 1 < Sel.size(); ++C) {
        if (!Model->evalBool(Sel[C]).value_or(false))
          continue;
        const std::vector<Term> &Head = C == 0 ? Pre : Post;
        for (size_t K = 0; K < Cand.size(); ++K)
          if (Live[K] && !Model->evalBool(Head[K]).value_or(true)) {
            Live[K] = 0;
            ++Dropped;
          }
      }
      if (Dropped == 0)
        return Unknown("no atom refuted by the model");
    }
  } catch (const std::exception &E) {
    return Unknown(std::string("exception: ") + E.what());
  }
}

// -- Per-tuple pipeline ----------------------------------------------------------------

std::unique_ptr<smt::SmtSolver> Synthesizer::makeSolver(const char *Site) {
  if (!Opts.Supervise) {
    // The bare back end: the chaos tests compare supervised runs against
    // exactly the unwrapped code path.
    auto S = smt::makeZ3Solver(M);
    S->setTimeoutMs(Opts.SmtTimeoutMs);
    return S;
  }
  auto S = std::make_unique<resil::SupervisedSolver>(
      smt::makeZ3Solver(M), [this] { return smt::makeMiniSolver(M); },
      Faults ? &*Faults : nullptr, Site, TB, Deadline);
  S->setTimeoutMs(Opts.SmtTimeoutMs);
  return S;
}

TupleOutcome
Synthesizer::tryTuple(size_t Rank, const std::vector<Term> &SetBodies,
                      const std::vector<Term> &Pool,
                      const std::vector<sys::ParamSystem::State> &States) {
  TupleOutcome Out;
  if (Faults) {
    // Scope the per-site invocation indices to this tuple: a rule like
    // "reduce:unknown@every=2" then fires at the same point of every
    // tuple's pipeline regardless of which worker claims it.
    Faults->beginScope(static_cast<uint64_t>(Rank) + 1);
    resil::FaultDecision D = Faults->next("worker_task");
    if (D.Kind != resil::FaultKind::None) {
      TB->counter("faults_injected", 1);
      if (D.Kind == resil::FaultKind::Latency) {
        std::this_thread::sleep_for(std::chrono::milliseconds(D.LatencyMs));
      } else if (D.Kind == resil::FaultKind::Throw) {
        throw resil::InjectedFault("worker_task"); // Contained by the attempt.
      } else {
        Out.Why = "injected fault at worker_task";
        TB->counter("tuples_skipped", 1);
        return Out;
      }
    }
  }
  TB->counter("tuples_tried", 1);

  std::vector<Term> Cand = Pool;
  if (Opts.ExplicitPrefilter && !States.empty()) {
    obs::Span Sp(TB, "prefilter");
    Cand = prefilterAtoms(Pool, SetBodies, States);
    SHARPIE_LOGF(TB, obs::LogLevel::Debug,
                 "atoms: %zu of %zu survive the explicit pre-filter (%.2fs)",
                 Cand.size(), Pool.size(), Sp.seconds());
  }
  Out.AtomsAfterPrefilter = static_cast<unsigned>(Cand.size());

  // Rank 1 is never screened: most runs win there, where the screen would
  // be pure cost.
  if (Rank >= 1 && screenRejects(SetBodies, Cand, Out))
    return Out;

  // Per-tuple solver setup is part of the clause-building cost.
  obs::Span BuildSp(TB, "build_clauses");
  std::unique_ptr<smt::SmtSolver> Oracle = makeSolver("reduce");
  std::vector<ReducedClause> Clauses = buildClauses(SetBodies, Oracle.get());
  SHARPIE_LOGF(TB, obs::LogLevel::Debug, "clauses built in %.2fs",
               BuildSp.seconds());
  BuildSp.close();

  obs::Span HoudiniSp(TB, "houdini");
  incSetup(Clauses, Cand);
  bool HoudiniOk = houdini(Clauses, Cand, Out);
  SHARPIE_LOGF(TB, obs::LogLevel::Debug, "houdini %s in %.2fs%s%s",
               HoudiniOk ? "ok" : "failed", HoudiniSp.seconds(),
               HoudiniOk ? "" : ": ", Out.Why.c_str());
  HoudiniSp.close();
  if (!HoudiniOk)
    return Out;

  obs::Span MinimizeSp(TB, "minimize");
  size_t Before = Cand.size();
  minimizeAtoms(Clauses, Cand);
  // Free the merged context before the recheck: the invariant is fixed
  // now, and the recheck builds its own solver.
  Inc = IncCtx();
  SHARPIE_LOGF(TB, obs::LogLevel::Debug, "minimized %zu -> %zu atoms in %.2fs",
               Before, Cand.size(), MinimizeSp.seconds());
  MinimizeSp.close();

  Term Inv = closedInvariant(SetBodies, Cand);
  obs::Span RecheckSp(TB, "recheck");
  bool RecheckOk = recheck(Inv, States, Out.Why);
  SHARPIE_LOGF(TB, obs::LogLevel::Debug, "recheck %s in %.2fs",
               RecheckOk ? "ok" : "failed", RecheckSp.seconds());
  RecheckSp.close();
  if (!RecheckOk)
    return Out;

  Out.Verified = true;
  Out.Invariant = Inv;
  Out.Atoms = std::move(Cand);
  return Out;
}

// -- The rank-cursor search -----------------------------------------------------------

TupleOutcome Search::attempt(unsigned W, size_t Rank,
                             const std::vector<Term> &SetBodies,
                             const std::vector<Term> &Pool,
                             const std::vector<sys::ParamSystem::State> &States,
                             std::function<bool()> Superseded,
                             std::unique_ptr<World> &Wd) {
  // Worker W owns trace rank W+1 (rank 0 is the driver); registration is
  // the one mutex-guarded step, the buffer itself is thread-local.
  obs::TraceBuffer *WTB = Opts.Trace->worker(W + 1);
  auto Bodies = [&] {
    std::string D;
    for (Term SB : SetBodies)
      D += (D.empty() ? "" : " ") + ("#{t | " + logic::toString(SB) + "}");
    return D;
  };
  obs::Span TupleSp(WTB, "tuple", Bodies);
  SHARPIE_LOGF(WTB, obs::LogLevel::Debug, "[tuple %zu] %s", Rank + 1,
               Bodies().c_str());
  try {
    Wd = std::make_unique<World>();
    Wd->Sys = Sys.cloneInto(Wd->M);
    logic::TermTranslator Tr(Wd->M);
    SynthOptions WOpts = Opts;
    WOpts.QGuard = Tr(Opts.QGuard);
    // Fault rules with a worker=N trigger key on the trace rank, W+1.
    Synthesizer Synth(*Wd->Sys, WOpts, Deadline, WTB, W + 1,
                      std::move(Superseded));
    std::vector<Term> WPool;
    WPool.reserve(Pool.size());
    for (Term A : Pool)
      WPool.push_back(Tr(A));
    std::vector<sys::ParamSystem::State> WStates;
    WStates.reserve(States.size());
    for (const sys::ParamSystem::State &S : States) {
      sys::ParamSystem::State WS;
      WS.DomainSize = S.DomainSize;
      WS.IntBound = S.IntBound;
      for (const auto &[V, Val] : S.Scalars)
        WS.Scalars[Tr(V)] = Val;
      for (const auto &[A, Vals] : S.Arrays)
        WS.Arrays[Tr(A)] = Vals;
      WStates.push_back(std::move(WS));
    }
    std::vector<Term> WBodies;
    WBodies.reserve(SetBodies.size());
    for (Term B : SetBodies)
      WBodies.push_back(Tr(B));
    return Synth.tryTuple(Rank, WBodies, WPool, WStates);
  } catch (const std::exception &E) {
    TupleOutcome Out;
    Out.Why = std::string("exception: ") + E.what();
    WTB->counter("tuples_skipped", 1);
    WTB->counter("worker_exceptions", 1);
    WTB->logf(obs::LogLevel::Info, "[resil] tuple %zu skipped: %s", Rank + 1,
              Out.Why.c_str());
    return Out;
  }
}

void Search::searchTuples(unsigned Workers,
                          const std::vector<std::vector<Term>> &TupleBodies,
                          const std::vector<Term> &Pool,
                          const std::vector<sys::ParamSystem::State> &States,
                          SynthResult &Res) {
  auto SearchStart = std::chrono::steady_clock::now();
  Stats.NumWorkers = Workers;

  /// Shared per-rank outcome table. A rank is Done once some worker fully
  /// processed it.
  struct RankSlot {
    bool Done = false;
    bool Verified = false;
    std::string Why;
    unsigned AtomsAfterPrefilter = 0;
    /// A verified rank's world, kept until the merge translates its atoms
    /// and invariant back.
    std::unique_ptr<World> Wd;
    std::vector<Term> Atoms; ///< In Wd's manager.
    Term Invariant;          ///< Likewise.
    /// Near-miss data, already rendered (manager-independent).
    bool HasPartial = false;
    std::vector<std::string> PartialAtoms;
    std::string FailedOn;
  };
  std::vector<RankSlot> Slots(TupleBodies.size());
  std::mutex SlotsMu;
  std::atomic<size_t> Cursor{0};
  std::atomic<size_t> BestVerified{SIZE_MAX};
  std::atomic<bool> BudgetStopped{false};
  engine::CancellationToken Decided;

  auto WorkerMain = [&](unsigned W) {
    for (;;) {
      size_t Rank = Cursor.fetch_add(1);
      if (Rank >= TupleBodies.size() || Decided.cancelled())
        break;
      if (outOfTime()) {
        BudgetStopped.store(true);
        break;
      }
      if (Rank > BestVerified.load())
        continue; // A lower rank already verified: this one cannot win.
      std::unique_ptr<World> Wd;
      TupleOutcome O = attempt(
          W, Rank, TupleBodies[Rank], Pool, States,
          [&BestVerified, &Decided, Rank] {
            return BestVerified.load() < Rank || Decided.cancelled();
          },
          Wd);
      if (O.Verified) {
        size_t Cur = BestVerified.load();
        while (Rank < Cur &&
               !BestVerified.compare_exchange_weak(Cur, Rank)) {
        }
      }
      bool AllBelowBestDone = false;
      {
        std::lock_guard<std::mutex> L(SlotsMu);
        RankSlot &S = Slots[Rank];
        S.Done = true;
        S.Verified = O.Verified;
        S.Why = std::move(O.Why);
        S.AtomsAfterPrefilter = O.AtomsAfterPrefilter;
        if (O.Verified) {
          S.Wd = std::move(Wd);
          S.Atoms = std::move(O.Atoms);
          S.Invariant = O.Invariant;
        }
        if (O.HasPartial) {
          S.HasPartial = true;
          for (Term A : O.PartialAtoms)
            S.PartialAtoms.push_back(logic::toString(A));
          S.FailedOn = std::move(O.FailedOn);
        }
        size_t BV = BestVerified.load();
        if (BV != SIZE_MAX) {
          AllBelowBestDone = true;
          for (size_t I = 0; I < BV; ++I)
            if (!Slots[I].Done)
              AllBelowBestDone = false;
        }
      }
      // Once every rank below the best verified one has completed (and
      // failed -- otherwise the watermark would be lower), the winner is
      // decided; everything still in flight is wasted work.
      if (AllBelowBestDone)
        Decided.cancel();
    } // An unverified attempt's world drops here, outside the lock.
  };

  {
    // Worker 0 is the calling thread and pool threads are workers
    // 1..W-1, so a 1-worker search spawns no thread. The pool is declared
    // after every local its workers touch, so its destructor joins them
    // before any of those locals die.
    std::optional<engine::ThreadPool> TP;
    if (Workers > 1) {
      TP.emplace(Workers - 1);
      for (unsigned W = 1; W < Workers; ++W)
        TP->submit([&WorkerMain, W] { WorkerMain(W); });
    }
    WorkerMain(0);
    if (TP)
      TP->wait();
  }

  // Deterministic merge: the lowest-ranked verified tuple wins, which is
  // the 1-worker answer whenever every lower rank completed.
  size_t Winner = SIZE_MAX;
  for (size_t R = 0; R < Slots.size(); ++R)
    if (Slots[R].Done && Slots[R].Verified) {
      Winner = R;
      break;
    }
  if (Winner != SIZE_MAX) {
    const RankSlot &S = Slots[Winner];
    logic::TermTranslator Back(M);
    Res.Verified = true;
    Res.SetBodies = TupleBodies[Winner]; // Caller-manager originals.
    for (Term A : S.Atoms)
      Res.Atoms.push_back(Back(A));
    Res.Invariant = Back(S.Invariant);
    Stats.AtomsInInvariant = static_cast<unsigned>(Res.Atoms.size());
    Stats.AtomsAfterPrefilter = S.AtomsAfterPrefilter;
  } else {
    // The last processed rank -- the last tuple tried at 1 worker -- gives
    // the note and the prefilter count, unless the budget stopped the
    // search.
    std::string Why;
    for (const RankSlot &S : Slots)
      if (S.Done) {
        Stats.AtomsAfterPrefilter = S.AtomsAfterPrefilter;
        if (!S.Why.empty())
          Why = S.Why;
      }
    if (BudgetStopped.load())
      Why = "time budget exhausted";
    Res.Note = Why.empty() ? "no candidate set tuple succeeded" : Why;
    // The lowest-ranked near-miss (rank order, not completion order, so
    // the report is deterministic).
    for (size_t R = 0; R < Slots.size() && !Res.Best; ++R)
      if (Slots[R].Done && Slots[R].HasPartial) {
        PartialCandidate P;
        P.Rank = static_cast<unsigned>(R) + 1;
        for (Term SB : TupleBodies[R])
          P.SetBodies.push_back(logic::toString(SB));
        P.Atoms = std::move(Slots[R].PartialAtoms);
        P.FailedOn = std::move(Slots[R].FailedOn);
        Res.Best = std::move(P);
      }
  }

  SearchWall = secondsSince(SearchStart);
}

// -- Driver ---------------------------------------------------------------------------------

void Search::finish(SynthResult &Res, const obs::MetricsSummary &Before,
                    std::chrono::steady_clock::time_point Start) {
  Res.Stats = Stats;
  Res.Stats.Seconds = secondsSince(Start);
  Res.Stats.Metrics = Opts.Trace->metrics();
  deriveCounts(Res.Stats, Before, Res.Stats.Metrics, SearchWall);
}

SynthResult Search::run() {
  auto Start = std::chrono::steady_clock::now();
  TB = Opts.Trace->worker(0);
  const obs::MetricsSummary Before = Opts.Trace->metrics();
  obs::Span RunSp(TB, "synthesize");
  SynthResult Res;

  // Explicit exploration: counterexample detection + pre-filter states.
  // Scoped so the unsampled states are freed before the search.
  std::vector<sys::ParamSystem::State> States;
  {
    explct::ExplicitResult ER = explct::explore(Sys, Opts.Explicit, TB);
    if (!ER.Safe) {
      Res.Cex = ER.Cex;
      Res.Note = "explicit counterexample with N=" +
                 std::to_string(Opts.Explicit.NumThreads);
      finish(Res, Before, Start);
      return Res;
    }
    // Sample evenly up to the cap. This reachable-state set is computed
    // once and shared read-only by every search worker.
    constexpr size_t MaxPrefilterStates = 400;
    size_t Step = std::max<size_t>(1, ER.States.size() / MaxPrefilterStates);
    for (size_t I = 0; I < ER.States.size(); I += Step)
      States.push_back(std::move(ER.States[I]));
  }

  obs::Span EnumSp(TB, "enumerate");
  std::vector<SetCandidate> Cands = enumerateSetBodies(Sys, F);
  std::vector<Term> Pool = enumerateInvAtoms(Sys, F);
  Stats.AtomsInPool = static_cast<unsigned>(Pool.size());

  std::vector<std::vector<Term>> TupleBodies;
  if (!Opts.FixedSetBodies.empty()) {
    assert(Opts.FixedSetBodies.size() == Opts.Shape.NumSets &&
           "FixedSetBodies must match the shape");
    TupleBodies.push_back(Opts.FixedSetBodies);
  } else {
    for (const std::vector<size_t> &Tuple : rankTuples(Cands)) {
      std::vector<Term> Bodies;
      for (size_t I : Tuple)
        Bodies.push_back(Cands[I].Body);
      TupleBodies.push_back(std::move(Bodies));
    }
  }
  EnumSp.close();

  unsigned Workers = engine::ThreadPool::effectiveWorkers(Opts.NumWorkers);
  Workers = static_cast<unsigned>(
      std::min<size_t>(Workers, std::max<size_t>(1, TupleBodies.size())));
  searchTuples(Workers, TupleBodies, Pool, States, Res);

  // Zero-delta touches so these counters always exist in the exported
  // metrics (ctr_retries etc. in every --json run, faulted or not), which
  // keeps benchmark schemas stable.
  TB->counter("retries", 0);
  TB->counter("fallbacks", 0);
  TB->counter("faults_injected", 0);
  TB->counter("tuples_skipped", 0);
  TB->counter("tuples_screened", 0);
  // Same for the Houdini and refinement-loop counters, so every run
  // emits the same JSON keys whether or not they fired.
  TB->counter("core_drops", 0);
  TB->counter("solver_context_reuses", 0);
  TB->counter("axioms_filter_skipped", 0);
  TB->counter("axioms_manifest_deferred", 0);
  TB->counter("refine_full_groundings", 0);
  TB->counter("refine_instances_asserted", 0);
  TB->counter("refine_budget_exhausted", 0);
  TB->counter("manifest_instances", 0);

  finish(Res, Before, Start);
  // An unverified, unrefuted run is "inconclusive" (not merely UNKNOWN)
  // exactly when some failure could have hidden a proof: the verdict
  // "no invariant in this search space" would be unsound to report.
  uint64_t Failures = Res.Stats.TuplesSkipped + Res.Stats.UnknownTimeouts +
                      Res.Stats.UnknownIncomplete +
                      Res.Stats.WorkerExceptions +
                      Res.Stats.SolverExceptions + Res.Stats.FaultsInjected;
  Res.Inconclusive =
      !Res.Verified && !Res.Cex && (outOfTime() || Failures > 0);
  return Res;
}

} // namespace

SynthResult sharpie::synth::synthesize(sys::ParamSystem &Sys,
                                       const SynthOptions &Opts) {
  if (Opts.Trace)
    return Search(Sys, Opts).run();
  // The counts are read off the tracer's counters, so a run without a
  // caller's tracer records into a private quiet one: counters and
  // samples only, no events, no log.
  obs::Tracer Quiet;
  SynthOptions O = Opts;
  O.Trace = &Quiet;
  return Search(Sys, O).run();
}
