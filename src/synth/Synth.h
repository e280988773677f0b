//===- synth/Synth.h - The #Pi invariant synthesis driver -------*- C++ -*-===//
//
// Part of sharpie. Implements algorithm #Pi (paper Fig. 5): given a
// parameterized system and a shape template (number of cardinality sets m
// and universally quantified variables q_1..q_n), synthesize a safe
// inductive invariant
//
//   forall q: QGuard -> ( /\_i #{t | s_i(t, q)} = k_i  /\  inv_0(k, g, q) ).
//
// Pipeline per candidate set tuple (s_1..s_m), drawn from the ranked
// grammar of Grammar.h:
//
//   0. Every tuple but the first-ranked is screened on the N-thread
//      instance (bounded/Bounded.h): Houdini over the prefiltered atoms
//      at N, and a tuple whose survivors do not imply safety at N cannot
//      verify and stops here (DESIGN.md Sec. 4, "Bounded-N tuple screen").
//   1. INSTQ: the template quantifiers are instantiated over a small set of
//      relevant terms (head skolems, the mover, safety witnesses, local
//      reads); each instance contributes "measurement" equations
//      #{t|s_i(t,sigma)} = k_{i,sigma} and an opaque placeholder variable
//      standing for inv_0 at that instance.
//   2. The three Horn clauses (init / inductiveness per transition /
//      safety) are reduced once to ground, cardinality-free formulas by
//      engine/Reduce.h -- the expensive part, independent of inv_0.
//   3. SOLVE: a Houdini-style fixpoint over the candidate atom pool finds
//      the strongest conjunction closed under all clauses, seeded by an
//      explicit-state pre-filter (atoms violated in a reachable state of a
//      small instance are discarded before any SMT call). The same
//      incremental checks decide the safety clause (see
//      SynthOptions::RefineBudget for the loop).
//   4. The resulting invariant is independently re-checked end to end
//      (fresh reduction of the concrete invariant, plus evaluation on the
//      explicit reachable states).
//
// The paper delegates step 3 to an off-the-shelf Horn solver over the
// unknowns s_i and inv_0; enumerating s_i from the grammar and solving
// inv_0 by Houdini realizes the same search space with predictable
// performance (see DESIGN.md, "Faithfulness notes").
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SYNTH_SYNTH_H
#define SHARPIE_SYNTH_SYNTH_H

#include "engine/Pool.h"
#include "engine/Reduce.h"
#include "explicit/Explicit.h"
#include "obs/Obs.h"
#include "resil/Resil.h"
#include "synth/Grammar.h"
#include "system/System.h"

#include <optional>
#include <string>

namespace sharpie {
namespace front {
struct FrontBundle;
} // namespace front

namespace synth {

struct SynthOptions {
  ShapeTemplate Shape;
  /// Optional guard on the Int-sorted template quantifiers, e.g.
  /// 0 <= q <= n-1 for the filter lock's level quantifier. Built by the
  /// caller over the formals returned by formalsFor().
  logic::Term QGuard;

  /// When non-empty, skip the set search and use exactly these set bodies
  /// (over formalsFor()'s BoundVar/Q). Lets a user hand #Pi the paper's
  /// templates verbatim, and the test suite pin known tuples.
  std::vector<logic::Term> FixedSetBodies;

  /// The CARD axiom families (Card.Update, Card.Venn). Reduce.Mode is not
  /// read: each phase picks its own reduction mode (Manifest for the
  /// Houdini clauses, Filtered then Full for the recheck).
  engine::ReduceOptions Reduce;
  /// The pre-filter's instance, whose size N is also the bounded-N
  /// screen's (DESIGN.md Sec. 4, "Bounded-N tuple screen").
  explct::ExplicitOptions Explicit;
  bool ExplicitPrefilter = true;
  unsigned MaxTuples = 150;              ///< Set-tuple search budget.
  unsigned SmtTimeoutMs = 30000;
  /// Maximum model-guided refinement rounds per Houdini check before the
  /// remaining manifest is asserted wholesale.
  ///
  /// SOLVE is one incremental, assumption-based Houdini loop per tuple.
  /// Every clause is reduced once in manifest mode
  /// (engine::ReduceMode::Manifest) into a core ground plus a
  /// deferred-instance manifest, and asserted once into a merged solver
  /// context behind a selector literal, with the candidate atoms tied to
  /// per-atom indicator variables. Each Houdini iteration is one
  /// checkAssuming() over the live indicators; unsat cores let the greedy
  /// minimizer remove atoms no clause depends on without a solver call,
  /// and the recheck reuses the warmed solver. When a candidate model
  /// survives a check, the manifest is evaluated *against that model* and
  /// only the violated entries are asserted (behind a per-clause
  /// houdini$inst$ selector, so they retract with the clause), until
  /// Unsat or until every entry holds -- at which point the model is a
  /// genuine model of the full reduction. Each round asserts at least one
  /// new entry or fully grounds a clause, so the loop terminates without
  /// the budget; the budget caps solver round-trips on adversarial
  /// models. Exhaustion (like an unevaluable model) asserts the whole
  /// remaining manifest, which IS the full grounding, so the budget never
  /// changes a verdict or an invariant. RefineBudget = 0 grounds every
  /// elected clause on its first model -- the eager reduction -- and is
  /// the test oracle of the refinement loop. See DESIGN.md Sec. 10, 14.
  unsigned RefineBudget = 16;
  /// Set-tuple search width: 0 = one worker per hardware thread, N =
  /// exactly N workers (clamped to the tuple count). Every width runs the
  /// same loop: the calling thread is worker 0 and pool threads are
  /// workers 1..N-1 (so 1 worker spawns no thread), each claiming the next
  /// rank from an atomic cursor. Every tuple attempt builds a private
  /// world -- its own TermManager, cloned system and SMT solvers -- and
  /// drops it when the attempt ends, and results merge by rank
  /// (first-verified-by-rank wins), so the outcome depends neither on
  /// thread timing nor on which tuples a worker tried before. See
  /// DESIGN.md, "Parallel search & determinism".
  unsigned NumWorkers = 0;
  /// Wall-clock budget for the whole synthesis run; 0 disables. Checked
  /// between tuples, between Houdini iterations, and between the SMT
  /// checks inside one Houdini iteration (coarse, not a hard kill).
  double TimeBudgetSeconds = 0;
  /// Observability sink (see obs/Obs.h). The synthesis emits spans
  /// (synthesize > tuple > houdini > smt_check), counters, latency
  /// histograms and leveled log lines into it: the driver (explicit
  /// exploration, enumeration, the merge) uses rank 0 and search worker W
  /// uses rank W+1 at every width.
  /// Its counters and span totals are the only tally of the SynthStats
  /// counts and phase times, so when null the run records into a private
  /// quiet tracer instead (counters, span totals and samples, no events,
  /// no log). A tracer may be shared across runs; each run's counts and
  /// phase times are its own share. Not owned; must outlive the call.
  obs::Tracer *Trace = nullptr;
  /// Solver supervision (retry, cross-back-end fallback, per-check
  /// deadline clamping; see resil/Resil.h). False hands every phase the
  /// bare back end -- the chaos tests' reference. The bounded-N screen
  /// always runs on the bare Z3 back end: an Unknown there only means the
  /// tuple runs unscreened.
  bool Supervise = true;
  /// Deterministic fault plan (resil/Fault.h); null or empty disables
  /// injection. Applied only when supervision is enabled. Not owned; must
  /// outlive the call.
  const resil::FaultPlan *Faults = nullptr;
  /// Cross-run reduction cache, the only one the search consults: within
  /// one run every reduction input is distinct (see ReduceCache's doc), so
  /// sharing a cache across runs is where hits come from
  /// (re-verification, pinned tuples). The cache is content-keyed: keys
  /// and entries live in a manager the cache owns, every tuple attempt
  /// consults it under its mutex, and a hit is materialized into the
  /// attempt's world with its skolems re-freshened -- so a run at any
  /// width hits the entries an earlier run stored. Null (the default)
  /// means no lookups at all. Not owned; must outlive every run that uses
  /// it.
  engine::ReduceCache *ReuseReduceCache = nullptr;
  /// Cooperative external cancellation (the serving stack's
  /// client-disconnect signal; see serve/Server.h). Polled wherever the
  /// time budget is polled -- between tuples, between Houdini iterations,
  /// between the checks inside one iteration -- so cancellation is
  /// coarse-grained like the budget, never a hard kill. A cancelled run
  /// returns like a budget-exhausted one (Inconclusive with the best
  /// partial candidate). Not owned; must outlive the call.
  const engine::CancellationToken *Cancel = nullptr;
};

/// What a run reports about itself. The counts -- TuplesTried to SmtChecks,
/// ExplicitStates, CacheHits, CacheMisses, Retries to WorkerExceptions --
/// and the phase times -- ExplicitSeconds to RecheckSeconds and
/// WorkerUtilization -- are not tallied anywhere: synthesize() reads each
/// off its tracer counter or span total at the end of the run (DESIGN.md
/// Sec. 8 and 12 name them). The search sets the rest.
struct SynthStats {
  unsigned TuplesTried = 0;
  /// Tuples the bounded-N screen rejected before any reduction (they are
  /// also counted in TuplesTried).
  unsigned TuplesScreened = 0;
  unsigned SmtChecks = 0;
  unsigned AtomsInPool = 0;
  unsigned AtomsAfterPrefilter = 0;
  unsigned AtomsInInvariant = 0;
  unsigned ExplicitStates = 0;
  double Seconds = 0;

  // -- Parallel-search observability ----------------------------------------
  /// Effective worker count of the search: SynthOptions::NumWorkers
  /// clamped to the tuple count.
  unsigned NumWorkers = 1;
  /// This run's lookups in the caller's reduction cache
  /// (SynthOptions::ReuseReduceCache), summed over all workers; both 0
  /// without one.
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  /// Per-phase busy time, summed over all workers (so in a parallel run
  /// the phases can exceed Seconds, which stays wall-clock).
  double ExplicitSeconds = 0;
  /// Candidate enumeration: set-body/atom-pool grammar walks and tuple
  /// ranking (driver only, once per run).
  double EnumerateSeconds = 0;
  double PrefilterSeconds = 0;
  double ReduceSeconds = 0;
  double HoudiniSeconds = 0;
  double RecheckSeconds = 0;
  /// Busy worker-seconds (the "tuple" spans) divided by workers * search
  /// wall time, at every width; 1.0 means every worker was processing
  /// tuples (world building included) the whole search.
  double WorkerUtilization = 1.0;

  // -- Resilience observability (see resil/Resil.h) --------------------------
  /// Same-back-end retries after timeout-class Unknowns.
  uint64_t Retries = 0;
  /// Escalations to the cross-checking back end.
  uint64_t Fallbacks = 0;
  /// FaultPlan rules that fired (0 outside fault-injection runs).
  uint64_t FaultsInjected = 0;
  /// Unknown answers classified as timeouts / as incompleteness, summed
  /// over all attempts (a retried check counts each attempt).
  uint64_t UnknownTimeouts = 0;
  uint64_t UnknownIncomplete = 0;
  /// check() calls whose back end threw (contained by the supervisor).
  uint64_t SolverExceptions = 0;
  /// Tuples abandoned because their attempt threw or a worker-task fault
  /// fired; the search continued past them.
  unsigned TuplesSkipped = 0;
  /// Exceptions that escaped a tuple attempt (contained per tuple).
  unsigned WorkerExceptions = 0;

  /// Merged counters and histogram summaries (SMT latency per phase,
  /// reduction latency, per-CARD-rule axiom counts, ...) from the tracer
  /// that observed the run: the run's own, or the caller's (then its
  /// totals include whatever else that tracer observed).
  obs::MetricsSummary Metrics;
};

/// The strongest candidate a failed run got to: the live atoms of a tuple
/// whose Houdini check found a counterexample to the safety clause.
/// Rendered terms (not Terms) so it survives the attempt's TermManager
/// and can be reported verbatim by the drivers.
struct PartialCandidate {
  unsigned Rank = 0;                  ///< 1-based tuple rank.
  std::vector<std::string> SetBodies; ///< Rendered set bodies.
  std::vector<std::string> Atoms;     ///< Live atoms at the rejection.
  std::string FailedOn;               ///< The clause that failed.
};

struct SynthResult {
  bool Verified = false;
  /// The closed invariant formula (pre-state vocabulary), when Verified.
  logic::Term Invariant;
  /// The inferred cardinality set bodies, over the template formals.
  std::vector<logic::Term> SetBodies;
  /// The surviving inv_0 atoms, over the template formals.
  std::vector<logic::Term> Atoms;
  /// Set when the explicit checker found a real counterexample.
  std::optional<explct::Counterexample> Cex;
  /// True when the run neither verified nor refuted AND some failure
  /// (timeout, skipped tuple, contained exception, injected fault,
  /// exhausted budget) makes "not verifiable" an unsound conclusion. The
  /// drivers report this as a distinct outcome (exit code 4).
  bool Inconclusive = false;
  /// Best near-miss of an unverified run, for the inconclusive report.
  std::optional<PartialCandidate> Best;
  SynthStats Stats;
  std::string Note;
};

/// The formal variables a caller needs to phrase SynthOptions::QGuard.
Formals formalsFor(logic::TermManager &M, const ShapeTemplate &Shape);

/// The closed invariant that \p Atoms (over \p F) denote under the set
/// bodies \p SetBodies: each counter formal becomes its cardinality, the
/// atoms that mention no template formal are conjoined as they are, and
/// the rest sit under  forall Q: QGuard -> (...)  (no guard when \p QGuard
/// is null). A verified run reports it as SynthResult::Invariant; the
/// bounded-N screen encodes it per atom.
logic::Term closedInvariant(logic::TermManager &M, const Formals &F,
                            logic::Term QGuard,
                            const std::vector<logic::Term> &SetBodies,
                            const std::vector<logic::Term> &Atoms);

/// The options bundle \p B asks for: its shape, quantifier guard and
/// explicit instance, and the Venn axioms iff it declares NeedsVenn. Run
/// settings (workers, budgets, tracer, ...) keep their defaults.
SynthOptions optionsFor(const front::FrontBundle &B);

/// Runs #Pi on \p Sys.
SynthResult synthesize(sys::ParamSystem &Sys, const SynthOptions &Opts);

/// Renders \p S as an aligned human-readable table (multi-line string,
/// trailing newline): search counters, per-phase busy seconds (cache_lookup
/// is S.Metrics' "t1_lookup" span) with their share of \p WallSeconds, and
/// the histogram five-number summaries from S.Metrics. Returned as a string
/// so drivers outside src/ decide where it goes (src/ itself never prints).
/// The screen row is S.Metrics' "screen" span.
std::string renderStatsTable(const SynthStats &S, double WallSeconds);

/// Renders the inconclusive-outcome report: per-failure-class tallies and
/// -- when a tuple failed only on safety -- the best partial candidate
/// with the clause that stopped it. Multi-line, trailing newline;
/// empty-failure lines are omitted. Drivers print this under the
/// INCONCLUSIVE banner (exit code 4).
std::string renderInconclusiveReport(const SynthResult &Res);

/// The stats as comma-separated `"key": value` JSON fields (no braces), a
/// shared fragment so every driver emits the same schema: the scalar
/// counts and phase seconds, plus `"hist_<name>": {count,min,max,mean,
/// p50,p90,p99}` per histogram and `"ctr_<name>": total` per counter of
/// S.Metrics (always present: every run has a tracer).
std::string statsJsonFields(const SynthStats &S);

} // namespace synth
} // namespace sharpie

#endif // SHARPIE_SYNTH_SYNTH_H
