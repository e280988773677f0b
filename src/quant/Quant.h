//===- quant/Quant.h - Quantifier elimination by instantiation --*- C++ -*-===//
//
// Part of sharpie. Reduces quantified satisfiability queries to ground ones
// in the style of the array property fragment (Bradley-Manna-Sipma; paper
// Sec. 5.1 and Remark 1):
//
//   * Existentials not below a universal are skolemized by fresh constants
//     (equisatisfiable).
//   * Universals are expanded into finite conjunctions over an index set of
//     ground terms (a weakening, hence sound for proving unsatisfiability;
//     complete within the array property fragment when the index set covers
//     all ground index terms).
//
// All reductions preserve "Unsat implies Unsat": if the reduced formula is
// unsatisfiable so is the original. When a step loses information (an
// existential below a universal, or an expansion budget overrun), the
// result is flagged incomplete; incompleteness can only make sharpie reject
// invariants, never accept bad ones.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_QUANT_QUANT_H
#define SHARPIE_QUANT_QUANT_H

#include "logic/Term.h"

#include <set>
#include <vector>

namespace sharpie {
namespace smt {
class SmtModel;
}
namespace quant {

struct SkolemResult {
  logic::Term Formula;               ///< NNF, existential-free formula.
  std::vector<logic::Term> Skolems;  ///< Fresh constants introduced.
  bool Complete = true;              ///< False if an exists sat below a forall
                                     ///< and was weakened to true.
};

/// Converts \p T (a formula whose satisfiability is being checked) to NNF
/// and replaces every existential that is not in the scope of a universal
/// by fresh skolem constants. Existentials below universals would need
/// skolem *functions*; they are weakened to true and flagged.
SkolemResult skolemize(logic::TermManager &M, logic::Term T);

struct ExpandResult {
  logic::Term Formula;   ///< Universal-free formula.
  unsigned NumInstances = 0;
  bool Complete = true;  ///< False if the budget truncated an expansion.
  /// Partitioned expansion only: the routed-out instances (each
  /// universal-free). Invariant: mkAnd(Formula, mkAnd(Deferred)) == the
  /// full expansion.
  std::vector<logic::Term> Deferred;
};

/// Expands every universal quantifier in the NNF, existential-free formula
/// \p T into a conjunction of instances: Tid-sorted binders range over
/// \p TidTerms, Int-sorted binders over \p IntTerms. The expansion makes at
/// most 20000 binder instances in total (a constant in Quant.cpp);
/// universals that would exceed it are weakened to true (sound, flagged
/// incomplete).
///
/// With \p CoreTids non-null the expansion is *partitioned* (the manifest
/// reduction mode, engine/Reduce.h): every universal at a conjunctive
/// position is still expanded over the full domain, but an instance goes
/// into the returned formula (the core) only when every Tid binder draws
/// from \p CoreTids (an empty list restricts nothing); every other
/// instance -- witness-cascade instances in particular -- goes into
/// ExpandResult::Deferred, so Formula AND Deferred equals the unpartitioned
/// expansion by construction. Universals below an Or cannot be split off
/// (their instances are not conjuncts of the whole) and are expanded fully
/// in place.
ExpandResult expandForalls(logic::TermManager &M, logic::Term T,
                           const std::vector<logic::Term> &TidTerms,
                           const std::vector<logic::Term> &IntTerms,
                           const std::vector<logic::Term> *CoreTids = nullptr);

/// Result of evaluating a deferred-instance manifest against a candidate
/// model (the refinement step of CEGAR-style lazy instantiation).
struct ViolatedResult {
  /// Indices into the manifest of instances the model falsifies. Asserting
  /// exactly these rules out the model while keeping the context minimal.
  std::vector<size_t> Violated;
  /// True when some instance could not be evaluated (a partial model, e.g.
  /// MiniSolver's structural evaluator). The caller must then treat the
  /// model as unvetted and fall back to asserting the whole manifest --
  /// degrading to full grounding is sound, keeping the model is not.
  bool EvalFailed = false;
};

/// Evaluates each manifest entry \p Items[I] with \p Skip[I] == 0 against
/// \p Model and collects the violated ones. An entry that evaluates to
/// true is genuinely satisfied (the conjuncts are ground and the model
/// total when EvalFailed stays false), so a round that returns no
/// violations certifies the model against the full reduction.
ViolatedResult selectViolated(smt::SmtModel &Model,
                              const std::vector<logic::Term> &Items,
                              const std::vector<char> &Skip);

/// Collects the Tid-sorted index set of \p T: all free Tid variables. (The
/// term language has no compound Tid-sorted terms.)
std::set<logic::Term> tidIndexTerms(logic::Term T);

/// Collects candidate instance terms for Int-sorted universals in \p T:
/// free Int variables, integer literals, and ground array reads occurring
/// in \p T.
std::set<logic::Term> intIndexTerms(logic::Term T);

} // namespace quant
} // namespace sharpie

#endif // SHARPIE_QUANT_QUANT_H
