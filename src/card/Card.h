//===- card/Card.h - Cardinality elimination (ELIMCARD) ---------*- C++ -*-===//
//
// Part of sharpie. Implements the cardinality axiomatization of paper
// Sec. 5: every cardinality term #{t | phi} is mapped to a fresh integer
// variable k (the bookkeeping function Def), and the information lost by
// the abstraction is recovered by instantiating axiom schemata:
//
//   CARD<=   (forall t: phi -> phi')                        ->  k <= l
//   CARD<    (forall t: phi -> phi') /\ (exists t: !phi /\ phi') -> k < l
//   CARD-UPD g = f[j <- _] in Delta, phi' = phi[g/f]:
//            1(phi'(j), d+) /\ 1(phi(j), d-) /\ l = k + d+ - d-
//
// plus the derived rules CARD>=0, CARD_0 ("empty set has cardinality 0"),
// CARD>0 ("inhabited set has positive cardinality"), and bounds against the
// universal set Omega when the system has a symbolic size. When order
// constraints are not enough, a Venn decomposition over the (conjunctive)
// set-defining predicates adds region variables and sum equations
// (paper Sec. 5.2); satisfiable regions are enumerated with an SMT oracle
// so that e.g. linearly ordered predicates yield linearly many regions.
//
// Note on CARD<: the paper's Fig. 4b displays only the existential premise;
// as stated that is unsound (phi = {1}, phi' = {2} satisfies the premise
// with equal cardinalities), so we implement the evidently intended rule
// with the subset premise of CARD<= conjoined.
//
// Axiom instances are produced in skolemized NNF: their existential
// premises become fresh Tid constants, which deliberately enlarges the
// instantiation index set of the surrounding clause (engine/Reduce.cpp
// re-expands universal facts over them).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_CARD_CARD_H
#define SHARPIE_CARD_CARD_H

#include "logic/Term.h"
#include "smt/SmtSolver.h"

#include <map>
#include <optional>
#include <set>
#include <vector>

namespace sharpie {
namespace card {

/// One entry of the bookkeeping function: Def(K) = #{BoundVar | Body}.
/// Bodies are canonicalized to a shared bound variable so that cardinality
/// terms differing only in the bound variable's name share one definition.
struct CardDef {
  logic::Term K;        ///< The fresh Int variable standing for the count.
  logic::Term BoundVar; ///< Canonical bound variable (shared by all defs).
  logic::Term Body;     ///< Canonical set-defining formula.

  /// The membership predicate evaluated at index \p Idx: Body[Idx/BoundVar].
  logic::Term at(logic::TermManager &M, logic::Term Idx) const;

  /// True if every array read in Body is indexed directly by BoundVar
  /// (paper Remark 1); required for the update axiom.
  bool indexedOnlyByBoundVar() const;
};

/// Interns cardinality definitions and hands out their k variables.
class CardRegistry {
public:
  explicit CardRegistry(logic::TermManager &M);

  /// Returns the definition for a Card term, creating it on first sight.
  const CardDef &defFor(logic::Term CardTerm);

  /// Registers a definition for an externally provided counter, e.g.
  /// Def(n) = #{t | true} for a system of symbolic size n. Returns its def.
  const CardDef &registerExternal(logic::Term K, logic::Term Body);

  const std::vector<CardDef> &defs() const { return Defs; }

  /// The counter of the universal set #{t | true}, if registered (the
  /// system's size variable).
  std::optional<logic::Term> omegaK() const;

  /// Maps every Card term ever seen (in its original form) to its k var.
  const std::map<logic::Term, logic::Term> &replacements() const {
    return Replacements;
  }

  logic::Term canonicalBoundVar() const { return CanonVar; }

private:
  logic::TermManager &M;
  logic::Term CanonVar;
  std::map<logic::Term, size_t> IndexByBody;    ///< canonical body -> def.
  std::vector<CardDef> Defs;
  std::map<logic::Term, logic::Term> Replacements;
};

/// Which axiom families to emit. CARD<= / CARD< between all def pairs are
/// always on; the caps on definitions (48), Venn predicates (24) and Venn
/// regions (192) are constants in Card.cpp.
struct AxiomOptions {
  bool Update = true;       ///< CARD-UPD against store equations.
  bool Venn = false;        ///< Venn decomposition (paper Sec. 5.2).
};

struct AxiomStats {
  bool Complete = true; ///< False if MaxDefs or MaxVennRegions truncated.

  // Per-rule instance counts: exported as obs counters so a trace shows
  // which CARD schema dominates an obligation's reduction.
  unsigned NumUnary = 0;    ///< CARD>=0 / CARD_0 / CARD>0.
  unsigned NumPairwise = 0; ///< CARD<= / CARD< / CARD-DISJOINT.
  unsigned NumUpdate = 0;   ///< CARD-UPD.
  unsigned NumCover = 0;    ///< CARD-COVER.
  unsigned NumVennAxioms = 0; ///< Venn region variables and sum equations.
  /// Emission slots skipped by the relevancy filter (one per suppressed
  /// unary batch / pair), or, in partition mode, the number of axiom
  /// instances routed into the deferred manifest. The
  /// "axioms_filter_skipped" or "axioms_manifest_deferred" counter.
  unsigned NumDeferred = 0;
};

/// Generates cardinality axiom instances incrementally. Create one engine
/// per proof obligation; call emitNew() after each batch of definitions has
/// been added to the registry. Only axioms not yet emitted are returned.
class AxiomEngine {
public:
  AxiomEngine(logic::TermManager &M, CardRegistry &Reg,
              const AxiomOptions &Opts, smt::SmtSolver *VennOracle);

  /// Installs ground facts known to hold in every model of the obligation
  /// (top-level quantifier-free conjuncts: update equations, guards).
  /// The Venn region enumeration asserts them, pruning regions that are
  /// impossible *in context* -- e.g. with m' = m and s' = s + 1 the region
  /// "m'(c) <= s' but neither m(c) <= s nor m(c) = s+1" dies, which yields
  /// the subadditivity facts the ticket lock proof needs. Variable-variable
  /// equalities (frame conditions g' = g) additionally let the update axiom
  /// bridge pre- and post-state set bodies.
  void setContext(logic::Term Facts);

  /// Turns on the relevancy filter: from now on axioms are emitted only
  /// for definitions whose counter (CardDef::K id) is in \p Ks --
  /// typically the cardinalities occurring in the obligation itself, as
  /// opposed to the store-variant and witness definitions minted during
  /// axiom emission, which is the point of the filter. Must be called
  /// before the first emitNew(); an engine that never sees it emits for
  /// every definition. Skipped slots are tallied in
  /// AxiomStats::NumDeferred. Dropping axioms only weakens the reduction,
  /// so a filtered Unsat is still a proof; a filtered Sat may be spurious
  /// and must be confirmed against the full axiom set (the synthesizer's
  /// recheck does so).
  void setRelevant(std::set<uint32_t> Ks) { RelevantKs = std::move(Ks); }

  /// Emits axioms for all current definitions against the update equations
  /// in \p UpdateEqs (terms of shape g = store(f, j, v), used *guardedly*:
  /// each update axiom is emitted as an implication from its equations, so
  /// equations harvested from below disjunctions stay sound).
  ///
  /// With \p Deferred non-null the engine runs in *partition mode* (the
  /// model-guided refinement path, engine/Reduce.cpp, which never sets a
  /// relevancy filter): every instance is routed by shape -- ground
  /// axioms (CARD>=0, CARD-UPD, CARD-DISJOINT, Venn regions and sums) into
  /// the returned vector, witness-bearing ones (CARD_0, CARD>0, CARD<=,
  /// CARD<, CARD-COVER; the instance-bloat source, each minting a fresh
  /// Tid constant or universal) into \p Deferred. By construction
  /// returned AND deferred equals the unfiltered emission, so asserting
  /// the deferred part later recovers the full reduction exactly.
  std::vector<logic::Term> emitNew(const std::vector<logic::Term> &UpdateEqs,
                                   std::vector<logic::Term> *Deferred = nullptr);

  const AxiomStats &stats() const { return Stats; }

private:
  void emitUnary(const CardDef &D, std::vector<logic::Term> &Out,
                 std::vector<logic::Term> *Deferred);
  void emitPair(const CardDef &A, const CardDef &B,
                std::vector<logic::Term> &Out,
                std::vector<logic::Term> *Deferred);
  void emitUpdate(const CardDef &A, const CardDef &B,
                  const std::vector<logic::Term> &UpdateEqs,
                  std::vector<logic::Term> &Out,
                  std::vector<logic::Term> *Deferred);
  /// CARD-COVER, a derived 3-set consequence of the Venn decomposition:
  /// (forall t: a -> b \/ c) -> ka <= kb + kc, emitted in skolemized NNF
  /// for pairs (a, b) that an update relates with a *moved threshold*
  /// (e.g. {m <= s} before and {m <= s+1} after the unlock) against every
  /// third set c. Unconditionally sound; the pair detection is only a
  /// relevance filter that keeps the instance count linear.
  void emitCover(const CardDef &A, const CardDef &B,
                 std::vector<logic::Term> &Out);
  void emitVenn(std::vector<logic::Term> &Out);
  bool relevant(const CardDef &D) const {
    return !RelevantKs || RelevantKs->count(D.K.id()) != 0;
  }

  logic::TermManager &M;
  CardRegistry &Reg;
  AxiomOptions Opts;
  smt::SmtSolver *VennOracle;
  logic::Term Context;
  /// Variable pairs equated by top-level context facts (frame conditions).
  std::vector<std::pair<logic::Term, logic::Term>> ContextVarEqs;
  AxiomStats Stats;
  std::optional<std::set<uint32_t>> RelevantKs; ///< See setRelevant().
  std::set<std::pair<uint32_t, uint32_t>> EmittedPairs; ///< by K ids.
  std::set<uint32_t> EmittedUnary;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> EmittedUpdates;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> EmittedCovers;
  /// Pre -> post renames for globals changed by the transition, harvested
  /// from context equalities g' = e(g).
  std::vector<std::pair<logic::Term, logic::Term>> ChangedGlobalRenames;
  size_t VennDefsCovered = 0; ///< #defs included in the last Venn pass.
};

/// The indicator relation of paper Sec. 5:
/// 1(phi, k) := (phi /\ k = 1) \/ (!phi /\ k = 0).
logic::Term indicator(logic::TermManager &M, logic::Term Phi, logic::Term K);

} // namespace card
} // namespace sharpie

#endif // SHARPIE_CARD_CARD_H
