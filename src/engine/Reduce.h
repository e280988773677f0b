//===- engine/Reduce.h - Obligation reduction pipeline ----------*- C++ -*-===//
//
// Part of sharpie. Reduces a satisfiability obligation Psi in the combined
// theory (arithmetic + arrays + cardinalities + restricted quantifiers) to
// a ground, cardinality-free formula that the SMT back end can decide:
//
//   1. NNF + skolemization of existentials (quant/).
//   2. Iterated rounds of:
//      a. expansion of universals over the current Tid/Int index sets,
//      b. ELIMCARD: intern every (now ground) cardinality term and emit
//         the cardinality axioms (card/); axiom witnesses enlarge the Tid
//         index set, which is why the loop re-expands.
//   3. Replacement of every cardinality term by its k variable.
//
// Every step preserves "reduced formula unsat => Psi unsat", so proving a
// verification condition via the reduction is sound (paper Theorem 1); lost
// precision is tracked in ReduceResult::Complete.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_ENGINE_REDUCE_H
#define SHARPIE_ENGINE_REDUCE_H

#include "card/Card.h"
#include "obs/Obs.h"
#include "quant/Quant.h"
#include "smt/SmtSolver.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

namespace sharpie {
namespace engine {

struct ReduceOptions {
  card::AxiomOptions Card;
  quant::ExpandOptions Expand;
  unsigned MaxRounds = 3;
  /// Model-guided refinement mode (the CEGAR instantiation loop in
  /// synth/Synth.cpp): run the *full* reduction pipeline -- every axiom
  /// family materialized, the full witness cascade, full instantiation
  /// domains, no relevancy skipping -- but route each conjunct either into
  /// ReduceResult::Ground (the core) or into the deferred-instance
  /// manifest ReduceResult::Deferred, such that Ground AND the manifest is
  /// logically the unpartitioned full reduction. Routed out are the
  /// witness-bearing CARD axioms and the obligation instances that bind
  /// axiom-witness constants (the instance-bloat sources); Unsat on the
  /// core alone is therefore sound, and a model that satisfies every
  /// manifest entry is a genuine model of the full reduction.
  bool DeferManifest = false;
};

struct ReduceResult {
  logic::Term Ground;     ///< Quantifier- and cardinality-free formula.
  bool Complete = true;   ///< False if any step weakened the obligation.
  unsigned NumRounds = 0;
  unsigned NumAxioms = 0;
  unsigned NumInstances = 0;
  /// CARD-axiom slots skipped by card::AxiomOptions::RelevancyFilter, or,
  /// in manifest mode, the CARD-axiom instances routed into Deferred. With
  /// the filter on, a nonzero value means Ground is a *weakening* of the
  /// full reduction: Unsat is still a proof, Sat must be confirmed against
  /// an unfiltered reduction.
  unsigned NumDeferred = 0;
  unsigned NumVennRegions = 0;
  bool VennApplied = false;
  /// Maps every cardinality term seen to the k variable standing for it.
  std::map<logic::Term, logic::Term> CardVars;
  /// ReduceOptions::DeferManifest only: the deferred-instance manifest.
  /// Each entry is ground and cardinality-free (card terms replaced via
  /// CardVars like Ground itself), deduplicated, and not already a
  /// conjunct of Ground. Ground AND all entries == the full reduction;
  /// empty outside manifest mode.
  std::vector<logic::Term> Deferred;
};

/// A stable fingerprint of every knob that changes reduceToGround's output
/// for a fixed input term. Part of the reduction-cache key: results cached
/// under one axiom configuration must not be served under another.
uint64_t reduceOptionsFingerprint(const ReduceOptions &Opts);

/// Memoizes reduceToGround results by content. The key is the obligation
/// itself -- the input formula (which already encodes the full clause: the
/// transition, the set-tuple measurements and the placeholder wiring), the
/// external counters, the extra index terms -- translated into a
/// TermManager the cache owns, plus the axiom-configuration fingerprint.
/// Structurally equal obligations from any two managers intern to the
/// same host nodes, so the key is manager-independent and exact, and
/// every entry lives in the host manager, outliving the manager that
/// produced it. Lookups and inserts are mutex-guarded, so one cache serves
/// every tuple attempt of a run and concurrent daemon requests at once.
///
/// The cache keeps no hit/miss tally of its own: reduceToGroundCached
/// counts "reduce_cache_hits"/"reduce_cache_misses" on the caller's trace
/// buffer, so a run's SynthStats::CacheHits/CacheMisses are that run's
/// lookups even when one cache serves concurrent daemon requests.
///
/// When do hits occur? NOT within one synthesis run: the ranked tuple
/// enumeration is duplicate-free and every clause formula embeds its
/// tuple's measurement terms, so each of a run's reduction inputs is
/// distinct by construction. The search therefore consults only a cache
/// its caller supplies (SynthOptions::ReuseReduceCache), and hits come
/// from rebuilding the same obligation in a later run: re-verifying a
/// protocol (the daemon's tier 2, `sharpie --store`), or re-reducing a
/// pinned FixedSetBodies tuple. tests/reduce_cache_test.cpp pins both the
/// zero-hit single-run expectation and the cross-run hit path.
class ReduceCache {
public:
  /// Does nothing: a cache is shareable across managers and threads from
  /// construction. Kept only because sharpiebench/harness.cpp calls it.
  void enableSharing() {}

  /// Translates the key terms into the host, and on a hit materializes
  /// the entry in \p M with every freshVar-minted variable ("!" names:
  /// witnesses, skolems, k/venn counters) re-skolemized through
  /// M.freshVar, so two entries -- or one entry hit twice -- can never
  /// alias skolems inside one solver context. Thread-safe.
  std::optional<ReduceResult>
  lookupShared(logic::TermManager &M, logic::Term Psi,
               const ReduceOptions &Opts,
               const std::vector<std::pair<logic::Term, logic::Term>>
                   &ExternalCounters,
               const std::vector<logic::Term> &ExtraIndexTerms);

  /// Stores \p R translated into the host manager. First writer wins on a
  /// key collision between racing attempts (the results are equivalent up
  /// to skolem names). Thread-safe.
  void insertShared(logic::Term Psi, const ReduceOptions &Opts,
                    const std::vector<std::pair<logic::Term, logic::Term>>
                        &ExternalCounters,
                    const std::vector<logic::Term> &ExtraIndexTerms,
                    const ReduceResult &R);

  // -- Persistence (the serving stack's tier-2 store, serve/Store.h) ---------
  //
  // Entries round-trip through a line-based text encoding: every entry
  // carries its key material (the host-translated Psi, the options
  // fingerprint, external counters, extra index terms) alongside the
  // ReduceResult, both serialized with logic/TermIO.h. Loading parses the
  // key terms into this cache's host manager and recomputes the key
  // exactly as lookupShared would, so a cache written by one process
  // serves hits in another: the keys are content, not ids.

  /// Serializes every entry (text, deterministic order). Returns the
  /// number of entries written. Thread-safe.
  size_t serializeShared(std::string &Out) const;

  /// Parses entries serialized by serializeShared and merges them into
  /// this cache (existing entries win on key collisions).
  /// Corruption-tolerant: a malformed entry stops the load at that point
  /// -- everything already parsed stays, nothing throws, and
  /// \p CorruptNote (when non-null) records what was wrong. Returns the
  /// number of entries merged. Thread-safe.
  size_t deserializeShared(std::string_view In,
                           std::string *CorruptNote = nullptr);

  /// Number of live entries (diagnostics / cache_stats).
  size_t size() const;

private:
  /// The content identity of an entry, retained so the entry can be
  /// re-keyed after a round trip through disk (terms live in HostM).
  struct SharedKey {
    logic::Term Psi;
    uint64_t OptsFp = 0;
    std::vector<std::pair<logic::Term, logic::Term>> Counters;
    std::vector<logic::Term> Extra;
  };

  std::map<uint64_t, ReduceResult> Entries;
  /// Key material per entry, same keys as Entries.
  std::map<uint64_t, SharedKey> KeyParts;
  /// Owns every key and entry term. The mutex guards Entries, KeyParts
  /// and every translation touching HostM.
  logic::TermManager HostM;
  mutable std::mutex Mu;
};

/// Reduces the satisfiability obligation \p Psi to a ground formula.
/// \p VennOracle is used to enumerate Venn regions when Opts.Card.Venn is
/// set (it must be a solver over the same TermManager, and its assertion
/// state is preserved via push/pop). \p ExternalCounters registers
/// externally named cardinalities, e.g. {n, true-body} declares
/// Def(n) = #{t | true} for a system of symbolic size n.
/// \p ExtraIndexTerms are additional instantiation terms (Tid- or
/// Int-sorted) merged into the index sets -- e.g. template-quantifier
/// instances that appear only inside placeholder substitutions and hence
/// not in \p Psi itself. \p Trace, when non-null, receives a "reduce"
/// span, a latency sample ("reduce_ms") and per-CARD-rule axiom counters.
ReduceResult
reduceToGround(logic::TermManager &M, logic::Term Psi,
               const ReduceOptions &Opts, smt::SmtSolver *VennOracle,
               const std::vector<std::pair<logic::Term, logic::Term>>
                   &ExternalCounters = {},
               const std::vector<logic::Term> &ExtraIndexTerms = {},
               obs::TraceBuffer *Trace = nullptr);

/// Memoizing front end to reduceToGround. \p Cache may be null: a plain
/// call that makes no lookup and counts nothing. On a hit the cached
/// ReduceResult is returned without touching the oracle; on a miss the
/// reduction runs and the result is stored. \p Trace additionally counts
/// "reduce_cache_hits"/"reduce_cache_misses" -- the only tally of the
/// cache's traffic.
ReduceResult
reduceToGroundCached(ReduceCache *Cache, logic::TermManager &M,
                     logic::Term Psi, const ReduceOptions &Opts,
                     smt::SmtSolver *VennOracle,
                     const std::vector<std::pair<logic::Term, logic::Term>>
                         &ExternalCounters = {},
                     const std::vector<logic::Term> &ExtraIndexTerms = {},
                     obs::TraceBuffer *Trace = nullptr);

} // namespace engine
} // namespace sharpie

#endif // SHARPIE_ENGINE_REDUCE_H
