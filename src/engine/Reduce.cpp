//===- engine/Reduce.cpp - Obligation reduction pipeline ---------------------===//
//
// Part of sharpie. See Reduce.h.
//
//===----------------------------------------------------------------------===//

#include "engine/Reduce.h"

#include "logic/TermIO.h"
#include "logic/TermOps.h"

#include <cassert>
#include <cstdio>

using namespace sharpie;
using namespace sharpie::engine;
using logic::Kind;
using logic::Sort;
using logic::Term;
using logic::TermManager;

ReduceResult sharpie::engine::reduceToGround(
    TermManager &M, Term Psi, const ReduceOptions &Opts,
    smt::SmtSolver *VennOracle,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms, obs::TraceBuffer *Trace) {
  obs::Span Sp(Trace, "reduce");
  ReduceResult Res;

  quant::SkolemResult SK = quant::skolemize(M, Psi);
  Res.Complete &= SK.Complete;

  card::CardRegistry Reg(M);
  for (const auto &[K, Body] : ExternalCounters)
    Reg.registerExternal(K, Body);
  card::AxiomEngine AE(M, Reg, Opts.Card, VennOracle);

  // Ground facts for context-aware Venn pruning: top-level conjuncts of the
  // skolemized matrix that are quantifier-, disjunction- and Card-free hold
  // in every model of the obligation.
  {
    std::vector<Term> Facts;
    std::vector<Term> Conjs = SK.Formula.kind() == Kind::And
                                  ? SK.Formula->kids()
                                  : std::vector<Term>{SK.Formula};
    for (Term C : Conjs) {
      if (logic::containsKind(C, Kind::Card) ||
          logic::containsKind(C, Kind::Forall) ||
          logic::containsKind(C, Kind::Exists) ||
          logic::containsKind(C, Kind::Or))
        continue;
      Facts.push_back(C);
    }
    AE.setContext(M.mkAnd(Facts));
  }

  // Update equations are harvested once from the skolemized matrix; the
  // update axiom guards on them, so their position (even below a
  // disjunction) does not matter for soundness.
  std::set<Term> UpdateEqSet = logic::collectSubterms(SK.Formula, [](Term T) {
    if (T.kind() != Kind::Eq)
      return false;
    return T->kid(0).kind() == Kind::Store || T->kid(1).kind() == Kind::Store;
  });
  std::vector<Term> UpdateEqs(UpdateEqSet.begin(), UpdateEqSet.end());

  // Primary index terms: the Tid variables of the obligation itself
  // (movers, head skolems, property witnesses). Axiom instances introduce
  // their own witness constants; universals *inside axioms* are expanded
  // over primary terms only -- the facts about a witness always come from
  // the obligation's own universals (which are expanded over everything),
  // never from another axiom's universal, and this asymmetry is what keeps
  // the reduction quadratic rather than cubic in the number of defs.
  std::set<Term> PrimarySet = quant::tidIndexTerms(SK.Formula);
  for (Term E : ExtraIndexTerms)
    if (E.sort() == Sort::Tid)
      PrimarySet.insert(E);
  if (PrimarySet.empty())
    PrimarySet.insert(M.freshVar("any_t", Sort::Tid));
  std::vector<Term> Primary(PrimarySet.begin(), PrimarySet.end());

  std::set<Term> IntSet = quant::intIndexTerms(SK.Formula);
  for (Term E : ExtraIndexTerms)
    if (E.sort() == Sort::Int)
      IntSet.insert(E);
  // Bare Int variables are not index terms (see intIndexTerms), but the
  // skolem constants of the obligation are pivotal instances (e.g. the
  // witness of a negated quantified invariant).
  for (Term Sk : SK.Skolems)
    if (Sk.sort() == Sort::Int)
      IntSet.insert(Sk);
  std::vector<Term> IntTerms(IntSet.begin(), IntSet.end());

  // Manifest mode (Opts.DeferManifest) runs the same fixed-point loop as
  // the full reduction -- same axiom emission order, same witness cascade,
  // same (full) instantiation domains -- but splits every conjunct stream
  // in two: CoreAxioms/Expanded go into Ground, DefAxioms and the
  // witness-binding obligation instances into the manifest. The per-round
  // state is recomputed from scratch exactly like Expanded is today, so
  // core AND manifest stays the full expansion at every round.
  std::vector<Term> CoreAxioms;
  std::vector<Term> DefAxioms;
  std::vector<Term> DeferredConjs;
  Term Expanded = SK.Formula;
  quant::ExpandOptions OrigExpand = Opts.Expand;
  if (Opts.DeferManifest) {
    OrigExpand.CollectDeferred = true;
    OrigExpand.CoreTids = &Primary;
  }
  // Collects the ground card terms of a formula into the registry.
  auto InternCards = [&](Term T) {
    std::set<Term> Cards = logic::collectSubterms(
        T, [](Term S) { return S.kind() == Kind::Card; });
    for (Term C : Cards)
      Reg.defFor(C);
  };
  for (unsigned Round = 0;; ++Round) {
    Res.NumRounds = Round + 1;
    std::vector<Term> AllAxioms = CoreAxioms;
    AllAxioms.insert(AllAxioms.end(), DefAxioms.begin(), DefAxioms.end());
    Term AxiomConj = M.mkAnd(AllAxioms);

    std::vector<Term> TidAll = Primary;
    {
      // Cap on axiom-witness constants added to the index set of the
      // obligation's own universals. Each witness instance of a quantified
      // invariant mints fresh cardinality definitions, so an uncapped set
      // makes the reduction quadratic-by-round; truncation only weakens
      // the reduction (sound).
      constexpr unsigned MaxWitnessInstances = 32;
      std::set<Term> WitSet = quant::tidIndexTerms(AxiomConj);
      unsigned Added = 0;
      for (Term W : WitSet) {
        if (PrimarySet.count(W))
          continue;
        if (Added++ >= MaxWitnessInstances) {
          Res.Complete = false;
          break;
        }
        TidAll.push_back(W);
      }
    }

    quant::ExpandResult ExOrig =
        quant::expandForalls(M, SK.Formula, TidAll, IntTerms, OrigExpand);
    quant::ExpandResult ExAx = quant::expandForalls(
        M, M.mkAnd(CoreAxioms), Primary, IntTerms, Opts.Expand);
    quant::ExpandResult ExDef = quant::expandForalls(
        M, M.mkAnd(DefAxioms), Primary, IntTerms, Opts.Expand);
    Res.Complete &= ExOrig.Complete && ExAx.Complete && ExDef.Complete;
    Res.NumInstances =
        ExOrig.NumInstances + ExAx.NumInstances + ExDef.NumInstances;
    Expanded = M.mkAnd(ExOrig.Formula, ExAx.Formula);
    std::vector<Term> OrigDeferred = std::move(ExOrig.Deferred);
    DeferredConjs = OrigDeferred;
    if (ExDef.Formula.kind() == Kind::And)
      for (Term K : ExDef.Formula->kids())
        DeferredConjs.push_back(K);
    else if (!DefAxioms.empty())
      DeferredConjs.push_back(ExDef.Formula);

    // Intern every cardinality term that the expansion made ground; the
    // manifest's card terms must resolve through the same registry.
    InternCards(Expanded);
    for (Term D : DeferredConjs)
      InternCards(D);

    if (Round == 0 && Opts.Card.RelevancyFilter) {
      // Lazy mode: the relevant counters are exactly the definitions in
      // play before any axiom has been emitted -- the obligation's own
      // cardinalities plus the external counters (the system size). Defs
      // minted later (axiom witnesses, store variants) are the ones the
      // filter exists to keep out.
      std::set<uint32_t> Relevant;
      for (const card::CardDef &D : Reg.defs())
        Relevant.insert(D.K.id());
      AE.setRelevant(std::move(Relevant));
    }

    size_t DefBefore = DefAxioms.size();
    std::vector<Term> NewAxioms =
        AE.emitNew(UpdateEqs, Opts.DeferManifest ? &DefAxioms : nullptr);
    if (NewAxioms.empty() && DefAxioms.size() == DefBefore)
      break;
    CoreAxioms.insert(CoreAxioms.end(), NewAxioms.begin(), NewAxioms.end());
    if (Round + 1 >= Opts.MaxRounds) {
      // Out of rounds with axioms pending: one final expansion so the new
      // axioms' quantifier-free parts are at least conjoined.
      quant::ExpandResult ExFinal = quant::expandForalls(
          M, M.mkAnd(CoreAxioms), Primary, IntTerms, Opts.Expand);
      Res.Complete &= ExFinal.Complete;
      Expanded = M.mkAnd(ExOrig.Formula, ExFinal.Formula);
      InternCards(Expanded);
      if (Opts.DeferManifest) {
        quant::ExpandResult ExFinalDef = quant::expandForalls(
            M, M.mkAnd(DefAxioms), Primary, IntTerms, Opts.Expand);
        Res.Complete &= ExFinalDef.Complete;
        DeferredConjs = std::move(OrigDeferred);
        if (ExFinalDef.Formula.kind() == Kind::And)
          for (Term K : ExFinalDef.Formula->kids())
            DeferredConjs.push_back(K);
        else if (!DefAxioms.empty())
          DeferredConjs.push_back(ExFinalDef.Formula);
        for (Term D : DeferredConjs)
          InternCards(D);
      }
      break;
    }
  }

  Res.NumAxioms = AE.stats().NumAxioms;
  Res.NumDeferred = AE.stats().NumDeferred;
  Res.NumVennRegions = AE.stats().NumVennRegions;
  Res.VennApplied = AE.stats().VennApplied;
  Res.Complete &= AE.stats().Complete;
  Res.CardVars = Reg.replacements();
  Res.Ground = logic::replaceAll(M, Expanded, Res.CardVars);
  assert(!logic::containsKind(Res.Ground, Kind::Card) &&
         "cardinality term survived the reduction");
  if (Opts.DeferManifest) {
    // Finalize the manifest: card-replace, flatten to conjuncts, drop
    // trivially-true items and items already conjoined in Ground, and
    // deduplicate (preserving order, which keys the deterministic clause
    // naming the cache relies on).
    std::set<Term> GroundConjs;
    if (Res.Ground.kind() == Kind::And)
      for (Term K : Res.Ground->kids())
        GroundConjs.insert(K);
    else
      GroundConjs.insert(Res.Ground);
    std::set<Term> Seen;
    for (Term D : DeferredConjs) {
      Term G = logic::replaceAll(M, D, Res.CardVars);
      assert(!logic::containsKind(G, Kind::Card) &&
             "cardinality term survived in the deferred manifest");
      std::vector<Term> Items =
          G.kind() == Kind::And ? G->kids() : std::vector<Term>{G};
      for (Term I : Items) {
        if (I.kind() == Kind::BoolConst && I->value())
          continue;
        if (GroundConjs.count(I) || !Seen.insert(I).second)
          continue;
        Res.Deferred.push_back(I);
      }
    }
  }
  if (Trace) {
    const card::AxiomStats &AS = AE.stats();
    Trace->counter("card_axioms.unary", AS.NumUnary);
    Trace->counter("card_axioms.pairwise", AS.NumPairwise);
    Trace->counter("card_axioms.update", AS.NumUpdate);
    Trace->counter("card_axioms.cover", AS.NumCover);
    Trace->counter("card_axioms.venn", AS.NumVennAxioms);
    Trace->counter("axioms_lazy_deferred", AS.NumDeferred);
    Trace->counter("quant_instances", Res.NumInstances);
    if (!Res.Deferred.empty())
      Trace->counter("manifest_instances",
                     static_cast<unsigned>(Res.Deferred.size()));
    // Ground-formula size proxy: the number of distinct atomic
    // comparisons after reduction, the knob that actually drives SMT
    // check cost (and the histogram operators watch for blowup).
    std::set<Term> Atoms = logic::collectSubterms(Res.Ground, [](Term T) {
      return T.kind() == Kind::Eq || T.kind() == Kind::Le ||
             T.kind() == Kind::Lt;
    });
    Trace->sample("formula_atoms", static_cast<double>(Atoms.size()));
    Trace->sample("reduce_ms", Sp.close() * 1e3);
  }
  return Res;
}

// -- Reduction cache ---------------------------------------------------------

namespace {
inline uint64_t hashMix(uint64_t H, uint64_t V) {
  // splitmix64-style mixing; good avalanche for composite keys.
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}
} // namespace

uint64_t sharpie::engine::reduceOptionsFingerprint(const ReduceOptions &O) {
  uint64_t H = 0;
  H = hashMix(H, O.Card.Update);
  H = hashMix(H, O.Card.Venn);
  H = hashMix(H, O.Card.RelevancyFilter);
  H = hashMix(H, O.Expand.MaxInstantiations);
  H = hashMix(H, O.MaxRounds);
  H = hashMix(H, O.DeferManifest);
  return H;
}

namespace {
/// The key over pre-fingerprinted options and host-manager terms: shared
/// by lookups, inserts and the persistence path, which stores the
/// fingerprint (not the options) on disk.
uint64_t keyFromParts(Term Psi, uint64_t OptsFp,
                      const std::vector<std::pair<Term, Term>> &EC,
                      const std::vector<Term> &EIT) {
  uint64_t H = hashMix(0, Psi.isNull() ? ~0ULL : Psi.id());
  H = hashMix(H, OptsFp);
  for (const auto &[K, Body] : EC) {
    H = hashMix(H, K.id());
    H = hashMix(H, Body.id());
  }
  for (Term E : EIT)
    H = hashMix(H, E.id());
  return H;
}

/// Translates the (Psi, options, externals) key into the host manager and
/// keys on the translated ids: two structurally equal obligations from
/// different managers intern to the same host nodes, so the key is
/// manager-independent and exact. Caller holds the cache mutex.
uint64_t sharedKey(logic::TermTranslator &In, Term Psi,
                   const ReduceOptions &Opts,
                   const std::vector<std::pair<Term, Term>> &ExternalCounters,
                   const std::vector<Term> &ExtraIndexTerms) {
  std::vector<std::pair<Term, Term>> HostEC;
  HostEC.reserve(ExternalCounters.size());
  for (const auto &[K, Body] : ExternalCounters)
    HostEC.emplace_back(In(K), In(Body));
  std::vector<Term> HostEIT;
  HostEIT.reserve(ExtraIndexTerms.size());
  for (Term E : ExtraIndexTerms)
    HostEIT.push_back(In(E));
  return keyFromParts(In(Psi), reduceOptionsFingerprint(Opts), HostEC,
                      HostEIT);
}
} // namespace

std::optional<ReduceResult> sharpie::engine::ReduceCache::lookupShared(
    logic::TermManager &M, Term Psi, const ReduceOptions &Opts,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms) {
  std::lock_guard<std::mutex> Lock(Mu);
  logic::TermTranslator In(HostM);
  uint64_t Key = sharedKey(In, Psi, Opts, ExternalCounters, ExtraIndexTerms);
  auto It = Entries.find(Key);
  if (It == Entries.end())
    return std::nullopt;
  // Materialize in the consumer's manager. Every "!" variable in the
  // entry is a per-reduction freshVar mint (witness, skolem, card_k,
  // venn_r, ...); re-skolemizing it keeps this use disjoint from every
  // other formula living in M -- exactly what a fresh reduction would
  // have produced. The memo inside Out maps each entry variable to one
  // fresh name, so the ground and the CardVars stay mutually consistent.
  logic::TermTranslator Out(M);
  Out.MapVar = [&M](Term V) -> Term {
    const std::string &Name = V->name();
    size_t Bang = Name.find('!');
    if (Bang == std::string::npos)
      return Term();
    return M.freshVar(Name.substr(0, Bang), V.sort());
  };
  ReduceResult R = It->second;
  R.Ground = Out(R.Ground);
  R.CardVars.clear();
  for (const auto &[C, K] : It->second.CardVars)
    R.CardVars[Out(C)] = Out(K);
  // The manifest rides the same memoized translator, so its skolems stay
  // consistent with Ground and CardVars.
  R.Deferred.clear();
  for (Term D : It->second.Deferred)
    R.Deferred.push_back(Out(D));
  return R;
}

void sharpie::engine::ReduceCache::insertShared(
    Term Psi, const ReduceOptions &Opts,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms, const ReduceResult &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  logic::TermTranslator In(HostM);
  uint64_t Key = sharedKey(In, Psi, Opts, ExternalCounters, ExtraIndexTerms);
  if (Entries.count(Key))
    return;
  ReduceResult Host = R;
  Host.Ground = In(R.Ground);
  Host.CardVars.clear();
  for (const auto &[C, K] : R.CardVars)
    Host.CardVars[In(C)] = In(K);
  Host.Deferred.clear();
  for (Term D : R.Deferred)
    Host.Deferred.push_back(In(D));
  Entries.emplace(Key, std::move(Host));
  // Retain the content identity so the entry can be re-keyed after a
  // round trip through the persistent store (the translator memoizes, so
  // re-running it over the key terms is a lookup, not a rebuild).
  SharedKey SK;
  SK.Psi = In(Psi);
  SK.OptsFp = reduceOptionsFingerprint(Opts);
  for (const auto &[K2, Body] : ExternalCounters)
    SK.Counters.emplace_back(In(K2), In(Body));
  for (Term E : ExtraIndexTerms)
    SK.Extra.push_back(In(E));
  KeyParts.emplace(Key, std::move(SK));
}

size_t sharpie::engine::ReduceCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

size_t sharpie::engine::ReduceCache::serializeShared(std::string &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  char Buf[128];
  for (const auto &[Key, R] : Entries) {
    auto KP = KeyParts.find(Key);
    if (KP == KeyParts.end())
      continue; // Entry without key material cannot be re-keyed; skip.
    const SharedKey &SK = KP->second;
    Out += "entry v1\n";
    std::snprintf(Buf, sizeof(Buf), "fp %llx\n",
                  static_cast<unsigned long long>(SK.OptsFp));
    Out += Buf;
    Out += "psi " + logic::serializeTerm(SK.Psi) + "\n";
    Out += "nec " + std::to_string(SK.Counters.size()) + "\n";
    for (const auto &[K2, Body] : SK.Counters) {
      Out += "eck " + logic::serializeTerm(K2) + "\n";
      Out += "ecb " + logic::serializeTerm(Body) + "\n";
    }
    Out += "neit " + std::to_string(SK.Extra.size()) + "\n";
    for (Term E : SK.Extra)
      Out += "eit " + logic::serializeTerm(E) + "\n";
    Out += "ground " + logic::serializeTerm(R.Ground) + "\n";
    // The manifest lines are optional (absent for non-manifest entries),
    // so caches written before manifest mode existed still parse.
    if (!R.Deferred.empty()) {
      Out += "ndef " + std::to_string(R.Deferred.size()) + "\n";
      for (Term D : R.Deferred)
        Out += "def " + logic::serializeTerm(D) + "\n";
    }
    std::snprintf(Buf, sizeof(Buf), "meta %d %u %u %u %u %u %d\n",
                  R.Complete ? 1 : 0, R.NumRounds, R.NumAxioms, R.NumInstances,
                  R.NumDeferred, R.NumVennRegions, R.VennApplied ? 1 : 0);
    Out += Buf;
    Out += "ncv " + std::to_string(R.CardVars.size()) + "\n";
    for (const auto &[C, K2] : R.CardVars) {
      Out += "cvk " + logic::serializeTerm(C) + "\n";
      Out += "cvv " + logic::serializeTerm(K2) + "\n";
    }
    Out += "end\n";
    ++N;
  }
  return N;
}

namespace {
/// Line cursor over the serialized cache text. Each line is "tag rest".
struct LineCursor {
  std::string_view In;
  size_t Pos = 0;

  bool next(std::string_view &Tag, std::string_view &Rest) {
    if (Pos >= In.size())
      return false;
    size_t Eol = In.find('\n', Pos);
    std::string_view Line =
        In.substr(Pos, Eol == std::string_view::npos ? Eol : Eol - Pos);
    Pos = Eol == std::string_view::npos ? In.size() : Eol + 1;
    size_t Sp = Line.find(' ');
    Tag = Line.substr(0, Sp);
    Rest = Sp == std::string_view::npos ? std::string_view() : Line.substr(Sp + 1);
    return true;
  }
};

bool parseCount(std::string_view S, size_t Max, size_t &N) {
  if (S.empty() || S.size() > 9 ||
      S.find_first_not_of("0123456789") != std::string_view::npos)
    return false;
  N = 0;
  for (char C : S)
    N = N * 10 + static_cast<size_t>(C - '0');
  return N <= Max;
}
} // namespace

size_t sharpie::engine::ReduceCache::deserializeShared(
    std::string_view In, std::string *CorruptNote) {
  std::lock_guard<std::mutex> Lock(Mu);
  LineCursor LC{In};
  size_t Merged = 0;
  std::string_view Tag, Rest;
  auto Corrupt = [&](const std::string &Why) {
    if (CorruptNote)
      *CorruptNote = Why + " (entry " + std::to_string(Merged + 1) + ")";
    return Merged;
  };
  // Every term parse goes through the sort-validating reader; a failure
  // anywhere abandons the rest of the stream but keeps prior entries --
  // a truncated or garbage tail costs hits, never correctness.
  auto ParseTerm = [&](std::string_view Text, bool AllowNull,
                       Term &T) -> bool {
    std::string TErr;
    T = logic::deserializeTerm(HostM, Text, &TErr);
    return !T.isNull() || (AllowNull && TErr.empty());
  };
  while (LC.next(Tag, Rest)) {
    if (Tag.empty() && Rest.empty())
      continue; // Blank line between entries.
    if (Tag != "entry" || Rest != "v1")
      return Corrupt("expected 'entry v1'");
    SharedKey SK;
    ReduceResult R;
    if (!LC.next(Tag, Rest) || Tag != "fp" || Rest.empty() ||
        Rest.size() > 16 ||
        Rest.find_first_not_of("0123456789abcdef") != std::string_view::npos)
      return Corrupt("bad fp line");
    SK.OptsFp = 0;
    for (char C : Rest)
      SK.OptsFp = SK.OptsFp * 16 +
                  static_cast<uint64_t>(C <= '9' ? C - '0' : C - 'a' + 10);
    if (!LC.next(Tag, Rest) || Tag != "psi" || !ParseTerm(Rest, false, SK.Psi))
      return Corrupt("bad psi term");
    size_t NEc = 0;
    if (!LC.next(Tag, Rest) || Tag != "nec" || !parseCount(Rest, 4096, NEc))
      return Corrupt("bad nec count");
    for (size_t I = 0; I < NEc; ++I) {
      Term K2, Body;
      if (!LC.next(Tag, Rest) || Tag != "eck" || !ParseTerm(Rest, false, K2))
        return Corrupt("bad eck term");
      if (!LC.next(Tag, Rest) || Tag != "ecb" || !ParseTerm(Rest, false, Body))
        return Corrupt("bad ecb term");
      SK.Counters.emplace_back(K2, Body);
    }
    size_t NEit = 0;
    if (!LC.next(Tag, Rest) || Tag != "neit" || !parseCount(Rest, 65536, NEit))
      return Corrupt("bad neit count");
    for (size_t I = 0; I < NEit; ++I) {
      Term E;
      if (!LC.next(Tag, Rest) || Tag != "eit" || !ParseTerm(Rest, false, E))
        return Corrupt("bad eit term");
      SK.Extra.push_back(E);
    }
    if (!LC.next(Tag, Rest) || Tag != "ground" ||
        !ParseTerm(Rest, false, R.Ground))
      return Corrupt("bad ground term");
    if (!LC.next(Tag, Rest))
      return Corrupt("truncated after ground");
    if (Tag == "ndef") {
      size_t NDef = 0;
      if (!parseCount(Rest, 1 << 20, NDef))
        return Corrupt("bad ndef count");
      for (size_t I = 0; I < NDef; ++I) {
        Term D;
        if (!LC.next(Tag, Rest) || Tag != "def" || !ParseTerm(Rest, false, D))
          return Corrupt("bad def term");
        R.Deferred.push_back(D);
      }
      if (!LC.next(Tag, Rest))
        return Corrupt("truncated after manifest");
    }
    if (Tag != "meta")
      return Corrupt("bad meta line");
    {
      int Complete = 0, VennApplied = 0;
      unsigned Rounds = 0, Axioms = 0, Insts = 0, Deferred = 0,
               VennRegions = 0;
      if (std::sscanf(std::string(Rest).c_str(), "%d %u %u %u %u %u %d",
                      &Complete, &Rounds, &Axioms, &Insts, &Deferred,
                      &VennRegions, &VennApplied) != 7)
        return Corrupt("bad meta fields");
      R.Complete = Complete != 0;
      R.NumRounds = Rounds;
      R.NumAxioms = Axioms;
      R.NumInstances = Insts;
      R.NumDeferred = Deferred;
      R.NumVennRegions = VennRegions;
      R.VennApplied = VennApplied != 0;
    }
    size_t NCv = 0;
    if (!LC.next(Tag, Rest) || Tag != "ncv" || !parseCount(Rest, 65536, NCv))
      return Corrupt("bad ncv count");
    for (size_t I = 0; I < NCv; ++I) {
      Term C, K2;
      if (!LC.next(Tag, Rest) || Tag != "cvk" || !ParseTerm(Rest, false, C))
        return Corrupt("bad cvk term");
      if (!LC.next(Tag, Rest) || Tag != "cvv" || !ParseTerm(Rest, false, K2))
        return Corrupt("bad cvv term");
      R.CardVars[C] = K2;
    }
    if (!LC.next(Tag, Rest) || Tag != "end")
      return Corrupt("missing end marker");
    uint64_t Key = keyFromParts(SK.Psi, SK.OptsFp, SK.Counters, SK.Extra);
    if (!Entries.count(Key)) {
      Entries.emplace(Key, std::move(R));
      KeyParts.emplace(Key, std::move(SK));
      ++Merged;
    }
  }
  return Merged;
}

ReduceResult sharpie::engine::reduceToGroundCached(
    ReduceCache *Cache, TermManager &M, Term Psi, const ReduceOptions &Opts,
    smt::SmtSolver *VennOracle,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms, obs::TraceBuffer *Trace) {
  if (!Cache)
    return reduceToGround(M, Psi, Opts, VennOracle, ExternalCounters,
                          ExtraIndexTerms, Trace);
  if (std::optional<ReduceResult> Hit = Cache->lookupShared(
          M, Psi, Opts, ExternalCounters, ExtraIndexTerms)) {
    if (Trace)
      Trace->counter("reduce_cache_hits", 1);
    return std::move(*Hit);
  }
  if (Trace)
    Trace->counter("reduce_cache_misses", 1);
  ReduceResult R = reduceToGround(M, Psi, Opts, VennOracle, ExternalCounters,
                                  ExtraIndexTerms, Trace);
  Cache->insertShared(Psi, Opts, ExternalCounters, ExtraIndexTerms, R);
  return R;
}
