//===- engine/Reduce.cpp - Obligation reduction pipeline ---------------------===//
//
// Part of sharpie. See Reduce.h.
//
//===----------------------------------------------------------------------===//

#include "engine/Reduce.h"

#include "logic/TermIO.h"
#include "logic/TermOps.h"
#include "quant/Quant.h"

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
  const bool Manifest = Opts.Mode == ReduceMode::Manifest;

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

  // Manifest mode runs the same fixed-point loop as the full reduction --
  // same axiom emission order, same witness cascade, same (full)
  // instantiation domains -- but splits every conjunct stream in two:
  // CoreAxioms/Expanded go into Ground, DefAxioms and the witness-binding
  // obligation instances (those binding a Tid outside Primary) into the
  // manifest. The per-round state is recomputed from scratch exactly like
  // Expanded is, so core AND manifest stays the full expansion at every
  // round.
  std::vector<Term> CoreAxioms;
  std::vector<Term> DefAxioms;
  std::vector<Term> DeferredConjs;
  Term Expanded = SK.Formula;
  const std::vector<Term> *CoreTids = Manifest ? &Primary : nullptr;
  // Expansion/ELIMCARD rounds before the loop stops with axioms pending.
  constexpr unsigned MaxRounds = 3;
  // Collects the ground card terms of a formula into the registry.
  auto InternCards = [&](Term T) {
    std::set<Term> Cards = logic::collectSubterms(
        T, [](Term S) { return S.kind() == Kind::Card; });
    for (Term C : Cards)
      Reg.defFor(C);
  };
  for (unsigned Round = 0;; ++Round) {
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
        quant::expandForalls(M, SK.Formula, TidAll, IntTerms, CoreTids);
    quant::ExpandResult ExAx =
        quant::expandForalls(M, M.mkAnd(CoreAxioms), Primary, IntTerms);
    quant::ExpandResult ExDef =
        quant::expandForalls(M, M.mkAnd(DefAxioms), Primary, IntTerms);
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

    if (Round == 0 && Opts.Mode == ReduceMode::Filtered) {
      // The relevant counters are exactly the definitions in play before
      // any axiom has been emitted -- the obligation's own cardinalities
      // plus the external counters (the system size). Defs minted later
      // (axiom witnesses, store variants) are the ones the filter exists
      // to keep out.
      std::set<uint32_t> Relevant;
      for (const card::CardDef &D : Reg.defs())
        Relevant.insert(D.K.id());
      AE.setRelevant(std::move(Relevant));
    }

    size_t DefBefore = DefAxioms.size();
    std::vector<Term> NewAxioms =
        AE.emitNew(UpdateEqs, Manifest ? &DefAxioms : nullptr);
    if (NewAxioms.empty() && DefAxioms.size() == DefBefore)
      break;
    CoreAxioms.insert(CoreAxioms.end(), NewAxioms.begin(), NewAxioms.end());
    if (Round + 1 >= MaxRounds) {
      // Out of rounds with axioms pending: one final expansion so the new
      // axioms' quantifier-free parts are at least conjoined.
      quant::ExpandResult ExFinal =
          quant::expandForalls(M, M.mkAnd(CoreAxioms), Primary, IntTerms);
      Res.Complete &= ExFinal.Complete;
      Expanded = M.mkAnd(ExOrig.Formula, ExFinal.Formula);
      InternCards(Expanded);
      if (Manifest) {
        quant::ExpandResult ExFinalDef =
            quant::expandForalls(M, M.mkAnd(DefAxioms), Primary, IntTerms);
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

  Res.NumDeferred = AE.stats().NumDeferred;
  Res.Complete &= AE.stats().Complete;
  const std::map<Term, Term> &CardVars = Reg.replacements();
  Res.Ground = logic::replaceAll(M, Expanded, CardVars);
  assert(!logic::containsKind(Res.Ground, Kind::Card) &&
         "cardinality term survived the reduction");
  if (Manifest) {
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
      Term G = logic::replaceAll(M, D, CardVars);
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
    // NumDeferred means one thing per mode (ReduceResult::NumDeferred),
    // so each meaning has its own counter; Full mode defers nothing.
    if (Opts.Mode == ReduceMode::Filtered)
      Trace->counter("axioms_filter_skipped", AS.NumDeferred);
    else if (Manifest)
      Trace->counter("axioms_manifest_deferred", AS.NumDeferred);
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
  H = hashMix(H, static_cast<uint64_t>(O.Mode));
  return H;
}

uint64_t sharpie::engine::ReduceCache::Entry::key() const {
  uint64_t H = hashMix(0, Psi.isNull() ? ~0ULL : Psi.id());
  H = hashMix(H, OptsFp);
  for (const auto &[K, Body] : Counters) {
    H = hashMix(H, K.id());
    H = hashMix(H, Body.id());
  }
  for (Term E : Extra)
    H = hashMix(H, E.id());
  return H;
}

namespace {
/// \p R with every term passed through \p Tr. Ground goes first and the
/// manifest rides the same memoized translator, so their skolems stay
/// consistent.
ReduceResult translateResult(const ReduceResult &R,
                             logic::TermTranslator &Tr) {
  ReduceResult Out;
  Out.Ground = Tr(R.Ground);
  Out.Complete = R.Complete;
  Out.NumInstances = R.NumInstances;
  Out.NumDeferred = R.NumDeferred;
  Out.Deferred.reserve(R.Deferred.size());
  for (Term D : R.Deferred)
    Out.Deferred.push_back(Tr(D));
  return Out;
}
} // namespace

sharpie::engine::ReduceCache::Entry
sharpie::engine::ReduceCache::hostKey(
    logic::TermTranslator &In, Term Psi, const ReduceOptions &Opts,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms) {
  Entry E;
  E.Psi = In(Psi);
  E.OptsFp = reduceOptionsFingerprint(Opts);
  E.Counters.reserve(ExternalCounters.size());
  for (const auto &[K, Body] : ExternalCounters)
    E.Counters.emplace_back(In(K), In(Body));
  E.Extra.reserve(ExtraIndexTerms.size());
  for (Term X : ExtraIndexTerms)
    E.Extra.push_back(In(X));
  return E;
}

std::optional<ReduceResult> sharpie::engine::ReduceCache::lookupShared(
    logic::TermManager &M, Term Psi, const ReduceOptions &Opts,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms) {
  std::lock_guard<std::mutex> Lock(Mu);
  logic::TermTranslator In(HostM);
  Entry K = hostKey(In, Psi, Opts, ExternalCounters, ExtraIndexTerms);
  auto It = Entries.find(K.key());
  if (It == Entries.end())
    return std::nullopt;
  // Materialize in the consumer's manager. Every "!" variable in the
  // entry is a per-reduction freshVar mint (witness, skolem, card_k,
  // venn_r, ...); re-skolemizing it keeps this use disjoint from every
  // other formula living in M -- exactly what a fresh reduction would
  // have produced. The memo inside Out maps each entry variable to one
  // fresh name.
  logic::TermTranslator Out(M);
  Out.MapVar = [&M](Term V) -> Term {
    const std::string &Name = V->name();
    size_t Bang = Name.find('!');
    if (Bang == std::string::npos)
      return Term();
    return M.freshVar(Name.substr(0, Bang), V.sort());
  };
  return translateResult(It->second.Result, Out);
}

void sharpie::engine::ReduceCache::insertShared(
    Term Psi, const ReduceOptions &Opts,
    const std::vector<std::pair<Term, Term>> &ExternalCounters,
    const std::vector<Term> &ExtraIndexTerms, const ReduceResult &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  logic::TermTranslator In(HostM);
  Entry E = hostKey(In, Psi, Opts, ExternalCounters, ExtraIndexTerms);
  uint64_t Key = E.key();
  if (Entries.count(Key))
    return;
  E.Result = translateResult(R, In);
  Entries.emplace(Key, std::move(E));
}

size_t sharpie::engine::ReduceCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

size_t sharpie::engine::ReduceCache::serializeShared(std::string &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  char Buf[128];
  for (const auto &[Key, E] : Entries) {
    const ReduceResult &R = E.Result;
    Out += "entry v1\n";
    std::snprintf(Buf, sizeof(Buf), "fp %llx\n",
                  static_cast<unsigned long long>(E.OptsFp));
    Out += Buf;
    Out += "psi " + logic::serializeTerm(E.Psi) + "\n";
    Out += "nec " + std::to_string(E.Counters.size()) + "\n";
    for (const auto &[K2, Body] : E.Counters) {
      Out += "eck " + logic::serializeTerm(K2) + "\n";
      Out += "ecb " + logic::serializeTerm(Body) + "\n";
    }
    Out += "neit " + std::to_string(E.Extra.size()) + "\n";
    for (Term X : E.Extra)
      Out += "eit " + logic::serializeTerm(X) + "\n";
    Out += "ground " + logic::serializeTerm(R.Ground) + "\n";
    Out += "ndef " + std::to_string(R.Deferred.size()) + "\n";
    for (Term D : R.Deferred)
      Out += "def " + logic::serializeTerm(D) + "\n";
    std::snprintf(Buf, sizeof(Buf), "meta %d %u %u\n", R.Complete ? 1 : 0,
                  R.NumInstances, R.NumDeferred);
    Out += Buf;
    Out += "end\n";
  }
  return Entries.size();
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
  auto ParseTerm = [&](std::string_view Text, Term &T) -> bool {
    T = logic::deserializeTerm(HostM, Text);
    return !T.isNull();
  };
  while (LC.next(Tag, Rest)) {
    if (Tag.empty() && Rest.empty())
      continue; // Blank line between entries.
    if (Tag != "entry" || Rest != "v1")
      return Corrupt("expected 'entry v1'");
    Entry E;
    ReduceResult &R = E.Result;
    if (!LC.next(Tag, Rest) || Tag != "fp" || Rest.empty() ||
        Rest.size() > 16 ||
        Rest.find_first_not_of("0123456789abcdef") != std::string_view::npos)
      return Corrupt("bad fp line");
    for (char C : Rest)
      E.OptsFp = E.OptsFp * 16 +
                 static_cast<uint64_t>(C <= '9' ? C - '0' : C - 'a' + 10);
    if (!LC.next(Tag, Rest) || Tag != "psi" || !ParseTerm(Rest, E.Psi))
      return Corrupt("bad psi term");
    size_t NEc = 0;
    if (!LC.next(Tag, Rest) || Tag != "nec" || !parseCount(Rest, 4096, NEc))
      return Corrupt("bad nec count");
    for (size_t I = 0; I < NEc; ++I) {
      Term K2, Body;
      if (!LC.next(Tag, Rest) || Tag != "eck" || !ParseTerm(Rest, K2))
        return Corrupt("bad eck term");
      if (!LC.next(Tag, Rest) || Tag != "ecb" || !ParseTerm(Rest, Body))
        return Corrupt("bad ecb term");
      E.Counters.emplace_back(K2, Body);
    }
    size_t NEit = 0;
    if (!LC.next(Tag, Rest) || Tag != "neit" || !parseCount(Rest, 65536, NEit))
      return Corrupt("bad neit count");
    for (size_t I = 0; I < NEit; ++I) {
      Term X;
      if (!LC.next(Tag, Rest) || Tag != "eit" || !ParseTerm(Rest, X))
        return Corrupt("bad eit term");
      E.Extra.push_back(X);
    }
    if (!LC.next(Tag, Rest) || Tag != "ground" || !ParseTerm(Rest, R.Ground))
      return Corrupt("bad ground term");
    size_t NDef = 0;
    if (!LC.next(Tag, Rest) || Tag != "ndef" ||
        !parseCount(Rest, 1 << 20, NDef))
      return Corrupt("bad ndef count");
    for (size_t I = 0; I < NDef; ++I) {
      Term D;
      if (!LC.next(Tag, Rest) || Tag != "def" || !ParseTerm(Rest, D))
        return Corrupt("bad def term");
      R.Deferred.push_back(D);
    }
    int Complete = 0;
    if (!LC.next(Tag, Rest) || Tag != "meta" ||
        std::sscanf(std::string(Rest).c_str(), "%d %u %u", &Complete,
                    &R.NumInstances, &R.NumDeferred) != 3)
      return Corrupt("bad meta line");
    R.Complete = Complete != 0;
    if (!LC.next(Tag, Rest) || Tag != "end")
      return Corrupt("missing end marker");
    uint64_t Key = E.key();
    if (!Entries.count(Key)) {
      Entries.emplace(Key, std::move(E));
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
