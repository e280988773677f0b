//===- sharpiebench/harness.cpp - In-process benchmark harness ------------===//
//
// Part of the sharpie benchmark (README.md beside this file). Runs one
// workload of inputs.json through sharpie's public entry points and
// prints one JSON document of raw measurements on stdout:
//
//   loading    front::loadProtocolFile, or a protocols::make* factory for
//              inputs the frontend cannot express yet;
//   verifying  synth::synthesize (mode "synth") or serve::Server::verify
//              on a fresh store directory (mode "serve");
//   checking   explct::explore + explct::holdsInAll re-evaluate every
//              VERIFIED invariant on the explicit reachable states.
//
// run.py builds this program, compares the verdicts with the golden file
// and reduces the measurements to the benchmark's metrics.
//
//   sharpiebench_harness --manifest FILE --workload NAME --seed N
//                        --seconds S --trace 0|1 --out DIR
//   sharpiebench_harness --manifest FILE --golden
//
// --trace 0 measures end-to-end numbers with no tracer attached. --trace 1
// runs one untraced pass, then one traced pass: an obs::Tracer is attached
// to the program, every call into a public layer function is wrapped in a
// "bench.*" span, and the spans, counters and histograms give the
// per-layer numbers. The Perfetto trace goes to DIR. --golden verifies
// every input of the manifest once at 1 worker and prints the outputs the
// golden file records.
//
//===----------------------------------------------------------------------===//

#include "explicit/Explicit.h"
#include "front/Canon.h"
#include "front/Front.h"
#include "logic/Eval.h"
#include "logic/TermIO.h"
#include "logic/TermOps.h"
#include "obs/Export.h"
#include "obs/Obs.h"
#include "protocols/Protocols.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "synth/Synth.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace sharpie;
using serve::Json;
using serve::JsonArray;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

/// Per-verify time budget, the one the figure benches use.
constexpr double BudgetSeconds = 180;
/// Every verify must end this many seconds after the harness starts: each
/// verify's budget is the smaller of BudgetSeconds and the time left, so a
/// verify that runs out of budget is reported as a failed attempt before
/// run.py's 170 s backstop stops the whole run.
constexpr double RunDeadlineSeconds = 150;
/// Warm requests replayed against the store in a traced serve run: enough
/// that more than ten samples lie beyond p99.
constexpr unsigned WarmRequests = 3000;
/// Untraced synth passes verify each input back to back until its calls add
/// up to this many seconds (at least once), so short inputs get several
/// samples per run even when a long one leaves room for a single pass.
/// run.py takes each input's median call, so the repeats only add samples.
constexpr double InputSeconds = 2;
/// Set-up is timed for SetupBlockSeconds before the first pass and again
/// after the last, in batches of at least SetupBatchSeconds.
constexpr double SetupBlockSeconds = 0.5;
constexpr double SetupBatchSeconds = 0.01;
/// Wall time spent measuring the evaluator's rate, per input.
constexpr double EvalRateSeconds = 0.1;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(RU.ru_utime) + Sec(RU.ru_stime);
}

double peakRssMb() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, Q in (0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

Json strings(const std::vector<std::string> &V) {
  JsonArray A;
  for (const std::string &S : V)
    A.push_back(Json(S));
  return Json(std::move(A));
}

// -- Inputs --------------------------------------------------------------------

struct InputSpec {
  std::string Name;
  std::string Source;    ///< "file:<path>" or "factory:<protocols::make...>".
  std::string Invariant; ///< Golden closed invariant (logic/TermIO.h form).
};

struct Workload {
  std::string Mode = "synth"; ///< "synth" or "serve".
  unsigned Workers = 1;
  std::vector<InputSpec> Inputs;
};

/// The built-in bundles the benchmark uses, keyed by their manifest source.
const std::map<std::string, protocols::BundleFactory> &factories() {
  using logic::TermManager;
  static const std::map<std::string, protocols::BundleFactory> F = {
      {"protocols::makeSimpBar(barrier)",
       [](TermManager &M) { return protocols::makeSimpBar(M, true); }},
      {"protocols::makeParentChild(barrier)",
       [](TermManager &M) { return protocols::makeParentChild(M, true); }},
      {"protocols::makeLamportBakery", protocols::makeLamportBakery},
      {"protocols::makeRobot(2,2)",
       [](TermManager &M) { return protocols::makeRobot(M, 2, 2); }},
      {"protocols::makeOneThird", protocols::makeOneThird},
      {"protocols::makeTicketMutex", protocols::makeTicketMutex},
  };
  return F;
}

/// One loaded input: its own manager and everything synthesize() needs.
struct Problem {
  std::unique_ptr<logic::TermManager> M;
  std::unique_ptr<sys::ParamSystem> Sys;
  synth::ShapeTemplate Shape;
  logic::Term QGuard;
  explct::ExplicitOptions Explicit;
  bool ExpectSafe = true;
  bool NeedsVenn = false;
};

bool isFile(const InputSpec &In) { return In.Source.rfind("file:", 0) == 0; }

Problem load(const InputSpec &In) {
  Problem P;
  P.M = std::make_unique<logic::TermManager>();
  if (isFile(In)) {
    front::LoadResult L = front::loadProtocolFile(*P.M, In.Source.substr(5));
    if (!L.ok())
      throw std::runtime_error(L.Error->render());
    front::FrontBundle &B = *L.Bundle;
    P.Sys = std::move(B.Sys);
    P.Shape = B.Shape;
    P.QGuard = B.QGuard;
    P.Explicit = B.Explicit;
    P.ExpectSafe = B.ExpectSafe;
    P.NeedsVenn = B.NeedsVenn;
    return P;
  }
  auto It = In.Source.rfind("factory:", 0) == 0
                ? factories().find(In.Source.substr(8))
                : factories().end();
  if (It == factories().end())
    throw std::runtime_error("unknown input source '" + In.Source + "'");
  protocols::ProtocolBundle B = It->second(*P.M);
  P.Sys = std::move(B.Sys);
  P.Shape = B.Shape;
  P.QGuard = B.QGuard;
  P.Explicit = B.Explicit;
  P.ExpectSafe = B.ExpectSafe;
  P.NeedsVenn = B.NeedsVenn;
  return P;
}

front::CanonicalHash hashOf(const Problem &P) {
  return front::canonicalProblemHash(*P.Sys, P.Shape, P.QGuard, P.Explicit,
                                     P.NeedsVenn, P.ExpectSafe);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  if (!In)
    throw std::runtime_error("cannot read '" + Path + "'");
  return SS.str();
}

Workload readWorkload(const Json &Manifest, const std::string &Name) {
  const Json &W = Manifest.get("workloads").get(Name);
  if (!W.isObject())
    throw std::runtime_error("unknown workload '" + Name + "'");
  Workload Out;
  Out.Mode = W.get("mode").asString();
  Out.Workers = static_cast<unsigned>(W.get("workers").asInt(1));
  for (const Json &N : W.get("inputs").asArray()) {
    const Json &In = Manifest.get("inputs").get(N.asString());
    Out.Inputs.push_back({N.asString(), In.get("source").asString(),
                          In.get("golden").get("invariant").asString()});
  }
  return Out;
}

// -- Verdicts ------------------------------------------------------------------

/// One verify call as the benchmark sees it.
struct Call {
  size_t Input = 0;
  std::string Outcome; ///< verified | unsafe | inconclusive | unknown | error
  double Seconds = 0;
  double Cpu = 0; ///< Process user+sys seconds during the call.
  std::vector<std::string> Bodies, Atoms;
  Json Stats;       ///< Serve mode: the --json result line of the response.
  std::string Text; ///< Serve mode: the response output minus that line.
};

Json callJson(const Call &C, const Workload &W) {
  Json J;
  J["input"] = Json(W.Inputs[C.Input].Name);
  J["outcome"] = Json(C.Outcome);
  J["seconds"] = Json(C.Seconds);
  J["cpu_s"] = Json(C.Cpu);
  J["bodies"] = strings(C.Bodies);
  J["atoms"] = strings(C.Atoms);
  return J;
}

std::string outcomeOf(const synth::SynthResult &R) {
  return R.Verified ? "verified"
         : R.Cex    ? "unsafe"
         : R.Inconclusive ? "inconclusive"
                          : "unknown";
}

std::string outcomeOfExit(int Exit) {
  switch (Exit) {
  case 0:
    return "verified";
  case 1:
    return "unsafe";
  case 4:
    return "inconclusive";
  case 2:
    return "unknown";
  default:
    return "error";
  }
}

/// Splits a rendered verdict block into its set-body and atom lines.
void parseVerdictText(const std::string &Text, Call &C) {
  std::istringstream In(Text);
  std::string Line;
  std::vector<std::string> *Into = nullptr;
  while (std::getline(In, Line)) {
    if (Line == "inferred cardinalities:")
      Into = &C.Bodies;
    else if (Line.rfind("invariant atoms (", 0) == 0)
      Into = &C.Atoms;
    else if (Into && Line.rfind("  ", 0) == 0)
      Into->push_back(Line.substr(2));
    else
      Into = nullptr;
  }
  for (std::string &B : C.Bodies) // "#{t | body}" -> "body"
    if (B.rfind("#{t | ", 0) == 0 && B.back() == '}')
      B = B.substr(6, B.size() - 7);
}

synth::SynthOptions synthOptions(const Problem &P, unsigned Workers,
                                 obs::Tracer *T, double Budget) {
  synth::SynthOptions O;
  O.Shape = P.Shape;
  O.QGuard = P.QGuard;
  O.Reduce.Card.Venn = P.NeedsVenn;
  O.Explicit = P.Explicit;
  O.NumWorkers = Workers;
  O.TimeBudgetSeconds = Budget;
  O.Trace = T;
  return O;
}

/// Re-evaluates \p Inv on the explicit reachable states of \p P -- the
/// oracle shares no code with card/, quant/ or engine/.
bool holdsOnReachable(const Problem &P, logic::Term Inv) {
  explct::ExplicitResult ER = explct::explore(*P.Sys, P.Explicit);
  return explct::holdsInAll(ER.States, Inv);
}

// -- Span accounting -----------------------------------------------------------

/// Spans that only group other spans: their self time belongs to no
/// single layer, so the coverage ratio counts it as not covered.
bool isContainer(const std::string &Name) {
  static const char *const Names[] = {
      "bench.pass", "bench.synthesize", "bench.verify", "synthesize",
      "synth",      "request",          "tuple",        "houdini",
      "houdini_iter"};
  for (const char *N : Names)
    if (Name == N)
      return true;
  return false;
}

struct Node {
  std::string Name;
  unsigned Worker = 0;
  double B = 0, E = -1; ///< Microseconds; E < 0 while open.
  std::vector<size_t> Kids;
};

using Iv = std::pair<double, double>;

/// Sorted, disjoint union of \p V.
std::vector<Iv> unite(std::vector<Iv> V) {
  std::sort(V.begin(), V.end());
  std::vector<Iv> Out;
  for (const Iv &I : V) {
    if (!Out.empty() && I.first <= Out.back().second)
      Out.back().second = std::max(Out.back().second, I.second);
    else if (I.second > I.first)
      Out.push_back(I);
  }
  return Out;
}

/// Measure of [B, E] minus the sorted disjoint union \p U.
double measureMinus(double B, double E, const std::vector<Iv> &U) {
  double Len = std::max(0.0, E - B);
  for (const Iv &I : U)
    Len -= std::max(0.0, std::min(E, I.second) - std::max(B, I.first));
  return Len;
}

class SpanForest {
public:
  /// Adds one event stream; times shift by \p ShiftUs. Returns the root
  /// spans of worker rank 0.
  std::vector<size_t> add(const std::vector<obs::Event> &Evs, double ShiftUs) {
    std::map<unsigned, std::vector<size_t>> Stack;
    std::vector<size_t> Rank0Roots;
    double Last = ShiftUs;
    for (const obs::Event &Ev : Evs) {
      double T = Ev.TimeUs + ShiftUs;
      Last = std::max(Last, T);
      std::vector<size_t> &S = Stack[Ev.Worker];
      if (Ev.Kind == obs::EventKind::SpanBegin) {
        Nodes.push_back({Ev.Name, Ev.Worker, T, -1, {}});
        size_t Id = Nodes.size() - 1;
        if (!S.empty())
          Nodes[S.back()].Kids.push_back(Id);
        else if (Ev.Worker == 0)
          Rank0Roots.push_back(Id);
        S.push_back(Id);
      } else if (Ev.Kind == obs::EventKind::SpanEnd) {
        // Pop up to the matching begin; a truncated stream may have lost
        // inner ends.
        while (!S.empty()) {
          size_t Id = S.back();
          S.pop_back();
          Nodes[Id].E = T;
          if (Nodes[Id].Name == Ev.Name)
            break;
        }
      }
    }
    for (auto &[W, S] : Stack) // Spans left open end with the stream.
      for (size_t Id : S)
        Nodes[Id].E = Last;
    return Rank0Roots;
  }

  void adopt(size_t Parent, const std::vector<size_t> &Kids) {
    for (size_t K : Kids) {
      Nodes[K].B = std::max(Nodes[K].B, Nodes[Parent].B);
      Nodes[K].E = std::min(Nodes[K].E, Nodes[Parent].E);
      Nodes[Parent].Kids.push_back(K);
    }
  }

  std::vector<Node> Nodes;

  double dur(size_t Id) const { return std::max(0.0, Nodes[Id].E - Nodes[Id].B); }

  double selfUs(size_t Id) const {
    double Kids = 0;
    for (size_t K : Nodes[Id].Kids)
      Kids += dur(K);
    return std::max(0.0, dur(Id) - Kids);
  }

  std::vector<Iv> kidUnion(size_t Id) const {
    std::vector<Iv> V;
    for (size_t K : Nodes[Id].Kids)
      V.push_back({Nodes[K].B, Nodes[K].E});
    return unite(V);
  }
};

/// Per-layer numbers read off the traced pass.
struct TraceReport {
  std::map<std::string, double> SelfSeconds; ///< By span name, all ranks.
  std::map<std::string, double> TotalSeconds;
  std::map<std::string, unsigned> Count;
  double Coverage = 0;
  std::string TopUncovered;
  double TopUncoveredSeconds = 0;
};

/// \p Pass is the bench.pass node. A moment of it counts as covered when
/// rank 0 or any search worker is inside a layer (non-container) span.
TraceReport analyze(const SpanForest &F, size_t Pass) {
  TraceReport R;
  std::vector<Iv> LayerIvs, WorkerLayerIvs;
  for (size_t I = 0; I < F.Nodes.size(); ++I) {
    const Node &N = F.Nodes[I];
    R.SelfSeconds[N.Name] += F.selfUs(I) * 1e-6;
    R.TotalSeconds[N.Name] += F.dur(I) * 1e-6;
    ++R.Count[N.Name];
    if (!isContainer(N.Name)) {
      LayerIvs.push_back({N.B, N.E});
      if (N.Worker != 0)
        WorkerLayerIvs.push_back({N.B, N.E});
    }
  }
  const Node &P = F.Nodes[Pass];
  double Wall = F.dur(Pass);
  R.Coverage = Wall > 0 ? 1 - measureMinus(P.B, P.E, unite(LayerIvs)) / Wall : 0;

  // Name the container whose own (uncovered) time is largest.
  std::vector<Iv> Workers = unite(WorkerLayerIvs);
  std::map<std::string, double> Uncovered;
  for (size_t I = 0; I < F.Nodes.size(); ++I) {
    const Node &N = F.Nodes[I];
    if (N.Worker != 0 || !isContainer(N.Name))
      continue;
    double Gap = 0, Cursor = N.B;
    for (const Iv &K : F.kidUnion(I)) {
      Gap += measureMinus(Cursor, std::max(Cursor, K.first), Workers);
      Cursor = std::max(Cursor, K.second);
    }
    Gap += measureMinus(Cursor, std::max(Cursor, N.E), Workers);
    Uncovered[N.Name] += Gap * 1e-6;
  }
  for (const auto &[Name, S] : Uncovered)
    if (S > R.TopUncoveredSeconds) {
      R.TopUncovered = Name;
      R.TopUncoveredSeconds = S;
    }
  return R;
}

// -- Layer totals --------------------------------------------------------------

/// SynthStats scalars summed over the inputs of one pass. Serve mode reads
/// the same fields off each response's --json line.
struct StatTotals {
  double Tuples = 0, Checks = 0, Pool = 0, Kept = 0, States = 0;
  double ExplicitS = 0, EnumerateS = 0, PrefilterS = 0, BuildS = 0,
         RecheckS = 0;
  double Hits = 0, Misses = 0, Retries = 0, Fallbacks = 0, Unknowns = 0,
         Skipped = 0;
  double UtilWeighted = 0, Seconds = 0;

  void add(const synth::SynthStats &S) {
    Tuples += S.TuplesTried;
    Checks += S.SmtChecks;
    Pool += S.AtomsInPool;
    Kept += S.AtomsAfterPrefilter;
    States += S.ExplicitStates;
    ExplicitS += S.ExplicitSeconds;
    EnumerateS += S.EnumerateSeconds;
    PrefilterS += S.PrefilterSeconds;
    BuildS += S.ReduceSeconds;
    RecheckS += S.RecheckSeconds;
    Hits += S.CacheHits;
    Misses += S.CacheMisses;
    Retries += static_cast<double>(S.Retries);
    Fallbacks += static_cast<double>(S.Fallbacks);
    Unknowns += static_cast<double>(S.UnknownTimeouts + S.UnknownIncomplete);
    Skipped += S.TuplesSkipped;
    UtilWeighted += S.WorkerUtilization * S.Seconds;
    Seconds += S.Seconds;
  }

  void add(const Json &J) {
    auto D = [&](const char *K) { return J.get(K).asDouble(); };
    Tuples += D("tuples_tried");
    Checks += D("smt_checks");
    Pool += D("atoms_pool");
    Kept += D("atoms_prefilter");
    States += D("explicit_states");
    ExplicitS += D("explicit_seconds");
    EnumerateS += D("enumerate_seconds");
    PrefilterS += D("prefilter_seconds");
    BuildS += D("reduce_seconds");
    RecheckS += D("recheck_seconds");
    Hits += D("cache_hits");
    Misses += D("cache_misses");
    Retries += D("retries");
    Fallbacks += D("fallbacks");
    Unknowns += D("unknown_timeouts") + D("unknown_incomplete");
    Skipped += D("tuples_skipped");
    UtilWeighted += D("worker_utilization") * D("synth_seconds");
    Seconds += D("synth_seconds");
  }
};

/// The per-layer metrics that come from the program's own counters,
/// histograms and span tree (run.py adds the correctness counts).
void layerMetrics(Json &L, const StatTotals &T, const obs::MetricsSummary &MS,
                  const TraceReport &TR) {
  auto Ctr = [&](const char *N) {
    const int64_t *V = MS.counter(N);
    return V ? static_cast<double>(*V) : 0.0;
  };
  auto Hist = [&](const char *N) {
    const obs::HistSummary *H = MS.hist(N);
    return H ? *H : obs::HistSummary{};
  };
  auto SpanTotal = [&](const char *N) {
    auto It = TR.TotalSeconds.find(N);
    return It == TR.TotalSeconds.end() ? 0.0 : It->second;
  };

  L["explicit.states"] = Json(T.States);
  L["explicit.busy_s"] = Json(T.ExplicitS);

  L["synth.tuples_tried"] = Json(T.Tuples);
  L["synth.enumerate_s"] = Json(T.EnumerateS);
  L["synth.prefilter_s"] = Json(T.PrefilterS);
  L["synth.atoms_kept_ratio"] = Json(T.Pool > 0 ? T.Kept / T.Pool : 0.0);
  L["synth.build_clauses_s"] = Json(T.BuildS);
  L["synth.houdini_s"] = Json(SpanTotal("houdini"));
  auto Iters = TR.Count.find("houdini_iter");
  L["synth.houdini_iters"] =
      Json(Iters == TR.Count.end() ? 0.0 : double(Iters->second));
  L["synth.minimize_s"] = Json(SpanTotal("minimize"));
  L["synth.minimize_checks"] = Json(double(Hist("smt_ms.minimize").Count));
  L["synth.recheck_s"] = Json(T.RecheckS);
  L["synth.refine_rounds"] = Json(Hist("refine_rounds").Sum);
  double Manifest = Ctr("manifest_instances");
  L["synth.refine_asserted_ratio"] =
      Json(Manifest > 0 ? Ctr("refine_instances_asserted") / Manifest : 0.0);
  L["synth.refine_full_groundings"] = Json(Ctr("refine_full_groundings"));

  obs::HistSummary Red = Hist("reduce_ms");
  L["engine.reductions"] = Json(double(Red.Count));
  L["engine.reduce_s"] = Json(Red.Sum / 1e3);
  L["engine.reduce_ms.p50"] = Json(Red.P50);
  L["engine.reduce_ms.p90"] = Json(Red.P90);
  L["engine.formula_atoms.p50"] = Json(Hist("formula_atoms").P50);
  L["engine.reduce_cache.hits"] = Json(T.Hits);
  L["engine.reduce_cache.misses"] = Json(T.Misses);
  L["engine.worker_utilization"] =
      Json(T.Seconds > 0 ? T.UtilWeighted / T.Seconds : 0.0);

  for (const char *Rule : {"unary", "pairwise", "update", "cover", "venn"})
    L[std::string("card.axioms.") + Rule] =
        Json(Ctr((std::string("card_axioms.") + Rule).c_str()));
  L["quant.instances"] = Json(Ctr("quant_instances"));
  L["quant.instances_per_check.p50"] =
      Json(Hist("instantiations_per_check").P50);

  obs::HistSummary Smt = Hist("smt_ms");
  L["smt.checks"] = Json(T.Checks);
  L["smt.busy_s"] = Json(Smt.Sum / 1e3);
  L["smt.check_ms.p50"] = Json(Smt.P50);
  L["smt.check_ms.p90"] = Json(Smt.P90);
  for (const char *Ph : {"houdini", "minimize", "recheck", "safety"})
    L[std::string("smt.checks.") + Ph] =
        Json(double(Hist((std::string("smt_ms.") + Ph).c_str()).Count));
  for (const char *Ph : {"houdini", "minimize", "recheck"})
    L[std::string("smt.busy_s.") + Ph] =
        Json(Hist((std::string("smt_ms.") + Ph).c_str()).Sum / 1e3);

  L["resil.retries"] = Json(T.Retries);
  L["resil.fallbacks"] = Json(T.Fallbacks);
  L["resil.unknowns"] = Json(T.Unknowns);
  L["resil.tuples_skipped"] = Json(T.Skipped);

  L["obs.trace_coverage_ratio"] = Json(TR.Coverage);
}

/// Atom x state evaluations per second of the finite-model evaluator that
/// explct::holdsInAll runs, over the input's atom pool closed as the
/// prefilter closes it (counters bound to the top-ranked set body) and up
/// to 400 evenly sampled reachable states.
void evalRate(const Problem &P, double &Evals, double &Seconds) {
  logic::TermManager &M = *P.M;
  synth::Formals F = synth::formalsFor(M, P.Shape);
  std::vector<synth::SetCandidate> Cands = synth::enumerateSetBodies(*P.Sys, F);
  std::vector<logic::Term> Pool = synth::enumerateInvAtoms(*P.Sys, F);
  explct::ExplicitResult ER = explct::explore(*P.Sys, P.Explicit);
  if (Cands.empty() || Pool.empty() || ER.States.empty())
    return;
  size_t Step = std::max<size_t>(1, ER.States.size() / 400);
  std::vector<sys::ParamSystem::State> States;
  for (size_t I = 0; I < ER.States.size(); I += Step)
    States.push_back(ER.States[I]);
  logic::Subst KSub;
  for (size_t I = 0; I < F.K.size(); ++I)
    KSub[F.K[I]] = M.mkCard(F.BoundVar, Cands[I % Cands.size()].Body);
  std::vector<logic::Term> Closed;
  for (logic::Term A : Pool) {
    logic::Term Inner = logic::substitute(M, A, KSub);
    if (!P.QGuard.isNull())
      Inner = M.mkImplies(P.QGuard, Inner);
    Closed.push_back(F.Q.empty() ? Inner : M.mkForall(F.Q, Inner));
  }
  auto T0 = Clock::now();
  for (size_t I = 0; since(T0) < EvalRateSeconds; I = (I + 1) % Closed.size()) {
    for (const sys::ParamSystem::State &S : States) {
      logic::Evaluator Ev(S);
      (void)Ev.evalBool(Closed[I]);
    }
    Evals += static_cast<double>(States.size());
  }
  Seconds += since(T0);
}

// -- The run -------------------------------------------------------------------

struct Options {
  std::string Manifest, WorkloadName, Out;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Golden = false;
};

class Harness {
public:
  Harness(const Options &O, Workload W)
      : O(O), W(std::move(W)), Rng(O.Seed), Start(Clock::now()) {}

  Json run();
  static Json golden(const Json &Manifest);

private:
  struct Pass {
    double Wall = 0; ///< Sum of the pass's verify calls.
    std::vector<Call> Calls;
  };

  /// The next verify's time budget (see RunDeadlineSeconds).
  double budget() const {
    return std::min(BudgetSeconds,
                    std::max(1.0, RunDeadlineSeconds - since(Start)));
  }

  std::vector<size_t> order() {
    std::vector<size_t> Ord(W.Inputs.size());
    for (size_t I = 0; I < Ord.size(); ++I)
      Ord[I] = I;
    std::shuffle(Ord.begin(), Ord.end(), Rng);
    return Ord;
  }

  void setupBlock();
  void warmup();
  std::vector<Problem> loadAll();
  Pass synthPass(obs::Tracer *T, StatTotals *Totals);
  Pass servePass(serve::Server &Srv, obs::TraceBuffer *TB, StatTotals *Totals,
                 std::vector<double> *OverheadMs);
  std::unique_ptr<serve::Server> makeServer(const std::string &Dir) const;
  std::string freshStoreDir() {
    std::string D = O.Out + "/store" + std::to_string(Stores++);
    fs::remove_all(D);
    return D;
  }
  void oracleSynth(size_t Input, const Problem &P,
                   const synth::SynthResult &R);
  void oracleServe();
  void tracedRun(Json &Out, Json &Layers, double UntracedWall);
  void warmStream(serve::Server &Srv, const Pass &Cold, Json &Layers);
  void storeProbe(const std::string &StoreDir, Json &Layers);

  Json passJson(const Pass &P) const {
    Json J;
    JsonArray Calls;
    for (const Call &C : P.Calls)
      Calls.push_back(callJson(C, W));
    J["calls"] = Json(std::move(Calls));
    return J;
  }

  const Options &O;
  Workload W;
  std::mt19937_64 Rng;
  Clock::time_point Start;
  std::vector<std::string> Texts; ///< Serve mode: each input's source.
  std::map<std::string, Json> Recheck;  ///< Input -> oracle verdict.
  std::map<std::string, std::string> Hashes;
  std::map<std::string, bool> ExpectSafe; ///< The input's own expectation.
  std::vector<double> SetupSamples, ParseSamples, HashSamples;
  unsigned Stores = 0;
  unsigned WarmFailed = 0, WarmAttempted = 0;
};

std::vector<Problem> Harness::loadAll() {
  std::vector<Problem> Ps;
  for (const InputSpec &In : W.Inputs)
    Ps.push_back(load(In));
  return Ps;
}

std::unique_ptr<serve::Server>
Harness::makeServer(const std::string &Dir) const {
  serve::ServerOptions SO;
  SO.StoreDir = Dir;
  SO.RequestWorkers = 1;
  SO.SynthWorkers = W.Workers;
  SO.MaxRequestSeconds = BudgetSeconds;
  SO.FlightCapacity = 64;
  return std::make_unique<serve::Server>(SO);
}

/// One set-up block: loads and elaborates every input (and, in serve mode,
/// builds the server on a fresh store) over and over for
/// SetupBlockSeconds. Set-ups run in batches of at least
/// SetupBatchSeconds, and each batch's mean per set-up is one sample, so
/// that a microsecond-scale set-up is timed over milliseconds. A block
/// runs before the first pass and after the last, never between timed
/// verifies. Also records each input's canonical hash and expectation.
void Harness::setupBlock() {
  auto T0 = Clock::now();
  do {
    double SetupS = 0, ParseS = 0, HashS = 0;
    unsigned N = 0;
    auto TB = Clock::now();
    do {
      auto TS = Clock::now();
      std::vector<Problem> Ps = loadAll();
      ParseS += since(TS);
      if (W.Mode == "serve") {
        std::string Dir = freshStoreDir();
        std::unique_ptr<serve::Server> Srv = makeServer(Dir);
        SetupS += since(TS);
        Srv.reset();
        fs::remove_all(Dir);
      } else {
        SetupS += since(TS);
      }
      auto TH = Clock::now();
      for (size_t I = 0; I < Ps.size(); ++I)
        Hashes[W.Inputs[I].Name] = hashOf(Ps[I]).hex();
      HashS += since(TH);
      for (size_t I = 0; I < Ps.size(); ++I)
        ExpectSafe[W.Inputs[I].Name] = Ps[I].ExpectSafe;
      ++N;
    } while (since(TB) < SetupBatchSeconds);
    SetupSamples.push_back(SetupS / N);
    ParseSamples.push_back(ParseS / N);
    HashSamples.push_back(HashS / N);
  } while (since(T0) < SetupBlockSeconds);
}

/// One untimed verify before the passes, so lazy process-wide set-up
/// (solver initialization, worker threads, allocator growth) is not
/// charged to whichever input the seed puts first.
void Harness::warmup() {
  if (W.Mode == "serve") {
    serve::VerifyRequest Req;
    Req.ProtocolText = Texts[0];
    Req.File = W.Inputs[0].Source.substr(5);
    makeServer("")->verify(Req);
    return;
  }
  logic::TermManager M;
  protocols::ProtocolBundle B = protocols::makeIncrement(M);
  synth::SynthOptions SO;
  SO.Shape = B.Shape;
  SO.QGuard = B.QGuard;
  SO.Explicit = B.Explicit;
  SO.NumWorkers = W.Workers;
  synth::synthesize(*B.Sys, SO);
}

void Harness::oracleSynth(size_t Input, const Problem &P,
                          const synth::SynthResult &R) {
  const std::string &Name = W.Inputs[Input].Name;
  if (Recheck.count(Name))
    return;
  Recheck[Name] = R.Verified ? Json(holdsOnReachable(P, R.Invariant)) : Json();
}

/// Serve responses carry text, not terms: the golden invariant (which
/// run.py requires the response to match) is re-evaluated instead.
void Harness::oracleServe() {
  for (size_t I = 0; I < W.Inputs.size(); ++I) {
    const InputSpec &In = W.Inputs[I];
    if (In.Invariant.empty()) {
      Recheck[In.Name] = Json();
      continue;
    }
    Problem P = load(In);
    std::string Err;
    logic::Term Inv = logic::deserializeTerm(*P.M, In.Invariant, &Err);
    Recheck[In.Name] = Json(!Inv.isNull() && holdsOnReachable(P, Inv));
  }
}

Harness::Pass Harness::synthPass(obs::Tracer *T, StatTotals *Totals) {
  obs::TraceBuffer *TB = T ? T->worker(0) : nullptr;
  std::vector<Problem> Ps(W.Inputs.size());
  std::vector<synth::SynthResult> Res(Ps.size());
  double MinSeconds = O.Trace ? 0 : InputSeconds;
  Pass P;
  {
    obs::Span PassSp(TB, "bench.pass");
    for (size_t I : order()) {
      double Spent = 0;
      do {
        Ps[I] = load(W.Inputs[I]); // A fresh manager for every call.
        synth::SynthOptions SO = synthOptions(Ps[I], W.Workers, T, budget());
        double Cpu0 = cpuSeconds();
        auto TC = Clock::now();
        {
          obs::Span Sp(TB, "bench.synthesize");
          Res[I] = synth::synthesize(*Ps[I].Sys, SO);
        }
        Call C;
        C.Input = I;
        C.Seconds = since(TC);
        C.Cpu = cpuSeconds() - Cpu0;
        P.Wall += C.Seconds;
        Spent += C.Seconds;
        C.Outcome = outcomeOf(Res[I]);
        for (logic::Term B : Res[I].SetBodies)
          C.Bodies.push_back(logic::toString(B));
        for (logic::Term A : Res[I].Atoms)
          C.Atoms.push_back(logic::toString(A));
        P.Calls.push_back(std::move(C));
      } while (Spent < MinSeconds);
    }
  }
  for (size_t I = 0; I < Ps.size(); ++I) {
    oracleSynth(I, Ps[I], Res[I]);
    if (Totals)
      Totals->add(Res[I].Stats);
  }
  return P;
}

Harness::Pass Harness::servePass(serve::Server &Srv, obs::TraceBuffer *TB,
                                 StatTotals *Totals,
                                 std::vector<double> *OverheadMs) {
  std::vector<size_t> Ord = order();
  Pass P;
  {
    obs::Span PassSp(TB, "bench.pass");
    for (size_t I : Ord) {
      serve::VerifyRequest Req;
      Req.ProtocolText = Texts[I];
      Req.File = W.Inputs[I].Source.substr(5);
      Req.Workers = W.Workers;
      Req.TimeBudget = budget();
      Req.JsonLine = true;
      double Cpu0 = cpuSeconds();
      auto TC = Clock::now();
      serve::VerifyResponse R;
      {
        obs::Span Sp(TB, "bench.verify");
        R = Srv.verify(Req);
      }
      Call C;
      C.Input = I;
      C.Seconds = since(TC);
      C.Cpu = cpuSeconds() - Cpu0;
      P.Wall += C.Seconds;
      C.Outcome = R.Cache == "miss" ? outcomeOfExit(R.Exit) : "error";
      parseVerdictText(R.Output, C);
      std::istringstream In(R.Output);
      for (std::string Line; std::getline(In, Line);)
        if (!Line.empty() && Line[0] == '{')
          C.Stats = serve::parseJson(Line);
        else
          C.Text += Line + "\n";
      P.Calls.push_back(std::move(C));
    }
  }
  for (const Call &C : P.Calls) {
    if (Totals)
      Totals->add(C.Stats);
    if (OverheadMs)
      OverheadMs->push_back(
          (C.Seconds - C.Stats.get("synth_seconds").asDouble()) * 1e3);
  }
  return P;
}

Json Harness::run() {
  Json Out;
  fs::create_directories(O.Out);
  if (W.Mode == "serve")
    for (const InputSpec &In : W.Inputs)
      Texts.push_back(readFile(In.Source.substr(5)));
  warmup();
  setupBlock();
  Json HashJ, ExpectJ;
  for (const auto &[N, H] : Hashes)
    HashJ[N] = Json(H);
  for (const auto &[N, E] : ExpectSafe)
    ExpectJ[N] = Json(E);
  Out["hashes"] = HashJ;
  Out["expect_safe"] = ExpectJ;

  // Untraced passes: closed loop, one caller, until the next pass would
  // overrun --seconds (always at least one; a traced run makes exactly one).
  JsonArray Passes;
  std::unique_ptr<serve::Server> Srv;
  Pass P;
  auto T0 = Clock::now();
  do {
    if (W.Mode == "serve") {
      Srv = makeServer(freshStoreDir());
      P = servePass(*Srv, nullptr, nullptr, nullptr);
    } else {
      P = synthPass(nullptr, nullptr);
    }
    Passes.push_back(passJson(P));
  } while (!O.Trace && since(T0) + P.Wall <= O.Seconds);
  setupBlock();
  Out["passes"] = Json(std::move(Passes));
  Out["setup_s"] = Json(median(SetupSamples));
  Out["parse_ms"] = Json(median(ParseSamples) * 1e3);
  Out["hash_ms"] = Json(median(HashSamples) * 1e3);

  if (O.Trace) {
    Json Layers;
    if (W.Mode == "serve")
      warmStream(*Srv, P, Layers);
    tracedRun(Out, Layers, P.Wall);
  }
  if (W.Mode == "serve")
    oracleServe();
  Json R;
  for (const auto &[N, V] : Recheck)
    R[N] = V;
  Out["recheck"] = R;
  Out["warm_attempted"] = Json(static_cast<uint64_t>(WarmAttempted));
  Out["warm_failed"] = Json(static_cast<uint64_t>(WarmFailed));
  Out["peak_rss_mb"] = Json(peakRssMb());
  return Out;
}

/// A seeded stream of warm requests against \p Srv, whose store already
/// holds every input's verdict. Each reply must be a tier-1 hit replaying
/// the same verdict block the cold pass printed.
void Harness::warmStream(serve::Server &Srv, const Pass &Cold, Json &Layers) {
  std::vector<std::string> ColdText(W.Inputs.size());
  for (const Call &C : Cold.Calls)
    ColdText[C.Input] = C.Text;
  std::vector<double> Lat, Lookup;
  std::uniform_int_distribution<size_t> Pick(0, W.Inputs.size() - 1);
  unsigned Hits = 0;
  for (unsigned K = 0; K < WarmRequests; ++K) {
    size_t I = Pick(Rng);
    serve::VerifyRequest Req;
    Req.ProtocolText = Texts[I];
    Req.File = W.Inputs[I].Source.substr(5);
    Req.Workers = W.Workers;
    Req.TimeBudget = budget();
    auto TC = Clock::now();
    serve::VerifyResponse R = Srv.verify(Req);
    Lat.push_back(since(TC) * 1e3);
    Lookup.push_back(R.CacheLookupSeconds * 1e3);
    ++WarmAttempted;
    bool Hit = R.Cache == "hit";
    Hits += Hit;
    if (!Hit || R.Output != ColdText[I])
      ++WarmFailed;
  }
  Layers["warm_p50_ms"] = Json(percentile(Lat, 0.50));
  Layers["warm_p99_ms"] = Json(percentile(Lat, 0.99));
  Layers["warm_samples"] = Json(static_cast<double>(Lat.size()));
  Layers["serve.t1_lookup_ms.p50"] = Json(percentile(Lookup, 0.50));
  Layers["serve.t1_hit_ratio"] = Json(double(Hits) / WarmRequests);
}

/// Times the store's public write paths on the data a traced cold pass
/// left in \p StoreDir: each tier-1 entry rewritten into a scratch store,
/// and the tier-2 reduce cache saved there.
void Harness::storeProbe(const std::string &StoreDir, Json &Layers) {
  uint64_t Bytes = 0;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(StoreDir))
    if (E.is_regular_file())
      Bytes += E.file_size();
  serve::ResultStore Src(StoreDir);
  std::string Scratch = O.Out + "/probe";
  fs::remove_all(Scratch);
  serve::ResultStore Dst(Scratch);
  std::vector<double> WriteMs, SaveS;
  for (int Round = 0; Round < 5; ++Round)
    for (size_t I = 0; I < W.Inputs.size(); ++I) {
      Problem P = load(W.Inputs[I]);
      front::CanonicalHash H = hashOf(P);
      std::optional<serve::ResultStore::T1Entry> E = Src.lookup(H);
      if (!E)
        continue;
      auto TW = Clock::now();
      Dst.store(H, *E);
      WriteMs.push_back(since(TW) * 1e3);
    }
  engine::ReduceCache RC;
  RC.enableSharing();
  Src.loadReduceCache(RC);
  for (int Round = 0; Round < 3; ++Round) {
    auto TS = Clock::now();
    Dst.saveReduceCache(RC);
    SaveS.push_back(since(TS));
  }
  fs::remove_all(Scratch);
  Layers["serve.store_write_ms.p50"] = Json(median(WriteMs));
  Layers["serve.reduce_cache_save_s"] = Json(median(SaveS));
  Layers["serve.store_bytes"] = Json(static_cast<double>(Bytes));
}

/// One traced pass; fills Out["layers"] and writes the Perfetto trace(s).
void Harness::tracedRun(Json &Out, Json &Layers, double UntracedWall) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  obs::TraceBuffer *TB = T.worker(0);
  StatTotals Totals;
  std::vector<double> OverheadMs;
  obs::MetricsSummary MS;
  SpanForest F;
  std::unique_ptr<serve::Server> Srv;
  std::string StoreDir;
  Pass P;
  if (W.Mode == "serve") {
    StoreDir = freshStoreDir();
    Srv = makeServer(StoreDir);
    P = servePass(*Srv, TB, &Totals, &OverheadMs);
    obs::MetricsRegistry::Snapshot S = Srv->registry().snapshot();
    MS.Counters = S.Counters;
    MS.Hists = S.Hists;
  } else {
    P = synthPass(&T, &Totals);
    MS = T.metrics();
  }
  Out["traced_pass"] = passJson(P);

  std::vector<size_t> Roots = F.add(T.mergedEvents(), 0);
  size_t PassNode = Roots.empty() ? 0 : Roots.back();
  if (Srv) {
    // Each request's own spans (the server's flight recorder, clocked from
    // the request's arrival) nest under the bench.verify span around it.
    std::vector<size_t> Verifies;
    for (size_t K : F.Nodes[PassNode].Kids)
      if (F.Nodes[K].Name == "bench.verify")
        Verifies.push_back(K);
    std::vector<obs::FlightRecord> Recs = Srv->flight().dump();
    std::sort(Recs.begin(), Recs.end(),
              [](const obs::FlightRecord &A, const obs::FlightRecord &B) {
                return A.RequestId < B.RequestId;
              });
    for (size_t K = 0; K < Recs.size() && K < Verifies.size(); ++K)
      F.adopt(Verifies[K], F.add(Recs[K].Events, F.Nodes[Verifies[K]].B));
  }
  TraceReport TR = analyze(F, PassNode);
  layerMetrics(Layers, Totals, MS, TR);
  if (W.Mode == "serve") {
    Layers["serve.verify_overhead_ms"] = Json(median(OverheadMs));
    storeProbe(StoreDir, Layers);
  }

  double Evals = 0, EvalS = 0;
  for (const InputSpec &In : W.Inputs)
    evalRate(load(In), Evals, EvalS);
  Layers["logic.eval_rate"] = Json(EvalS > 0 ? Evals / EvalS : 0.0);
  Layers["obs.trace_overhead_ratio"] =
      Json(UntracedWall > 0 ? P.Wall / UntracedWall - 1 : 0.0);
  Out["layers"] = Layers;

  Json Self;
  for (const auto &[N, S] : TR.SelfSeconds)
    Self[N] = Json(S);
  Out["self_s"] = Self;
  Out["top_uncovered"] = Json(TR.TopUncovered);
  Out["top_uncovered_s"] = Json(TR.TopUncoveredSeconds);

  std::string TracePath = O.Out + "/trace.json";
  if (FILE *Fp = std::fopen(TracePath.c_str(), "w")) {
    obs::writeChromeTrace(T, Fp);
    std::fclose(Fp);
  }
  JsonArray Files{Json(TracePath)};
  if (Srv) {
    std::string ReqPath = O.Out + "/trace.requests.json";
    std::ofstream(ReqPath) << Srv->dumpTraceJson(0, "perfetto")
                                  .get("trace")
                                  .asString();
    Files.push_back(Json(ReqPath));
  }
  Out["trace_files"] = Json(std::move(Files));
}

/// Verifies every input of the manifest once at 1 worker and prints what
/// the golden file records: hash, outcome, set bodies, atoms, the closed
/// invariant, and the explicit re-check.
Json Harness::golden(const Json &Manifest) {
  Json Out;
  for (const auto &[Name, In] : Manifest.get("inputs").asObject()) {
    InputSpec Spec{Name, In.get("source").asString(), ""};
    Problem P = load(Spec);
    synth::SynthResult R =
        synth::synthesize(*P.Sys, synthOptions(P, 1, nullptr, BudgetSeconds));
    Json G;
    G["hash"] = Json(hashOf(P).hex());
    G["expect_safe"] = Json(P.ExpectSafe);
    G["outcome"] = Json(outcomeOf(R));
    std::vector<std::string> Bodies, Atoms;
    for (logic::Term B : R.SetBodies)
      Bodies.push_back(logic::toString(B));
    for (logic::Term A : R.Atoms)
      Atoms.push_back(logic::toString(A));
    G["bodies"] = strings(Bodies);
    G["atoms"] = strings(Atoms);
    G["invariant"] = Json(R.Verified ? logic::serializeTerm(R.Invariant)
                                     : std::string());
    G["recheck"] = R.Verified ? Json(holdsOnReachable(P, R.Invariant)) : Json();
    Out[Name] = G;
  }
  return Out;
}

int runMain(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc)
        throw std::runtime_error("missing value after " + A);
      return argv[++I];
    };
    if (A == "--manifest")
      O.Manifest = Next();
    else if (A == "--workload")
      O.WorkloadName = Next();
    else if (A == "--seed")
      O.Seed = std::stoull(Next());
    else if (A == "--seconds")
      O.Seconds = std::stod(Next());
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--out")
      O.Out = Next();
    else if (A == "--golden")
      O.Golden = true;
    else
      throw std::runtime_error("unknown argument '" + A + "'");
  }
  std::string Err;
  Json Manifest = serve::parseJson(readFile(O.Manifest), &Err);
  if (!Manifest.isObject())
    throw std::runtime_error("bad manifest: " + Err);
  Json Out = O.Golden ? Harness::golden(Manifest)
                      : Harness(O, readWorkload(Manifest, O.WorkloadName)).run();
  std::printf("%s\n", Out.dump().c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return runMain(argc, argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "sharpiebench_harness: %s\n", E.what());
    return 2;
  }
}
