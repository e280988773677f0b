//===- serve/Proto.cpp - The sharpied wire protocol ---------------------------===//
//
// Part of sharpie. See Proto.h.
//
//===----------------------------------------------------------------------===//

#include "serve/Proto.h"

#include "front/Canon.h"
#include "front/ExitCodes.h"
#include "logic/TermOps.h"
#include "obs/Export.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

using namespace sharpie;
using namespace sharpie::serve;

Json VerifyRequest::encode() const {
  Json J;
  J["op"] = Json("verify");
  J["protocol_text"] = Json(ProtocolText);
  J["file"] = Json(File);
  J["workers"] = Json(Workers);
  J["time_budget"] = Json(TimeBudget);
  J["max_tuples"] = Json(MaxTuples);
  J["smt_timeout_ms"] = Json(SmtTimeoutMs);
  J["faults"] = Json(Faults);
  J["json"] = Json(JsonLine);
  return J;
}

VerifyRequest VerifyRequest::decode(const serve::Json &J, std::string *Err) {
  VerifyRequest R;
  // A numeric knob, when present, must be a non-negative number (an
  // integer for the counts), as the CLI requires of its flags.
  auto Number = [&](const char *Field, auto &Out) {
    using T = std::remove_reference_t<decltype(Out)>;
    constexpr bool Real = std::is_floating_point_v<T>;
    const Json &V = J.get(Field);
    double D = V.asDouble(-1);
    bool Typed = V.type() == Json::Type::Int ||
                 (Real && V.type() == Json::Type::Double);
    if (Typed && D >= 0 && D <= double(std::numeric_limits<T>::max()))
      Out = static_cast<T>(D);
    else if (!V.isNull() && Err && Err->empty())
      *Err = std::string("field '") + Field + "' needs a non-negative " +
             (Real ? "number" : "integer") + ", got " + V.dump();
  };
  R.ProtocolText = J.get("protocol_text").asString();
  R.File = J.get("file").asString();
  Number("workers", R.Workers);
  Number("time_budget", R.TimeBudget);
  Number("max_tuples", R.MaxTuples);
  Number("smt_timeout_ms", R.SmtTimeoutMs);
  R.Faults = J.get("faults").asString();
  R.JsonLine = J.get("json").asBool(false);
  return R;
}

Json VerifyResponse::encode() const {
  Json J;
  J["ok"] = Json(Exit != front::ExitError && Exit != front::ExitOverloaded);
  J["exit"] = Json(Exit);
  J["verdict"] = Json(std::string(front::exitCodeName(Exit)));
  J["output"] = Json(Output);
  J["error"] = Json(Error);
  J["cache"] = Json(Cache);
  J["hash"] = Json(Hash);
  J["cache_lookup_seconds"] = Json(CacheLookupSeconds);
  J["server_seconds"] = Json(ServerSeconds);
  J["disposition"] = Json(Disposition);
  if (Overloaded) {
    J["overloaded"] = Json(true);
    J["retry_after_ms"] = Json(RetryAfterMs);
  }
  return J;
}

VerifyResponse VerifyResponse::decode(const serve::Json &J) {
  VerifyResponse R;
  R.Exit = static_cast<int>(J.get("exit").asInt(front::ExitError));
  R.Output = J.get("output").asString();
  R.Error = J.get("error").asString();
  R.Cache = J.get("cache").asString();
  R.Hash = J.get("hash").asString();
  R.CacheLookupSeconds = J.get("cache_lookup_seconds").asDouble(0);
  R.ServerSeconds = J.get("server_seconds").asDouble(0);
  R.Overloaded = J.get("overloaded").asBool(false);
  R.RetryAfterMs = J.get("retry_after_ms").asInt(0);
  std::string D = J.get("disposition").asString();
  if (!D.empty())
    R.Disposition = D;
  return R;
}

std::string sharpie::serve::renderHeader(const std::string &Name,
                                         const std::string &Property) {
  std::string Out = "== " + Name + " ==\n";
  if (!Property.empty())
    Out += "property: " + Property + "\n";
  return Out;
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// The machine-readable --json result line (trailing newline included)
/// for a verdict with exit code \p Exit. \p Protocol and \p File are
/// JSON-escaped (a file name is outside input); \p StatsJson is
/// synth::statsJsonFields() output.
std::string renderJsonLine(const std::string &Protocol,
                           const std::string &File, int Exit,
                           double ParseSeconds, double CacheLookupSeconds,
                           double SynthSeconds, double TotalSeconds,
                           const std::string &StatsJson) {
  auto Flag = [Exit](int E) { return Exit == E ? "true" : "false"; };
  char Buf[256];
  std::string Out = "{\"protocol\":\"" + obs::jsonEscape(Protocol) +
                    "\",\"file\":\"" + obs::jsonEscape(File) +
                    "\",\"verified\":" + Flag(front::ExitVerified) +
                    ",\"found_cex\":" + Flag(front::ExitUnsafe) +
                    ",\"inconclusive\":" + Flag(front::ExitInconclusive);
  std::snprintf(Buf, sizeof(Buf),
                ",\"parse_seconds\":%.6f,\"cache_lookup_seconds\":%.6f,"
                "\"synth_seconds\":%.3f,\"total_seconds\":%.3f,",
                ParseSeconds, CacheLookupSeconds, SynthSeconds, TotalSeconds);
  Out += Buf;
  Out += StatsJson;
  Out += "}\n";
  return Out;
}

/// The verdict block (VERIFIED/UNSAFE/INCONCLUSIVE/UNKNOWN) and its exit
/// code, as the tier-1 entry a settled verdict is stored as.
ResultStore::T1Entry renderVerdict(const synth::SynthResult &Res,
                                   bool ExpectSafe, double ParseSeconds) {
  ResultStore::T1Entry V;
  char Buf[256];
  if (Res.Verified) {
    V.Exit = front::ExitVerified;
    std::snprintf(Buf, sizeof(Buf),
                  "VERIFIED in %.2fs (%u tuples, %u SMT checks; parse "
                  "%.1fms)\n",
                  Res.Stats.Seconds, Res.Stats.TuplesTried,
                  Res.Stats.SmtChecks, ParseSeconds * 1e3);
    V.Verdict = Buf;
    V.Verdict += "inferred cardinalities:\n";
    for (logic::Term S : Res.SetBodies)
      V.Verdict += "  #{t | " + logic::toString(S) + "}\n";
    V.Verdict +=
        "invariant atoms (" + std::to_string(Res.Atoms.size()) + "):\n";
    for (logic::Term A : Res.Atoms)
      V.Verdict += "  " + logic::toString(A) + "\n";
    return V;
  }
  if (Res.Cex) {
    V.Exit = front::ExitUnsafe;
    V.Verdict = "UNSAFE: explicit counterexample (" +
                std::to_string(Res.Cex->TransitionNames.size()) +
                " steps):\n";
    for (const std::string &S : Res.Cex->TransitionNames)
      V.Verdict += "  " + S + "\n";
    if (ExpectSafe)
      V.Verdict += "note: protocol declares 'expect safe'\n";
    return V;
  }
  if (Res.Inconclusive) {
    V.Exit = front::ExitInconclusive;
    std::snprintf(Buf, sizeof(Buf), "INCONCLUSIVE after %.2fs: ",
                  Res.Stats.Seconds);
    V.Verdict = Buf + Res.Note + "\n";
    V.Verdict += synth::renderInconclusiveReport(Res);
    return V;
  }
  V.Exit = front::ExitUnknown;
  std::snprintf(Buf, sizeof(Buf), "UNKNOWN after %.2fs: ", Res.Stats.Seconds);
  V.Verdict = Buf + Res.Note + "\n";
  return V;
}

} // namespace

VerifyRun sharpie::serve::verifyBundle(
    const front::FrontBundle &B, const VerifyRequest &Req,
    const resil::FaultPlan &Faults, ResultStore &Store,
    engine::ReduceCache *RC, bool LoadTier2, obs::Tracer &Tracer,
    const engine::CancellationToken *Cancel,
    std::chrono::steady_clock::time_point T0, double ParseSeconds,
    std::atomic<const char *> *Phase) {
  obs::TraceBuffer *TB = Tracer.worker(0);
  auto Enter = [Phase](const char *Name) {
    if (Phase)
      Phase->store(Name);
  };
  VerifyRun Run;
  Run.ParseSeconds = ParseSeconds;
  VerifyResponse &Resp = Run.Resp;
  bool Cacheable = Req.Faults.empty();
  bool UseT1 = Cacheable && Store.enabled();

  // The verdict to print: replayed from tier 1, or solved below.
  std::optional<ResultStore::T1Entry> V;
  Enter("hash_lookup");
  front::CanonicalHash H;
  {
    obs::Span LookupSp(TB, "hash_lookup");
    H = front::canonicalProblemHash(B);
    Resp.Hash = H.hex();
    if (UseT1) {
      auto TL = std::chrono::steady_clock::now();
      V = Store.lookup(H);
      Resp.CacheLookupSeconds = secondsSince(TL);
      TB->counter(V ? "serve_t1_hits" : "serve_t1_misses", 1);
      Resp.Cache = V ? "hit" : "miss";
    }
  }

  if (V) {
    Run.Stats.CacheLookupSeconds = Resp.CacheLookupSeconds;
    Run.Stats.Metrics = Tracer.metrics();
  } else {
    Enter("synth");
    if (LoadTier2 && UseT1 && RC)
      Store.loadReduceCache(*RC);
    synth::SynthOptions SO = synth::optionsFor(B);
    SO.Trace = &Tracer;
    SO.NumWorkers = Req.Workers;
    SO.TimeBudgetSeconds = Req.TimeBudget;
    if (Req.MaxTuples)
      SO.MaxTuples = Req.MaxTuples;
    if (Req.SmtTimeoutMs)
      SO.SmtTimeoutMs = Req.SmtTimeoutMs;
    if (!Faults.empty())
      SO.Faults = &Faults;
    SO.Cancel = Cancel;
    if (Cacheable)
      SO.ReuseReduceCache = RC;
    auto T1 = std::chrono::steady_clock::now();
    synth::SynthResult Res;
    {
      obs::Span SynthSp(TB, "synth");
      Res = synth::synthesize(*B.Sys, SO);
    }
    Run.SynthSeconds = secondsSince(T1);
    Res.Stats.CacheLookupSeconds = Resp.CacheLookupSeconds;

    Enter("render");
    obs::Span RenderSp(TB, "render");
    V = renderVerdict(Res, B.ExpectSafe, ParseSeconds);
    V->Protocol = B.Sys->name();
    V->StatsJson = synth::statsJsonFields(Res.Stats);
    V->SynthSeconds = Run.SynthSeconds;
    // Write back settled verdicts only, and never from a cancelled run (a
    // disconnect mid-solve must not publish a partial result).
    bool Cancelled = Cancel && Cancel->cancelled();
    if (UseT1 && !Cancelled &&
        (V->Exit == front::ExitVerified || V->Exit == front::ExitUnsafe)) {
      Store.store(H, *V);
      if (RC)
        Store.saveReduceCache(*RC);
    }
    Run.Stats = std::move(Res.Stats);
  }

  Resp.Exit = V->Exit;
  if (Req.JsonLine)
    Resp.Output = renderJsonLine(B.Sys->name(), Req.File, V->Exit,
                                 ParseSeconds, Resp.CacheLookupSeconds,
                                 Run.SynthSeconds, secondsSince(T0),
                                 V->StatsJson);
  Resp.Output += V->Verdict;
  return Run;
}

std::optional<Addr> sharpie::serve::parseAddr(const std::string &Spec,
                                              std::string *Err) {
  Addr A;
  if (Spec.rfind("unix:", 0) == 0) {
    A.IsUnix = true;
    A.Path = Spec.substr(5);
    if (A.Path.empty()) {
      if (Err)
        *Err = "empty unix socket path in '" + Spec + "'";
      return std::nullopt;
    }
    return A;
  }
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon + 1 >= Spec.size()) {
    if (Err)
      *Err = "address '" + Spec + "' is neither unix:PATH nor HOST:PORT";
    return std::nullopt;
  }
  A.Host = Spec.substr(0, Colon);
  if (A.Host.empty())
    A.Host = "127.0.0.1";
  char *End = nullptr;
  // Port 0 is legal for the daemon: the kernel assigns one and listen()
  // reflects it into boundAddress() (printed in the startup banner).
  long Port = std::strtol(Spec.c_str() + Colon + 1, &End, 10);
  if (End == Spec.c_str() + Colon + 1 || *End != 0 || Port < 0 ||
      Port > 65535) {
    if (Err)
      *Err = "bad port in '" + Spec + "'";
    return std::nullopt;
  }
  A.Port = static_cast<int>(Port);
  return A;
}
