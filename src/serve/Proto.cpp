//===- serve/Proto.cpp - The sharpied wire protocol ---------------------------===//
//
// Part of sharpie. See Proto.h.
//
//===----------------------------------------------------------------------===//

#include "serve/Proto.h"

#include "front/ExitCodes.h"
#include "logic/TermOps.h"
#include "obs/Export.h"

#include <cstdio>
#include <cstdlib>

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

VerifyRequest VerifyRequest::decode(const serve::Json &J) {
  VerifyRequest R;
  R.ProtocolText = J.get("protocol_text").asString();
  R.File = J.get("file").asString();
  R.Workers = static_cast<unsigned>(J.get("workers").asInt(1));
  R.TimeBudget = J.get("time_budget").asDouble(0);
  R.MaxTuples = static_cast<unsigned>(J.get("max_tuples").asInt(0));
  R.SmtTimeoutMs = static_cast<unsigned>(J.get("smt_timeout_ms").asInt(0));
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

std::string sharpie::serve::renderJsonLine(
    const std::string &Protocol, const std::string &File, bool Verified,
    bool FoundCex, bool Inconclusive, double ParseSeconds,
    double CacheLookupSeconds, double SynthSeconds, double TotalSeconds,
    const std::string &StatsJson) {
  char Buf[256];
  std::string Out = "{\"protocol\":\"" + obs::jsonEscape(Protocol) +
                    "\",\"file\":\"" + obs::jsonEscape(File) +
                    "\",\"verified\":" + (Verified ? "true" : "false") +
                    ",\"found_cex\":" + (FoundCex ? "true" : "false") +
                    ",\"inconclusive\":" + (Inconclusive ? "true" : "false");
  std::snprintf(Buf, sizeof(Buf),
                ",\"parse_seconds\":%.6f,\"cache_lookup_seconds\":%.6f,"
                "\"synth_seconds\":%.3f,\"total_seconds\":%.3f,",
                ParseSeconds, CacheLookupSeconds, SynthSeconds, TotalSeconds);
  Out += Buf;
  Out += StatsJson;
  Out += "}\n";
  return Out;
}

RenderedVerdict sharpie::serve::renderVerdict(const synth::SynthResult &Res,
                                              bool ExpectSafe,
                                              double ParseSeconds) {
  RenderedVerdict V;
  char Buf[256];
  if (Res.Verified) {
    V.Exit = front::ExitVerified;
    std::snprintf(Buf, sizeof(Buf),
                  "VERIFIED in %.2fs (%u tuples, %u SMT checks; parse "
                  "%.1fms)\n",
                  Res.Stats.Seconds, Res.Stats.TuplesTried,
                  Res.Stats.SmtChecks, ParseSeconds * 1e3);
    V.Text = Buf;
    V.Text += "inferred cardinalities:\n";
    for (logic::Term S : Res.SetBodies)
      V.Text += "  #{t | " + logic::toString(S) + "}\n";
    V.Text += "invariant atoms (" + std::to_string(Res.Atoms.size()) + "):\n";
    for (logic::Term A : Res.Atoms)
      V.Text += "  " + logic::toString(A) + "\n";
    return V;
  }
  if (Res.Cex) {
    V.Exit = front::ExitUnsafe;
    V.Text = "UNSAFE: explicit counterexample (" +
             std::to_string(Res.Cex->TransitionNames.size()) + " steps):\n";
    for (const std::string &S : Res.Cex->TransitionNames)
      V.Text += "  " + S + "\n";
    if (ExpectSafe)
      V.Text += "note: protocol declares 'expect safe'\n";
    return V;
  }
  if (Res.Inconclusive) {
    V.Exit = front::ExitInconclusive;
    std::snprintf(Buf, sizeof(Buf), "INCONCLUSIVE after %.2fs: ",
                  Res.Stats.Seconds);
    V.Text = Buf + Res.Note + "\n";
    V.Text += synth::renderInconclusiveReport(Res);
    return V;
  }
  V.Exit = front::ExitUnknown;
  std::snprintf(Buf, sizeof(Buf), "UNKNOWN after %.2fs: ", Res.Stats.Seconds);
  V.Text = Buf + Res.Note + "\n";
  return V;
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
