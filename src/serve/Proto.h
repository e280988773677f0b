//===- serve/Proto.h - The sharpied wire protocol ---------------*- C++ -*-===//
//
// Part of sharpie. Line-delimited JSON over a stream socket: the client
// sends one JSON object per line, the daemon answers with one JSON
// object per line, in order. Operations (field "op"):
//
//   verify       {"op":"verify","protocol_text":...,"file":...,
//                 "workers":N,"time_budget":S,"max_tuples":N,
//                 "smt_timeout_ms":N,"faults":"...","json":B}
//             -> {"ok":true,"exit":E,"verdict":"verified",
//                 "output":"<full stdout text>","error":"",
//                 "cache":"hit|miss|off","hash":"<32hex>",
//                 "cache_lookup_seconds":F,"server_seconds":F}
//   status       -> uptime, requests in flight / served, workers,
//                   cumulative ctr_* sums, store-tier hit/miss traffic
//                   (t2_hits/t2_misses: the finished requests'
//                   reduce_cache_* counters, summed)
//   cache_stats  -> StoreStats + tier-2 entry count and t2_hits/t2_misses
//   metrics      {"op":"metrics","format":"json|prom"} -> cumulative
//                   outcome x cache-tier request counts/seconds, counter
//                   sums, merged histograms and server gauges; "prom"
//                   answers {"ok":true,"text":"<exposition>"} instead
//   dump_trace   {"op":"dump_trace","format":"perfetto|jsonl",
//                 "request":ID} -> {"ok":true,"trace":"<document>"},
//                   the flight recorder's retained requests (ID 0 = all)
//   health       -> {"ok":true,"state":"ready|draining|overloaded",
//                   "admitted":N,"admission_capacity":N,
//                   "store_breaker":"closed|open|half_open",...}; cheap
//                   and answered inline on the connection thread, so it
//                   stays responsive while every worker is busy
//   shutdown     -> {"ok":true}; the daemon drains and exits
//
// Overload: a verify that arrives with the admission queue full (or the
// daemon draining) is *shed* -- answered immediately with
// {"ok":false,"exit":5,"verdict":"overloaded","overloaded":true,
// "retry_after_ms":N,...} and never executed. retry_after_ms is derived
// from observed service times and the queue's current excess; requests
// are idempotent by content hash, so clients retry safely after the
// hint. Responses also carry "disposition": how the request left the
// server ("ok", "shed", "draining", "deadline", "cancelled",
// "drain_cancelled").
//
// The protocol ships *source text*, not terms: the daemon re-parses and
// re-lowers, which is cheap, keeps the wire format trivially stable, and
// lets the content hash (front/Canon.h) guarantee that reformatted
// sources still hit the cache. The "output" field carries the complete,
// byte-exact stdout a local `sharpie` run would print -- both sides
// render through the functions below, so `sharpie --server` is
// indistinguishable from `sharpie` to scripts and humans (same
// diagnostics, same exit codes; see front/ExitCodes.h).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SERVE_PROTO_H
#define SHARPIE_SERVE_PROTO_H

#include "serve/Json.h"
#include "synth/Synth.h"

#include <optional>
#include <string>

namespace sharpie {
namespace serve {

/// A verify request, as parsed from the wire or built by the thin
/// client. Field-for-field the `sharpie` CLI's knobs.
struct VerifyRequest {
  std::string ProtocolText;
  std::string File; ///< Display name only (diagnostics, JSON line).
  unsigned Workers = 1;
  double TimeBudget = 0;
  unsigned MaxTuples = 0;    ///< 0 = SynthOptions default.
  unsigned SmtTimeoutMs = 0; ///< 0 = SynthOptions default.
  std::string Faults;    ///< FaultPlan spec; empty = none.
  bool JsonLine = false; ///< Client passed --json: include the JSON line.

  serve::Json encode() const;
  static VerifyRequest decode(const serve::Json &J);
};

/// A verify response. `Output` is the full stdout text; `Error` the
/// stderr text (non-empty exactly when Exit == front::ExitError).
struct VerifyResponse {
  int Exit = 3;
  std::string Output;
  std::string Error;
  std::string Cache = "off"; ///< "hit", "miss", or "off".
  std::string Hash;          ///< Canonical hash hex; empty on parse error.
  double CacheLookupSeconds = 0;
  double ServerSeconds = 0; ///< Daemon-side wall time for the request.
  bool Overloaded = false;  ///< Shed (queue full / draining / deadline
                            ///< expired in queue); never executed.
  int64_t RetryAfterMs = 0; ///< Backoff hint; meaningful when Overloaded.
  std::string Disposition = "ok"; ///< ok|shed|draining|deadline|cancelled|
                                  ///< drain_cancelled (access-log field).

  serve::Json encode() const;
  static VerifyResponse decode(const serve::Json &J);
};

// -- Shared rendering --------------------------------------------------------
//
// The one implementation of the driver's human-readable output. The CLI
// prints these strings; the daemon ships them in VerifyResponse::Output.

/// "== name ==" banner plus the optional property line.
std::string renderHeader(const std::string &Name, const std::string &Property);

/// The machine-readable --json result line (trailing newline included).
/// \p Protocol and \p File are JSON-escaped (a file name is outside
/// input); \p StatsJson is synth::statsJsonFields() output.
std::string renderJsonLine(const std::string &Protocol,
                           const std::string &File, bool Verified,
                           bool FoundCex, bool Inconclusive,
                           double ParseSeconds, double CacheLookupSeconds,
                           double SynthSeconds, double TotalSeconds,
                           const std::string &StatsJson);

/// The verdict block (VERIFIED/UNSAFE/INCONCLUSIVE/UNKNOWN) plus the
/// matching exit code.
struct RenderedVerdict {
  int Exit = 2;
  std::string Text;
};
RenderedVerdict renderVerdict(const synth::SynthResult &Res, bool ExpectSafe,
                              double ParseSeconds);

// -- Addresses ---------------------------------------------------------------

/// "unix:<path>" or "<host>:<port>". The daemon listens on, and the thin
/// client connects to, the same syntax.
struct Addr {
  bool IsUnix = false;
  std::string Path; ///< Unix-domain socket path.
  std::string Host;
  int Port = 0;
};
std::optional<Addr> parseAddr(const std::string &Spec, std::string *Err);

} // namespace serve
} // namespace sharpie

#endif // SHARPIE_SERVE_PROTO_H
