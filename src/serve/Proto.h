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
// byte-exact stdout a local `sharpie` run would print -- both sides run
// verifyBundle() below, so `sharpie --server` and `sharpie --store` are
// indistinguishable from the daemon to scripts and humans (same
// diagnostics, same exit codes, same --json keys and counters; see
// front/ExitCodes.h).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SERVE_PROTO_H
#define SHARPIE_SERVE_PROTO_H

#include "front/Front.h"
#include "resil/Fault.h"
#include "serve/Json.h"
#include "serve/Store.h"
#include "synth/Synth.h"

#include <atomic>
#include <chrono>
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
  /// An absent field reads as its default. A numeric knob (workers,
  /// max_tuples, smt_timeout_ms, time_budget) that is negative or not a
  /// number sets \p Err to a message naming the field, as the CLI
  /// rejects the same values of its flags.
  static VerifyRequest decode(const serve::Json &J,
                              std::string *Err = nullptr);
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

// -- The verify sequence -----------------------------------------------------
//
// What `sharpie` (files, --builtin, --store) and Server::verify both run
// on a parsed protocol; the callers differ only around the call (the CLI
// prints, the daemon admits, clamps, cancels and marks phases for its
// watchdog). Chaos requests (a fault plan) bypass both cache tiers:
// nothing a fault produced may be served later. Only settled verdicts
// (verified, unsafe) of runs that were not cancelled are written back.

/// "== name ==" banner plus the optional property line: the first lines
/// of stdout, printed by the caller right after the parse.
std::string renderHeader(const std::string &Name, const std::string &Property);

/// What one verifyBundle() call produced.
struct VerifyRun {
  /// Exit, Cache, Hash and CacheLookupSeconds as the wire carries them;
  /// Output is the stdout after the header (the --json line when asked
  /// for, then the verdict block).
  VerifyResponse Resp;
  double ParseSeconds = 0;
  double SynthSeconds = 0; ///< 0 when no search ran.
  /// With no search (a tier-1 hit, or a request that failed first) only
  /// CacheLookupSeconds and the tracer's Metrics are set; NumWorkers and
  /// WorkerUtilization are 0.
  synth::SynthStats Stats;

  VerifyRun() {
    Stats.NumWorkers = 0;
    Stats.WorkerUtilization = 0;
  }
};

/// Canonical hash, tier-1 lookup and replay, synthesis of \p B with the
/// knobs of \p Req (tier 2 = \p RC; null means no reduce-cache lookups),
/// render, settled write-back. \p Faults is Req.Faults parsed;
/// Req.ProtocolText is not read. \p LoadTier2 merges the store's tier-2
/// file into *RC before a solve: a one-shot run reads it only when it
/// solves, a daemon keeps RC warm from startup on. With \p Store
/// enabled, a cacheable run counts serve_t1_hits or serve_t1_misses on
/// \p Tracer. \p T0 clocks the whole request (total_seconds). \p Phase,
/// when set, receives each phase's name as it starts: hash_lookup,
/// synth, render -- each also a span on Tracer's worker 0.
VerifyRun verifyBundle(const front::FrontBundle &B, const VerifyRequest &Req,
                       const resil::FaultPlan &Faults, ResultStore &Store,
                       engine::ReduceCache *RC, bool LoadTier2,
                       obs::Tracer &Tracer,
                       const engine::CancellationToken *Cancel,
                       std::chrono::steady_clock::time_point T0,
                       double ParseSeconds,
                       std::atomic<const char *> *Phase = nullptr);

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
