//===- tools/sharpie.cpp - The sharpie CLI --------------------------------===//
//
// Part of sharpie. The one verify driver: loads a `.sharpie` protocol
// file (or, with --builtin, one of the C++ bundles left in
// protocols/Protocols.h), runs the full #Pi pipeline on it, and prints
// the synthesized invariant or the explicit-state counterexample trace.
//
//   sharpie <file.sharpie> [--workers N] [--json]
//           [--time-budget SECONDS] [--max-tuples N]
//           [--faults PLAN] [--smt-timeout MS]
//           [--trace-out FILE] [--events-out FILE]
//           [--log-level quiet|info|debug|trace] [--stats]
//           [--server ADDR] [--store DIR]
//           [--retries N] [--retry-base-ms MS]
//   sharpie --builtin NAME [same flags, except --server]
//
// --builtin names the 13 protocols that have no .sharpie file yet; every
// other protocol is a file under examples/protocols/. Built-in bundles
// take the same local path as files: canonical hash, --store, the same
// verdict text and --json line, the same exit codes. An unknown NAME
// exits 3, lists the valid names on stderr and points to the files.
//
// Every numeric flag value must be a non-negative number; anything else
// (missing, non-numeric, trailing garbage, negative) exits 3 naming the
// flag.
//
// Search width: --workers N runs the rank-ordered set-tuple search on N
// workers (0 = one per hardware thread; the default 1 spawns no thread).
// Every tuple attempt runs in a fresh world of its own, so every width
// prints the same invariant; only the wall time and the speculative
// tuples past the winner differ.
//
// Observability (see src/obs/): --trace-out writes a Chrome trace-event /
// Perfetto JSON with one track per trace rank (rank 0 the driver, rank
// W+1 search worker W); --events-out a JSONL event stream; --log-level
// sets the human log (debug shows the pipeline's progress); --stats
// prints a per-phase stats table to stderr after the run. Every phase
// time printed (the table, the --json line's *_seconds but
// total_seconds) is a span total of the run's tracer. With --server the
// run happens in the daemon, so --trace-out, --events-out and --stats
// are usage errors there: the daemon's `dump_trace` and `metrics`
// operations serve them.
//
// Resilience (see src/resil/): solver checks always run supervised
// (per-check deadlines, retry with backoff, Z3<->MiniSolver fallback).
// --faults takes a deterministic fault plan, e.g.
// "seed=7;smt_check:timeout@p=0.4;reduce:unknown@every=3", and is how the
// chaos tests drive the pipeline (see resil/Fault.h for the grammar).
// --smt-timeout overrides the per-check deadline in milliseconds (the
// base slice before backoff; default 30000).
//
// Performance: Houdini runs incrementally (assumption-based checks over
// per-atom indicators in one solver context per tuple, unsat-core
// minimization) with model-guided instance refinement: the reduction
// defers the witness-bearing instances into a per-clause manifest and
// each surviving model asserts only the entries it violates (see
// SynthOptions::RefineBudget and DESIGN.md Sec. 10 and 14).
//
// Serving (see src/serve/): the flags fill one serve::VerifyRequest.
// --server ADDR ships it, with the text of the file that just parsed
// locally, to a running `sharpied` daemon and replays the response
// byte-exactly (same output, same exit code). A local run calls the
// daemon's own verify sequence, serve::verifyBundle, on it. --store DIR
// gives that run the daemon's persistent cache: a re-verification of a
// solved protocol replays the stored verdict without solving (the
// observability flags still write this run's trace and stats), and a
// solve consults the stored reduce cache (without --store the search
// makes no reduce-cache lookups). Daemon operations go through
// `sharpied --ctl ADDR --op ...`.
//
// Thin-client resilience: requests are idempotent by content hash, so
// connect failures and overload sheds are retried --retries times
// (default 4) with exponential backoff from --retry-base-ms (default
// 100), deterministic jitter seeded by the protocol text, honoring the
// daemon's retry_after_ms hint. Retries exhausted while the daemon is
// still shedding exits 5 ("overloaded").
//
// Exit codes (front/ExitCodes.h; deterministic, scriptable):
//   0  verified safe (invariant printed)
//   1  unsafe (explicit counterexample printed)
//   2  unknown: the search space was exhausted without a verdict
//   3  frontend or usage error (parse/elaboration/I-O, bad flag, unknown
//      built-in), message on stderr
//   4  inconclusive: no verdict AND some failure (timeout, skipped tuple,
//      injected fault, exhausted budget) may have hidden one; the report
//      lists failure classes and the best partial candidate
//   5  overloaded: the daemon shed the request and --retries were
//      exhausted; the request was never attempted, resubmit later
//
//===----------------------------------------------------------------------===//

#include "front/ExitCodes.h"
#include "front/Front.h"
#include "logic/TermOps.h"
#include "obs/Cli.h"
#include "protocols/Protocols.h"
#include "resil/Fault.h"
#include "serve/Client.h"

#include "Flags.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace sharpie;
using front::ExitError;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <file.sharpie> [--workers N] [--json]"
               " [--time-budget SECONDS] [--max-tuples N]\n"
               "       [--faults PLAN] [--smt-timeout MS]"
               " [--server ADDR] [--store DIR]\n"
               "       [--retries N] [--retry-base-ms MS]\n"
               "       %s\n"
               "       %s --builtin NAME [same flags, except --server]\n"
               "exit codes: 0 safe, 1 unsafe, 2 unknown, 3 error,"
               " 4 inconclusive, 5 overloaded\n",
               Argv0, obs::CliObs::usageFragment(), Argv0);
}

int run(int argc, char **argv) {
  serve::VerifyRequest Req; // The knobs, for a local run or the daemon.
  std::string Builtin;
  std::string ServerAddr;
  std::string StoreDir;
  serve::RetryPolicy Retry; // --retries / --retry-base-ms (thin client).
  obs::CliObs Obs;
  for (int I = 1; I < argc; ++I) {
    std::string ObsErr;
    bool ValueOk = true;
    if (Obs.parseArg(argc, argv, I, ObsErr)) {
      if (!ObsErr.empty()) {
        std::fprintf(stderr, "error: %s\n", ObsErr.c_str());
        usage(argv[0]);
        return ExitError;
      }
    } else if (!std::strcmp(argv[I], "--json"))
      Req.JsonLine = true;
    else if (!std::strcmp(argv[I], "--workers"))
      ValueOk = tools::numericFlag(argc, argv, I, Req.Workers);
    else if (!std::strcmp(argv[I], "--time-budget"))
      ValueOk = tools::numericFlag(argc, argv, I, Req.TimeBudget);
    else if (!std::strcmp(argv[I], "--max-tuples"))
      ValueOk = tools::numericFlag(argc, argv, I, Req.MaxTuples);
    else if (!std::strcmp(argv[I], "--faults"))
      ValueOk = tools::stringFlag(argc, argv, I, Req.Faults);
    else if (!std::strcmp(argv[I], "--smt-timeout"))
      ValueOk = tools::numericFlag(argc, argv, I, Req.SmtTimeoutMs);
    else if (!std::strcmp(argv[I], "--server")) {
      ValueOk = tools::stringFlag(argc, argv, I, ServerAddr);
      // An empty ADDR (typically an unset shell variable) must not
      // silently degrade to a local run -- the modes are intentionally
      // indistinguishable by output, so the mixup would be invisible.
      if (ValueOk && ServerAddr.empty()) {
        std::fprintf(stderr, "error: --server needs a non-empty address "
                             "(unix:/path or host:port)\n");
        return ExitError;
      }
    }
    else if (!std::strcmp(argv[I], "--store"))
      ValueOk = tools::stringFlag(argc, argv, I, StoreDir);
    else if (!std::strcmp(argv[I], "--builtin"))
      ValueOk = tools::stringFlag(argc, argv, I, Builtin);
    else if (!std::strcmp(argv[I], "--retries"))
      ValueOk = tools::numericFlag(argc, argv, I, Retry.MaxRetries);
    else if (!std::strcmp(argv[I], "--retry-base-ms"))
      ValueOk = tools::numericFlag(argc, argv, I, Retry.BaseMs);
    else if (!std::strcmp(argv[I], "--help") || !std::strcmp(argv[I], "-h")) {
      usage(argv[0]);
      return 0;
    } else if (argv[I][0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      usage(argv[0]);
      return ExitError;
    } else if (Req.File.empty())
      Req.File = argv[I];
    else {
      std::fprintf(stderr, "error: more than one input file\n");
      usage(argv[0]);
      return ExitError;
    }
    if (!ValueOk)
      return ExitError;
  }
  if (Req.File.empty() == Builtin.empty()) {
    if (!Req.File.empty())
      std::fprintf(stderr, "error: give a file or --builtin NAME, not both\n");
    usage(argv[0]);
    return ExitError;
  }
  if (!ServerAddr.empty()) {
    // The daemon runs the request, so no trace or stats exist here.
    const char *Local = !Obs.TraceOut.empty()    ? "--trace-out"
                        : !Obs.EventsOut.empty() ? "--events-out"
                        : Obs.Stats              ? "--stats"
                                                 : nullptr;
    if (Local) {
      std::fprintf(stderr,
                   "error: %s has nothing to write with --server: the "
                   "daemon keeps each request's trace and metrics (sharpied "
                   "--ctl ADDR --op dump_trace|metrics)\n",
                   Local);
      return ExitError;
    }
  }
  std::map<std::string, protocols::BundleFactory> Builtins =
      protocols::builtins();
  auto BuiltinIt = Builtins.find(Builtin);
  if (!Builtin.empty()) {
    if (BuiltinIt == Builtins.end()) {
      std::fprintf(stderr, "error: unknown built-in '%s'; valid names:\n",
                   Builtin.c_str());
      for (const auto &[Name, Make] : Builtins)
        std::fprintf(stderr, "  %s\n", Name.c_str());
      std::fprintf(stderr, "every other protocol is a file under "
                           "examples/protocols/\n");
      return ExitError;
    }
    if (!ServerAddr.empty()) {
      std::fprintf(stderr, "error: --builtin runs locally only: a built-in "
                           "bundle has no protocol text to send to --server\n");
      return ExitError;
    }
  }
  resil::FaultPlan Faults;
  if (!Req.Faults.empty()) {
    std::string FErr;
    if (auto P = resil::FaultPlan::parse(Req.Faults, &FErr))
      Faults = std::move(*P);
    else {
      std::fprintf(stderr, "error: bad fault plan: %s\n", FErr.c_str());
      return ExitError;
    }
  }

  // Parse locally in both modes, so diagnostics never depend on a
  // daemon. parse_seconds is the run's one "parse" span (the loader's, or
  // the bundle construction's); total_seconds is the wall clock from
  // here, so parse_seconds + synth_seconds <= total_seconds always holds
  // in the JSON.
  std::unique_ptr<obs::Tracer> Tracer = Obs.makeTracer();
  auto T0 = std::chrono::steady_clock::now();
  logic::TermManager M;
  front::FrontBundle B;
  if (!Builtin.empty()) {
    Req.File = "builtin:" + Builtin; // Display name for the --json line.
    obs::Span ParseSp(Tracer->worker(0), "parse", [&] { return Req.File; });
    B = BuiltinIt->second(M);
  } else {
    std::ifstream In(Req.File, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Req.ProtocolText = SS.str();
    // An unreadable file gets the frontend loader's own diagnostic.
    front::LoadResult L =
        In ? front::loadProtocolString(M, Req.ProtocolText, Req.File,
                                       Tracer->worker(0))
           : front::loadProtocolFile(M, Req.File);
    if (!L.ok()) {
      std::fprintf(stderr, "%s\n", L.Error->render().c_str());
      return ExitError;
    }
    B = std::move(*L.Bundle);
  }

  // -- Thin-client mode ------------------------------------------------------
  // Ship the text that just parsed. The daemon's response carries the
  // complete stdout a local run would have printed, so scripts cannot
  // tell the difference.
  if (!ServerAddr.empty()) {
    std::string Err;
    auto A = serve::parseAddr(ServerAddr, &Err);
    if (!A) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitError;
    }
    // Verify requests are idempotent by content hash, so connect
    // failures and overload sheds retry with deterministic jitter keyed
    // on the protocol text: the schedule is reproducible per input, and
    // concurrent clients verifying different files decorrelate.
    serve::RetryPolicy Policy = Retry;
    if (!Policy.Seed) {
      uint64_t H = 1469598103934665603ULL; // FNV-1a over the text.
      for (unsigned char Ch : Req.ProtocolText)
        H = (H ^ Ch) * 1099511628211ULL;
      Policy.Seed = H;
    }
    serve::Json RespJ;
    serve::RetryOutcome Out =
        serve::requestWithRetry(*A, Req.encode(), Policy, RespJ);
    if (!Out.Ok) {
      std::fprintf(stderr, "error: %s (after %u attempt%s)\n",
                   Out.Err.c_str(), Out.Attempts,
                   Out.Attempts == 1 ? "" : "s");
      return ExitError;
    }
    if (RespJ.get("error").isString() && RespJ.get("exit").isNull()) {
      // Protocol-level rejection (bad request framing), not a verdict.
      std::fprintf(stderr, "error: %s\n",
                   RespJ.get("error").asString().c_str());
      return ExitError;
    }
    serve::VerifyResponse Resp = serve::VerifyResponse::decode(RespJ);
    std::fwrite(Resp.Output.data(), 1, Resp.Output.size(), stdout);
    if (!Resp.Error.empty())
      std::fwrite(Resp.Error.data(), 1, Resp.Error.size(), stderr);
    return Resp.Exit;
  }

  // -- Local mode ------------------------------------------------------------
  std::string Header = serve::renderHeader(B.Sys->name(), B.Property);
  std::fwrite(Header.data(), 1, Header.size(), stdout);
  std::fflush(stdout);

  // --store DIR: tier 1 answers a re-verification without solving; tier 2
  // (the reduce cache on disk) is loaded to warm a solve and saved after
  // a settled verdict. Without a store the search makes no reduce-cache
  // lookups.
  serve::ResultStore Store(StoreDir);
  engine::ReduceCache RC;
  serve::VerifyRun Run = serve::verifyBundle(
      B, Req, Faults, Store, Store.enabled() ? &RC : nullptr,
      /*LoadTier2=*/true, *Tracer, /*Cancel=*/nullptr, T0);

  std::string Err;
  if (!Obs.writeOutputs(*Tracer, Err))
    std::fprintf(stderr, "warning: %s\n", Err.c_str());
  if (Obs.Stats) {
    // The phase shares are of the synthesis' own span (0 on a tier-1 hit).
    double SynthSeconds = Tracer->metrics().span("synth").Seconds;
    std::fprintf(stderr, "%s",
                 synth::renderStatsTable(Run.Stats, SynthSeconds).c_str());
  }
  std::fwrite(Run.Resp.Output.data(), 1, Run.Resp.Output.size(), stdout);
  return Run.Resp.Exit;
}

} // namespace

int main(int argc, char **argv) {
  // The frontend never lets exceptions escape, but keep the driver
  // airtight: any stray throw still exits with code 3 and a message.
  try {
    return run(argc, argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return ExitError;
  } catch (...) {
    std::fprintf(stderr, "error: unknown failure\n");
    return ExitError;
  }
}
