//===- tools/sharpie.cpp - The sharpie CLI --------------------------------===//
//
// Part of sharpie. The one verify driver: loads a `.sharpie` protocol
// file (or, with --builtin, one of the hand-built C++ bundles of
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
// Built-in bundles take the same local path as files: canonical hash,
// --store, the same verdict text and --json line, the same exit codes.
// An unknown NAME exits 3 and lists the valid names on stderr. (The
// bundles leave with src/protocols/ once they exist as .sharpie files.)
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
// prints a per-phase stats table to stderr after the run.
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
// Serving (see src/serve/): --server ADDR turns this binary into a thin
// client of a running `sharpied` daemon -- the file is parsed locally
// for fast diagnostics, then its text is shipped; the daemon's response
// replays here byte-exactly (same output, same exit code), warm results
// arriving from the daemon's persistent store. --store DIR gives a local
// (daemonless) run the same persistent cache: warm re-verifications of
// an already-solved protocol replay the stored verdict without solving,
// and a solve consults the stored reduce cache (without --store the
// search makes no reduce-cache lookups).
// Daemon operations (status, metrics, dump_trace, ...) go through
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
#include "serve/Proto.h"
#include "serve/Store.h"
#include "synth/Synth.h"

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

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// The hand-built bundles --builtin NAME selects.
std::map<std::string, protocols::BundleFactory> builtins() {
  using namespace protocols;
  std::map<std::string, BundleFactory> R;
  R["increment"] = makeIncrement;
  R["intro"] = makeIntro;
  R["bluetooth"] = makeBluetooth;
  R["cache"] = makeCache;
  R["ticket"] = makeTicketLock;
  R["filter"] = makeFilterLock;
  R["one-third"] = makeOneThird;
  R["max"] = [](logic::TermManager &M) { return makeMax(M, true); };
  R["max-nobar"] = [](logic::TermManager &M) { return makeMax(M, false); };
  R["reader-writer"] = [](logic::TermManager &M) {
    return makeReaderWriter(M, true);
  };
  R["reader-writer-bug"] = [](logic::TermManager &M) {
    return makeReaderWriter(M, false);
  };
  R["parent-child"] = [](logic::TermManager &M) {
    return makeParentChild(M, true);
  };
  R["parent-child-nobar"] = [](logic::TermManager &M) {
    return makeParentChild(M, false);
  };
  R["simp-bar"] = [](logic::TermManager &M) { return makeSimpBar(M, true); };
  R["simp-nobar"] = [](logic::TermManager &M) {
    return makeSimpBar(M, false);
  };
  R["dyn-barrier"] = [](logic::TermManager &M) {
    return makeDynBarrier(M, true);
  };
  R["dyn-barrier-nobar"] = [](logic::TermManager &M) {
    return makeDynBarrier(M, false);
  };
  R["as-many"] = [](logic::TermManager &M) { return makeAsMany(M, true); };
  R["as-many-bug"] = [](logic::TermManager &M) {
    return makeAsMany(M, false);
  };
  R["tree-traverse"] = makeTreeTraverse;
  R["garbage-collection"] = makeGarbageCollection;
  R["simplified-bakery"] = makeSimplifiedBakery;
  R["lamport-bakery"] = makeLamportBakery;
  R["bogus-bakery"] = makeBogusBakery;
  R["ticket-mutex"] = makeTicketMutex;
  R["barrier"] = makeBarrier;
  R["central-barrier"] = makeCentralBarrier;
  R["work-stealing"] = makeWorkStealing;
  R["dining-philosophers"] = makeDiningPhilosophers;
  R["robot-2x2"] = [](logic::TermManager &M) { return makeRobot(M, 2, 2); };
  R["robot-3x3"] = [](logic::TermManager &M) { return makeRobot(M, 3, 3); };
  return R;
}

int run(int argc, char **argv) {
  std::string File;
  std::string Builtin;
  bool Json = false;
  unsigned Workers = 1;
  double TimeBudget = 0;
  unsigned MaxTuples = 0;
  unsigned SmtTimeoutMs = 0; // 0 = keep the SynthOptions default.
  std::string FaultSpec;
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
      Json = true;
    else if (!std::strcmp(argv[I], "--workers"))
      ValueOk = tools::numericFlag(argc, argv, I, Workers);
    else if (!std::strcmp(argv[I], "--time-budget"))
      ValueOk = tools::numericFlag(argc, argv, I, TimeBudget);
    else if (!std::strcmp(argv[I], "--max-tuples"))
      ValueOk = tools::numericFlag(argc, argv, I, MaxTuples);
    else if (!std::strcmp(argv[I], "--faults"))
      ValueOk = tools::stringFlag(argc, argv, I, FaultSpec);
    else if (!std::strcmp(argv[I], "--smt-timeout"))
      ValueOk = tools::numericFlag(argc, argv, I, SmtTimeoutMs);
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
    } else if (File.empty())
      File = argv[I];
    else {
      std::fprintf(stderr, "error: more than one input file\n");
      usage(argv[0]);
      return ExitError;
    }
    if (!ValueOk)
      return ExitError;
  }
  if (File.empty() == Builtin.empty()) {
    if (!File.empty())
      std::fprintf(stderr, "error: give a file or --builtin NAME, not both\n");
    usage(argv[0]);
    return ExitError;
  }
  std::map<std::string, protocols::BundleFactory> Builtins = builtins();
  auto BuiltinIt = Builtins.find(Builtin);
  if (!Builtin.empty()) {
    if (BuiltinIt == Builtins.end()) {
      std::fprintf(stderr, "error: unknown built-in '%s'; valid names:\n",
                   Builtin.c_str());
      for (const auto &[Name, Make] : Builtins)
        std::fprintf(stderr, "  %s\n", Name.c_str());
      return ExitError;
    }
    if (!ServerAddr.empty()) {
      std::fprintf(stderr, "error: --builtin runs locally only: a built-in "
                           "bundle has no protocol text to send to --server\n");
      return ExitError;
    }
  }
  resil::FaultPlan Faults;
  if (!FaultSpec.empty()) {
    std::string FErr;
    if (auto P = resil::FaultPlan::parse(FaultSpec, &FErr))
      Faults = std::move(*P);
    else {
      std::fprintf(stderr, "error: bad fault plan: %s\n", FErr.c_str());
      return ExitError;
    }
  }

  // -- Thin-client mode ------------------------------------------------------
  // Parse locally for fast, identical diagnostics; ship the text. The
  // daemon's response carries the complete stdout a local run would have
  // printed, so scripts cannot tell the difference.
  if (!ServerAddr.empty()) {
    std::ifstream In(File, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    if (!In || In.bad()) {
      // Route through the frontend's file loader so the diagnostic text
      // matches a local run's exactly.
      logic::TermManager M;
      front::LoadResult L = front::loadProtocolFile(M, File);
      std::fprintf(stderr, "%s\n",
                   L.ok() ? ("error: cannot read '" + File + "'").c_str()
                          : L.Error->render().c_str());
      return ExitError;
    }
    std::string Text = SS.str();
    {
      logic::TermManager M;
      front::LoadResult L = front::loadProtocolString(M, Text, File);
      if (!L.ok()) {
        std::fprintf(stderr, "%s\n", L.Error->render().c_str());
        return ExitError;
      }
    }
    std::string Err;
    auto A = serve::parseAddr(ServerAddr, &Err);
    if (!A) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return ExitError;
    }
    serve::VerifyRequest Req;
    Req.ProtocolText = std::move(Text);
    Req.File = File;
    Req.Workers = Workers;
    Req.TimeBudget = TimeBudget;
    Req.MaxTuples = MaxTuples;
    Req.SmtTimeoutMs = SmtTimeoutMs;
    Req.Faults = FaultSpec;
    Req.JsonLine = Json;
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

  std::unique_ptr<obs::Tracer> Tracer = Obs.makeTracer();

  // One clock for all reported times: total_seconds spans parse (or
  // bundle construction) through synthesis on this clock, so
  // parse_seconds + synth_seconds <= total_seconds always holds in the
  // JSON.
  auto T0 = std::chrono::steady_clock::now();
  logic::TermManager M;
  front::FrontBundle B;
  if (!Builtin.empty()) {
    B = BuiltinIt->second(M);
    File = "builtin:" + Builtin; // Display name for the --json line.
  } else {
    front::LoadResult L = front::loadProtocolFile(
        M, File, Tracer ? Tracer->worker(0) : nullptr);
    if (!L.ok()) {
      std::fprintf(stderr, "%s\n", L.Error->render().c_str());
      return ExitError;
    }
    B = std::move(*L.Bundle);
  }
  double ParseSeconds = secondsSince(T0);

  std::string Header = serve::renderHeader(B.Sys->name(), B.Property);
  std::fwrite(Header.data(), 1, Header.size(), stdout);
  std::fflush(stdout);

  // -- Persistent store (local mode) -----------------------------------------
  // Chaos runs bypass the store in both directions, mirroring the
  // daemon's policy: injected faults must neither read nor feed it.
  serve::ResultStore Store(Faults.empty() ? StoreDir : std::string());
  double CacheLookupSeconds = 0;
  front::CanonicalHash Hash = front::canonicalProblemHash(B);
  if (Store.enabled()) {
    auto TL = std::chrono::steady_clock::now();
    std::optional<serve::ResultStore::T1Entry> Hit = Store.lookup(Hash);
    CacheLookupSeconds = secondsSince(TL);
    if (Hit) {
      if (Json) {
        std::string JL = serve::renderJsonLine(
            B.Sys->name(), File, Hit->Exit == front::ExitVerified,
            Hit->Exit == front::ExitUnsafe, /*Inconclusive=*/false,
            ParseSeconds, CacheLookupSeconds, /*SynthSeconds=*/0.0,
            secondsSince(T0), Hit->StatsJson);
        std::fwrite(JL.data(), 1, JL.size(), stdout);
      }
      std::fwrite(Hit->Verdict.data(), 1, Hit->Verdict.size(), stdout);
      return Hit->Exit;
    }
  }
  engine::ReduceCache RC;
  if (Store.enabled())
    Store.loadReduceCache(RC);

  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.Trace = Tracer.get();
  Opts.NumWorkers = Workers;
  Opts.TimeBudgetSeconds = TimeBudget;
  if (MaxTuples)
    Opts.MaxTuples = MaxTuples;
  if (SmtTimeoutMs)
    Opts.SmtTimeoutMs = SmtTimeoutMs;
  if (!Faults.empty())
    Opts.Faults = &Faults;
  if (Store.enabled())
    Opts.ReuseReduceCache = &RC;

  auto T1 = std::chrono::steady_clock::now();
  synth::SynthResult Res = synth::synthesize(*B.Sys, Opts);
  double SynthSeconds = secondsSince(T1);
  double TotalSeconds = secondsSince(T0);
  Res.Stats.CacheLookupSeconds = CacheLookupSeconds;

  if (Tracer) {
    std::string Err;
    if (!Obs.writeOutputs(*Tracer, Err))
      std::fprintf(stderr, "warning: %s\n", Err.c_str());
  }
  if (Obs.Stats)
    std::fprintf(stderr, "%s",
                 synth::renderStatsTable(Res.Stats, SynthSeconds).c_str());

  if (Json) {
    std::string JL = serve::renderJsonLine(
        B.Sys->name(), File, Res.Verified, Res.Cex.has_value(),
        Res.Inconclusive, ParseSeconds, CacheLookupSeconds, SynthSeconds,
        TotalSeconds, synth::statsJsonFields(Res.Stats));
    std::fwrite(JL.data(), 1, JL.size(), stdout);
  }

  serve::RenderedVerdict V = serve::renderVerdict(Res, B.ExpectSafe,
                                                  ParseSeconds);
  std::fwrite(V.Text.data(), 1, V.Text.size(), stdout);

  if (Store.enabled() &&
      (V.Exit == front::ExitVerified || V.Exit == front::ExitUnsafe)) {
    serve::ResultStore::T1Entry E;
    E.Exit = V.Exit;
    E.Protocol = B.Sys->name();
    E.StatsJson = synth::statsJsonFields(Res.Stats);
    E.SynthSeconds = SynthSeconds;
    E.Verdict = V.Text;
    Store.store(Hash, E);
    Store.saveReduceCache(RC);
  }
  return V.Exit;
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
