//===- examples/run_protocol.cpp - Run #Pi on a named benchmark ----------------===//
//
// Part of sharpie. Command-line driver over the whole benchmark suite:
//
//   example_run_protocol <name> [--verbose] [--workers N] [--json]
//   example_run_protocol --protocol <file.sharpie> [same flags]
//
// Prints the synthesized invariant (inferred cardinalities + scalar part)
// or the explicit counterexample for buggy variants. `--list` shows all
// benchmark names. `--workers N` sets the parallel search width (0 = one
// worker per hardware thread, 1 = serial); `--json` appends a
// machine-readable result line to stdout. `--protocol` elaborates a
// textual protocol through the frontend instead of a built-in bundle;
// frontend failures exit 3 like the sharpie driver. The shared
// observability flags (--trace-out, --events-out, --log-level, --stats;
// SHARPIE_TRACE / SHARPIE_EVENTS / SHARPIE_LOG_LEVEL in the environment)
// and the resilience flags (--faults / SHARPIE_FAULTS, --no-supervise,
// --smt-timeout MS) work exactly as in tools/sharpie.cpp.
//
// Exit codes: 0 expected outcome (verified, or counterexample on a buggy
// variant), 1 unexpected outcome, 2 usage error, 3 frontend error,
// 4 inconclusive (no verdict and some failure may have hidden one).
//
//===----------------------------------------------------------------------===//

#include "front/ExitCodes.h"
#include "front/Front.h"
#include "logic/TermOps.h"
#include "obs/Cli.h"
#include "protocols/Protocols.h"
#include "resil/Fault.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

using namespace sharpie;
using namespace sharpie::protocols;

static std::map<std::string, BundleFactory> registry() {
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

static int runMain(int argc, char **argv) {
  bool Verbose = false;
  bool Json = false;
  bool NoSupervise = false;
  unsigned Workers = 1;
  unsigned SmtTimeoutMs = 0;  // 0 = keep the SynthOptions default.
  std::string Name;
  std::string ProtocolFile;
  std::string FaultSpec;
  if (const char *Env = std::getenv("SHARPIE_FAULTS"))
    FaultSpec = Env; // --faults below overrides the environment.
  obs::CliObs Obs;
  Obs.readEnv(); // Flags below override the environment.
  for (int I = 1; I < argc; ++I) {
    std::string ObsErr;
    if (Obs.parseArg(argc, argv, I, ObsErr)) {
      if (!ObsErr.empty()) {
        std::fprintf(stderr, "error: %s\n", ObsErr.c_str());
        return 2;
      }
    } else if (!std::strcmp(argv[I], "--verbose"))
      Verbose = true;
    else if (!std::strcmp(argv[I], "--json"))
      Json = true;
    else if (!std::strcmp(argv[I], "--workers") && I + 1 < argc)
      Workers = static_cast<unsigned>(std::strtol(argv[++I], nullptr, 10));
    else if (!std::strcmp(argv[I], "--protocol") && I + 1 < argc)
      ProtocolFile = argv[++I];
    else if (!std::strcmp(argv[I], "--faults") && I + 1 < argc)
      FaultSpec = argv[++I];
    else if (!std::strcmp(argv[I], "--no-supervise"))
      NoSupervise = true;
    else if (!std::strcmp(argv[I], "--smt-timeout") && I + 1 < argc)
      SmtTimeoutMs =
          static_cast<unsigned>(std::strtol(argv[++I], nullptr, 10));
    else if (!std::strcmp(argv[I], "--list")) {
      for (const auto &[K, V] : registry())
        std::printf("%s\n", K.c_str());
      return 0;
    } else
      Name = argv[I];
  }
  if (Verbose &&
      static_cast<int>(Obs.Level) < static_cast<int>(obs::LogLevel::Debug))
    Obs.Level = obs::LogLevel::Debug;
  resil::FaultPlan Faults;
  if (!FaultSpec.empty()) {
    std::string FErr;
    if (auto P = resil::FaultPlan::parse(FaultSpec, &FErr))
      Faults = std::move(*P);
    else {
      std::fprintf(stderr, "error: bad fault plan: %s\n", FErr.c_str());
      return 2;
    }
  }
  std::unique_ptr<obs::Tracer> Tracer = Obs.makeTracer();

  auto T0 = std::chrono::steady_clock::now();
  logic::TermManager M;
  ProtocolBundle B;
  if (!ProtocolFile.empty()) {
    front::LoadResult L = front::loadProtocolFile(
        M, ProtocolFile, Tracer ? Tracer->worker(0) : nullptr);
    if (!L.ok()) {
      std::fprintf(stderr, "%s\n", L.Error->render().c_str());
      return front::ExitError;
    }
    B.Sys = std::move(L.Bundle->Sys);
    B.Shape = L.Bundle->Shape;
    B.QGuard = L.Bundle->QGuard;
    B.Explicit = L.Bundle->Explicit;
    B.ExpectSafe = L.Bundle->ExpectSafe;
    B.NeedsVenn = L.Bundle->NeedsVenn;
    B.Property = L.Bundle->Property;
    Name = B.Sys->name();
  } else {
    std::map<std::string, BundleFactory> R = registry();
    auto It = R.find(Name);
    if (It == R.end()) {
      std::fprintf(stderr,
                   "usage: %s <name> [--verbose] [--workers N] [--json]; "
                   "%s --protocol <file.sharpie>; --list for names\n",
                   argv[0], argv[0]);
      return 2;
    }
    B = It->second(M);
  }
  std::printf("== %s ==\nproperty: %s\n", B.Sys->name().c_str(),
              B.Property.c_str());

  synth::SynthOptions Opts;
  Opts.Shape = B.Shape;
  Opts.QGuard = B.QGuard;
  Opts.Reduce.Card.Venn = B.NeedsVenn;
  Opts.Explicit = B.Explicit;
  Opts.Trace = Tracer.get();
  Opts.Verbose = Verbose;
  Opts.NumWorkers = Workers;
  Opts.Supervise.Enabled = !NoSupervise;
  if (SmtTimeoutMs)
    Opts.SmtTimeoutMs = SmtTimeoutMs;
  if (!Faults.empty())
    Opts.Faults = &Faults;
  auto T1 = std::chrono::steady_clock::now();
  synth::SynthResult Res = synth::synthesize(*B.Sys, Opts);
  auto Since = [](std::chrono::steady_clock::time_point T) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
        .count();
  };
  double SynthSeconds = Since(T1);
  double TotalSeconds = Since(T0);

  if (Tracer) {
    std::string Err;
    if (!Obs.writeOutputs(*Tracer, Err))
      std::fprintf(stderr, "warning: %s\n", Err.c_str());
  }
  if (Obs.Stats)
    std::fprintf(stderr, "%s",
                 synth::renderStatsTable(Res.Stats, SynthSeconds).c_str());

  if (Json) {
    // cache_lookup_seconds is a constant 0 here: this driver has no
    // persistent store. The field is emitted anyway so every JSON
    // surface (sharpie, sharpie --store/--server, run_protocol) carries
    // the same timing schema.
    std::printf("{\"protocol\":\"%s\",\"verified\":%s,\"found_cex\":%s,"
                "\"inconclusive\":%s,\"cache_lookup_seconds\":0.000000,"
                "\"synth_seconds\":%.3f,\"total_seconds\":%.3f,%s}\n",
                Name.c_str(), Res.Verified ? "true" : "false",
                Res.Cex ? "true" : "false",
                Res.Inconclusive ? "true" : "false", SynthSeconds,
                TotalSeconds, synth::statsJsonFields(Res.Stats).c_str());
  }

  if (Res.Verified) {
    std::printf("VERIFIED in %.2fs (%u tuples, %u SMT checks)\n",
                Res.Stats.Seconds, Res.Stats.TuplesTried,
                Res.Stats.SmtChecks);
    std::printf("inferred cardinalities:\n");
    for (logic::Term S : Res.SetBodies)
      std::printf("  #{t | %s}\n", logic::toString(S).c_str());
    std::printf("invariant atoms (%zu):\n", Res.Atoms.size());
    for (logic::Term A : Res.Atoms)
      std::printf("  %s\n", logic::toString(A).c_str());
    return 0;
  }
  if (Res.Cex) {
    std::printf("UNSAFE: explicit counterexample (%zu steps):\n",
                Res.Cex->TransitionNames.size());
    for (const std::string &S : Res.Cex->TransitionNames)
      std::printf("  %s\n", S.c_str());
    return B.ExpectSafe ? 1 : 0;
  }
  if (Res.Inconclusive) {
    std::printf("INCONCLUSIVE after %.2fs: %s\n", Res.Stats.Seconds,
                Res.Note.c_str());
    std::printf("%s", synth::renderInconclusiveReport(Res).c_str());
    return front::ExitInconclusive;
  }
  std::printf("NOT VERIFIED after %.2fs: %s\n", Res.Stats.Seconds,
              Res.Note.c_str());
  return 1;
}

int main(int argc, char **argv) {
  // Built-in bundles construct models directly, so a sys::ModelError (or
  // any stray throw) can reach this driver without passing through the
  // frontend's containment; exit 3 with a message, never abort.
  try {
    return runMain(argc, argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 3;
  } catch (...) {
    std::fprintf(stderr, "error: unknown failure\n");
    return 3;
  }
}
