//===- synth/Stats.cpp - Stats rendering shared by the drivers ----------------===//
//
// Part of sharpie. Renders SynthStats (including the tracer's merged
// metrics) as a human table and as JSON fields. Both return strings: src/
// never writes to stdout/stderr itself (enforced by the logging lint
// test); the CLI drivers decide where the rendering goes.
//
//===----------------------------------------------------------------------===//

#include "synth/Synth.h"

#include "obs/Export.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace sharpie;
using namespace sharpie::synth;

namespace {

__attribute__((format(printf, 2, 3))) void appendf(std::string &Out,
                                                   const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

} // namespace

std::string sharpie::synth::renderStatsTable(const SynthStats &S,
                                             double WallSeconds) {
  std::string Out;
  appendf(Out,
          "  search    tuples=%u screened=%u smt_checks=%u workers=%u"
          " util=%.2f\n",
          S.TuplesTried, S.TuplesScreened, S.SmtChecks, S.NumWorkers,
          S.WorkerUtilization);
  appendf(Out, "  atoms     pool=%u prefilter=%u invariant=%u\n",
          S.AtomsInPool, S.AtomsAfterPrefilter, S.AtomsInInvariant);
  appendf(Out, "  explicit  states=%u\n", S.ExplicitStates);
  appendf(Out, "  cache     hits=%u misses=%u\n", S.CacheHits, S.CacheMisses);
  appendf(Out,
          "  resil     retries=%llu fallbacks=%llu faults=%llu skipped=%u\n",
          static_cast<unsigned long long>(S.Retries),
          static_cast<unsigned long long>(S.Fallbacks),
          static_cast<unsigned long long>(S.FaultsInjected), S.TuplesSkipped);
  appendf(Out,
          "  unknowns  timeout=%llu incomplete=%llu exceptions=%llu/%u\n",
          static_cast<unsigned long long>(S.UnknownTimeouts),
          static_cast<unsigned long long>(S.UnknownIncomplete),
          static_cast<unsigned long long>(S.SolverExceptions),
          S.WorkerExceptions);

  struct PhaseRow {
    const char *Name;
    double Seconds;
  } Phases[] = {
      {"cache_lookup", S.Metrics.span("t1_lookup").Seconds},
      {"explicit", S.ExplicitSeconds},
      {"enumerate", S.EnumerateSeconds},
      {"prefilter", S.PrefilterSeconds},
      {"screen", S.Metrics.span("screen").Seconds},
      {"reduce", S.ReduceSeconds},
      {"houdini", S.HoudiniSeconds},
      {"recheck", S.RecheckSeconds},
  };
  // Phase times are busy (per-worker) seconds; with several workers they
  // legitimately sum past the wall clock, so the share is vs. worker-time.
  double Denom = WallSeconds * std::max(1u, S.NumWorkers);
  appendf(Out, "  phase busy seconds (wall %.2fs, %u worker%s)\n", WallSeconds,
          S.NumWorkers, S.NumWorkers == 1 ? "" : "s");
  double Accounted = 0;
  for (const PhaseRow &P : Phases) {
    appendf(Out, "    %-12s %8.3fs %5.1f%%\n", P.Name, P.Seconds,
            Denom > 0 ? 100.0 * P.Seconds / Denom : 0.0);
    Accounted += P.Seconds;
  }
  appendf(Out, "    %-12s %8.3fs %5.1f%%\n", "(total)", Accounted,
          Denom > 0 ? 100.0 * Accounted / Denom : 0.0);

  if (!S.Metrics.Counters.empty()) {
    Out += "  counters\n";
    for (const auto &[Name, V] : S.Metrics.Counters)
      appendf(Out, "    %-28s %lld\n", Name.c_str(),
              static_cast<long long>(V));
  }
  if (!S.Metrics.Hists.empty()) {
    Out += "  histograms (ms)\n";
    appendf(Out, "    %-20s %8s %9s %9s %9s %9s %9s\n", "", "count", "mean",
            "p50", "p90", "p99", "max");
    for (const auto &[Name, H] : S.Metrics.Hists)
      appendf(Out, "    %-20s %8llu %9.3f %9.3f %9.3f %9.3f %9.3f\n",
              Name.c_str(), static_cast<unsigned long long>(H.Count),
              H.mean(), H.P50, H.P90, H.P99, H.Max);
  }
  return Out;
}

std::string sharpie::synth::renderInconclusiveReport(const SynthResult &Res) {
  const SynthStats &S = Res.Stats;
  std::string Out;
  appendf(Out,
          "failure classes: unknown_timeouts=%llu unknown_incomplete=%llu"
          " solver_exceptions=%llu worker_exceptions=%u"
          " tuples_skipped=%u faults_injected=%llu\n",
          static_cast<unsigned long long>(S.UnknownTimeouts),
          static_cast<unsigned long long>(S.UnknownIncomplete),
          static_cast<unsigned long long>(S.SolverExceptions),
          S.WorkerExceptions, S.TuplesSkipped,
          static_cast<unsigned long long>(S.FaultsInjected));
  if (!Res.Best)
    return Out;
  const PartialCandidate &P = *Res.Best;
  appendf(Out, "best candidate (tuple rank %u; failed on %s):\n", P.Rank,
          P.FailedOn.c_str());
  for (const std::string &SB : P.SetBodies)
    appendf(Out, "  #{t | %s}\n", SB.c_str());
  for (const std::string &A : P.Atoms)
    appendf(Out, "  %s\n", A.c_str());
  return Out;
}

std::string sharpie::synth::statsJsonFields(const SynthStats &S) {
  std::string Out;
  appendf(Out,
          "\"tuples_tried\": %u, \"tuples_screened\": %u"
          ", \"smt_checks\": %u",
          S.TuplesTried, S.TuplesScreened, S.SmtChecks);
  appendf(Out, ", \"atoms_pool\": %u, \"atoms_prefilter\": %u"
               ", \"atoms_invariant\": %u",
          S.AtomsInPool, S.AtomsAfterPrefilter, S.AtomsInInvariant);
  appendf(Out, ", \"explicit_states\": %u", S.ExplicitStates);
  appendf(Out, ", \"workers\": %u, \"worker_utilization\": %.3f",
          S.NumWorkers, S.WorkerUtilization);
  appendf(Out, ", \"cache_hits\": %u, \"cache_misses\": %u", S.CacheHits,
          S.CacheMisses);
  appendf(Out,
          ", \"retries\": %llu, \"fallbacks\": %llu"
          ", \"faults_injected\": %llu, \"tuples_skipped\": %u"
          ", \"unknown_timeouts\": %llu, \"unknown_incomplete\": %llu"
          ", \"solver_exceptions\": %llu, \"worker_exceptions\": %u",
          static_cast<unsigned long long>(S.Retries),
          static_cast<unsigned long long>(S.Fallbacks),
          static_cast<unsigned long long>(S.FaultsInjected), S.TuplesSkipped,
          static_cast<unsigned long long>(S.UnknownTimeouts),
          static_cast<unsigned long long>(S.UnknownIncomplete),
          static_cast<unsigned long long>(S.SolverExceptions),
          S.WorkerExceptions);
  appendf(Out,
          ", \"explicit_seconds\": %.3f, \"enumerate_seconds\": %.3f"
          ", \"prefilter_seconds\": %.3f, \"reduce_seconds\": %.3f"
          ", \"houdini_seconds\": %.3f, \"recheck_seconds\": %.3f",
          S.ExplicitSeconds, S.EnumerateSeconds, S.PrefilterSeconds,
          S.ReduceSeconds, S.HoudiniSeconds, S.RecheckSeconds);
  for (const auto &[Name, V] : S.Metrics.Counters)
    appendf(Out, ", \"ctr_%s\": %lld", obs::jsonEscape(Name).c_str(),
            static_cast<long long>(V));
  for (const auto &[Name, H] : S.Metrics.Hists)
    appendf(Out,
            ", \"hist_%s\": {\"count\": %llu, \"min\": %.3f, \"max\": %.3f"
            ", \"mean\": %.3f, \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f}",
            obs::jsonEscape(Name).c_str(),
            static_cast<unsigned long long>(H.Count), H.Min, H.Max, H.mean(),
            H.P50, H.P90, H.P99);
  return Out;
}
