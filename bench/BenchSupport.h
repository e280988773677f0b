//===- bench/BenchSupport.h - Table harness for the evaluation -*- C++ -*-===//
//
// Part of sharpie. Shared driver for the figure-reproduction benchmarks:
// runs #Pi on each protocol of a table (an examples/protocols/ file or a
// C++ bundle) and prints the rows the paper reports (program, verdict,
// inferred cardinalities, time) beside the paper's own columns, which
// each table's rows carry. Absolute timings are machine-dependent;
// the shape (which rows verify, which rows are buggy, relative effort) is
// the reproduction target (see EXPERIMENTS.md). A table's binary exits 1
// when any row's verdict differs from the paper's.
//
// Two environment variables configure the harness (tools/sweep.sh sets
// both):
//   SHARPIE_WORKERS     worker count for the parallel search (default 1,
//                       "max" = one per hardware thread);
//   SHARPIE_BENCH_JSON  path to append one JSON line per row to, carrying
//                       the verdict, timings, SynthStats counters, and
//                       the inferred invariant (cards and atoms).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_BENCH_BENCHSUPPORT_H
#define SHARPIE_BENCH_BENCHSUPPORT_H

#include "front/Front.h"
#include "logic/TermOps.h"
#include "obs/Export.h"
#include "protocols/Protocols.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifndef SHARPIE_REPO_ROOT
#error "SHARPIE_REPO_ROOT must be defined by the build"
#endif

namespace sharpie {
namespace bench {

/// The paper's reference columns for one row of its table.
struct PaperColumns {
  std::string Time;       ///< #Pi column ("TO" = timeout).
  std::string Comparator; ///< Competitor column, if the table has one.
  std::string Cards;      ///< "Inferred cardinalities" column, if given.

  PaperColumns(std::string Time = "", std::string Comparator = "",
               std::string Cards = "")
      : Time(std::move(Time)), Comparator(std::move(Comparator)),
        Cards(std::move(Cards)) {}
};

struct RowResult {
  std::string Name;
  bool Expected = true;   ///< ExpectSafe of the bundle.
  bool Verified = false;
  bool FoundCex = false;
  double Seconds = 0;
  std::string Cards;      ///< Inferred cardinalities (ours).
  std::vector<std::string> Atoms; ///< Invariant atoms, rendered, in order.
  PaperColumns Paper;
  synth::SynthStats Stats;
};

/// Loads examples/protocols/STEM.sharpie; a file that does not load ends
/// the table with its diagnostic (exit 3, as the sharpie CLI).
inline protocols::BundleFactory exampleFile(const std::string &Stem) {
  return [Stem](logic::TermManager &M) {
    front::LoadResult L = front::loadProtocolFile(
        M, std::string(SHARPIE_REPO_ROOT) + "/examples/protocols/" + Stem +
               ".sharpie");
    if (!L.ok()) {
      std::fprintf(stderr, "%s\n", L.Error->render().c_str());
      std::exit(3);
    }
    return std::move(*L.Bundle);
  };
}

/// Worker count for bench runs: SHARPIE_WORKERS (number, or "max" for one
/// per hardware thread). Defaults to 1 so timing baselines stay at one
/// worker unless a sweep asks otherwise.
inline unsigned benchWorkers() {
  const char *Env = std::getenv("SHARPIE_WORKERS");
  if (!Env || !*Env)
    return 1;
  if (std::strcmp(Env, "max") == 0)
    return 0; // SynthOptions: 0 = hardware concurrency.
  long V = std::strtol(Env, nullptr, 10);
  return V > 0 ? static_cast<unsigned>(V) : 1;
}

/// Appends one machine-readable line for \p Row to $SHARPIE_BENCH_JSON, if
/// set. One self-contained JSON object per line (JSONL), so concurrent
/// tables can share a file and jq/python can stream it.
inline void emitJsonRow(const RowResult &Row) {
  const char *Path = std::getenv("SHARPIE_BENCH_JSON");
  if (!Path || !*Path)
    return;
  std::FILE *Fp = std::fopen(Path, "a");
  if (!Fp)
    return;
  const synth::SynthStats &S = Row.Stats;
  std::string Atoms;
  for (const std::string &A : Row.Atoms)
    Atoms += (Atoms.empty() ? "\"" : ",\"") + obs::jsonEscape(A) + "\"";
  std::fprintf(
      Fp,
      "{\"protocol\":\"%s\",\"workers\":%u,\"expected_safe\":%s,"
      "\"verified\":%s,\"found_cex\":%s,\"seconds\":%.3f,"
      "\"tuples_tried\":%u,\"tuples_screened\":%u,\"smt_checks\":%u,"
      "\"cache_hits\":%u,\"cache_misses\":%u,\"worker_utilization\":%.3f,"
      "\"prefilter_seconds\":%.3f,\"reduce_seconds\":%.3f,"
      "\"houdini_seconds\":%.3f,\"recheck_seconds\":%.3f,"
      "\"cards\":\"%s\",\"atoms\":[%s]}\n",
      obs::jsonEscape(Row.Name).c_str(), S.NumWorkers,
      Row.Expected ? "true" : "false", Row.Verified ? "true" : "false",
      Row.FoundCex ? "true" : "false", Row.Seconds, S.TuplesTried,
      S.TuplesScreened, S.SmtChecks, S.CacheHits, S.CacheMisses,
      S.WorkerUtilization, S.PrefilterSeconds, S.ReduceSeconds,
      S.HoudiniSeconds, S.RecheckSeconds, obs::jsonEscape(Row.Cards).c_str(),
      Atoms.c_str());
  std::fclose(Fp);
}

inline RowResult runBundle(const std::string &Name,
                           const protocols::BundleFactory &Make,
                           PaperColumns Paper,
                           double TimeBudgetSeconds = 180) {
  logic::TermManager M;
  protocols::ProtocolBundle B = Make(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.TimeBudgetSeconds = TimeBudgetSeconds;
  Opts.NumWorkers = benchWorkers();
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);

  RowResult Row;
  Row.Name = Name;
  Row.Expected = B.ExpectSafe;
  Row.Verified = R.Verified;
  Row.FoundCex = R.Cex.has_value();
  Row.Seconds = R.Stats.Seconds;
  Row.Paper = std::move(Paper);
  Row.Stats = R.Stats;
  for (size_t I = 0; I < R.SetBodies.size(); ++I) {
    if (I)
      Row.Cards += ", ";
    Row.Cards += "#{t | " + logic::toString(R.SetBodies[I]) + "}";
  }
  if (Row.Cards.empty())
    Row.Cards = "-";
  for (logic::Term A : R.Atoms)
    Row.Atoms.push_back(logic::toString(A));
  emitJsonRow(Row);
  return Row;
}

/// Prints the table; true when every row matches the paper's verdict.
inline bool printTable(const std::string &Title,
                       const std::vector<RowResult> &Rows,
                       const char *ComparatorLabel = nullptr) {
  std::printf("\n== %s ==\n", Title.c_str());
  std::printf("%-22s %-9s %-8s %-9s %-9s", "Program", "Result", "OK?",
              "Time", "Paper");
  if (ComparatorLabel)
    std::printf(" %-18s", ComparatorLabel);
  std::printf("  Inferred cardinalities\n");
  unsigned Ok = 0;
  for (const RowResult &R : Rows) {
    const char *Result = R.Verified ? "safe" : (R.FoundCex ? "cex" : "fail");
    bool AsExpected = R.Expected ? R.Verified : R.FoundCex;
    Ok += AsExpected;
    char Time[32];
    std::snprintf(Time, sizeof(Time), "%.2fs", R.Seconds);
    std::printf("%-22s %-9s %-8s %-9s %-9s", R.Name.c_str(), Result,
                AsExpected ? "yes" : "NO", Time,
                R.Paper.Time.empty() ? "-" : R.Paper.Time.c_str());
    if (ComparatorLabel)
      std::printf(" %-18s", R.Paper.Comparator.empty()
                                ? "-"
                                : R.Paper.Comparator.c_str());
    std::printf("  %s", R.Cards.c_str());
    if (!R.Paper.Cards.empty())
      std::printf("  (paper: %s)", R.Paper.Cards.c_str());
    std::printf("\n");
  }
  std::printf("%u/%zu rows match the paper's verdict\n", Ok, Rows.size());
  return Ok == Rows.size();
}

} // namespace bench
} // namespace sharpie

#endif // SHARPIE_BENCH_BENCHSUPPORT_H
