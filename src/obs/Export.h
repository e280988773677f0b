//===- obs/Export.h - Trace sinks: Chrome trace, JSONL, skeleton -*- C++ -*-===//
//
// Part of sharpie. The one renderer of trace events, over a finished
// Tracer (all workers joined) or over retained event streams:
//
//   * Chrome trace-event format ("traceEvents" array of B/E/C/i phases),
//     loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. One
//     track (tid) per worker rank, nested spans for tuple -> Houdini
//     iteration -> SMT check; ts is microseconds since the tracer epoch.
//   * JSON Lines: one JSON object per event per line -- the stable stream
//     format for ad-hoc scripting (jq-friendly).
//   * eventSkeleton: the deterministic projection of the merged stream
//     (kind, worker, name, detail, counter value -- no timestamps), one
//     line per event. The golden-trace test pins this exactly.
//
// Both document formats are written by writeTraceDocument; a run's
// --trace-out / --events-out files (writeChromeTrace, writeJsonl) and the
// daemon's flight dumps (obs/Flight.h) are thin callers of it.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_OBS_EXPORT_H
#define SHARPIE_OBS_EXPORT_H

#include "obs/Obs.h"

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace sharpie {
namespace obs {

/// Escapes \p S for inclusion in a JSON string literal (quotes, backslash,
/// control characters).
std::string jsonEscape(const std::string &S);

/// One process of a trace document: a whole run, or one daemon request.
struct TraceProcess {
  uint64_t Pid = 1;
  /// Empty for a whole run, whose Chrome rows open with a thread_name row
  /// per worker track. A request's label (e.g. "r17 verified (a1b2...)")
  /// instead opens them with one process_name row, and its JSONL lines
  /// lead with "request": Pid.
  std::string Label;
  const std::vector<Event> *Events = nullptr;
};

enum class TraceFormat { Chrome, Jsonl };

/// Writes \p Procs as one document in \p Format, handing it to \p Emit
/// piece by piece (one row at a time, so a file sink never holds the
/// whole document).
void writeTraceDocument(const std::vector<TraceProcess> &Procs,
                        TraceFormat Format,
                        const std::function<void(const std::string &)> &Emit);

/// Writes the Chrome trace-event JSON document for \p T to \p Out.
void writeChromeTrace(const Tracer &T, FILE *Out);

/// Writes the merged event stream as JSON Lines to \p Out.
void writeJsonl(const Tracer &T, FILE *Out);

/// The deterministic skeleton of the merged stream:
///   "B w<rank> <name>[ | <detail>]"   span begin
///   "E w<rank> <name>"                span end
///   "C w<rank> <name> = <total>"      counter (running total)
///   "I w<rank> <name>[ | <detail>][ = <value>]"  instant
std::vector<std::string> eventSkeleton(const Tracer &T);

} // namespace obs
} // namespace sharpie

#endif // SHARPIE_OBS_EXPORT_H
