//===- obs/Cli.h - Shared observability wiring for CLI drivers --*- C++ -*-===//
//
// Part of sharpie. The `sharpie` driver's observability surface:
//
//   --trace-out FILE    Chrome trace-event / Perfetto JSON
//   --events-out FILE   JSONL event stream
//   --log-level LVL     quiet|info|debug|trace
//   --stats             per-phase stats table on stderr after the run
//
// This helper owns the flag parsing, tracer construction and sink writing
// so a driver stays thin. Flags are the only spelling: no environment
// variable turns tracing on.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_OBS_CLI_H
#define SHARPIE_OBS_CLI_H

#include "obs/Obs.h"

#include <memory>
#include <string>

namespace sharpie {
namespace obs {

struct CliObs {
  std::string TraceOut;  ///< Chrome trace path; empty = off.
  std::string EventsOut; ///< JSONL path; empty = off.
  LogLevel Level = LogLevel::Quiet;
  bool Stats = false;

  /// Consumes argv[I] when it is one of the observability flags (advancing
  /// \p I past a flag's value). Returns false for a foreign argument; on a
  /// malformed value (e.g. --log-level typo) returns true with \p Err set.
  bool parseArg(int argc, char **argv, int &I, std::string &Err);

  /// True when any sink is configured (so a tracer is worth creating).
  bool enabled() const {
    return Stats || Level != LogLevel::Quiet || !TraceOut.empty() ||
           !EventsOut.empty();
  }

  /// Builds the tracer for the configuration: log level as given, event
  /// collection on iff a trace/events file was requested. Returns null
  /// when enabled() is false -- the caller passes the null straight into
  /// SynthOptions::Trace and the pipeline stays on the zero-cost path.
  std::unique_ptr<Tracer> makeTracer() const;

  /// Writes the configured trace/JSONL files. Returns false with \p Err
  /// set on an I/O failure.
  bool writeOutputs(const Tracer &T, std::string &Err) const;

  /// The usage-line fragment for a driver's --help output.
  static const char *usageFragment() {
    return "[--trace-out FILE] [--events-out FILE]"
           " [--log-level quiet|info|debug|trace] [--stats]";
  }
};

} // namespace obs
} // namespace sharpie

#endif // SHARPIE_OBS_CLI_H
