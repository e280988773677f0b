//===- obs/Flight.h - Continuous flight recorder for the daemon -*- C++ -*-===//
//
// Part of sharpie. Post-hoc debugging for the serving stack: the daemon
// traces every request into its per-request Tracer anyway (bounded by
// TracerConfig::MaxEvents); when the request finishes, its event stream
// is captured into this bounded ring buffer. A `dump_trace` wire op then
// renders the retained requests as one Perfetto-loadable Chrome
// trace-event document (one process per request, tracks per worker, all
// pinned to t=0 at request arrival) or as JSONL -- so a slow or wedged
// request from five minutes ago can be inspected without tracing having
// been pre-enabled.
//
// Memory is fixed by construction: at most Capacity requests are
// retained, each truncated to MaxEventsPerRequest events with details
// clipped to MaxDetailBytes. memoryCeilingBytes() is the hard bound the
// bench asserts; approxBytes() the live footprint estimate.
//
// Event::Name pointers are static string literals by the obs layer's
// contract (span/counter identity), so retaining events beyond their
// tracer's lifetime is safe; Detail strings are owned copies.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_OBS_FLIGHT_H
#define SHARPIE_OBS_FLIGHT_H

#include "obs/Obs.h"

#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace sharpie {
namespace obs {

/// One retained request: identity, verdict, and the deterministic event
/// stream (with timestamps relative to request arrival).
struct FlightRecord {
  uint64_t RequestId = 0;
  std::string Hash;    ///< Canonical problem hash; empty on parse errors.
  std::string Outcome; ///< outcomeName() of the request's result.
  double TotalSeconds = 0;
  /// Events discarded before capture (tracer MaxEvents cap) plus events
  /// clipped by the recorder's own MaxEventsPerRequest truncation.
  uint64_t DroppedEvents = 0;
  std::vector<Event> Events;
};

class FlightRecorder {
public:
  struct Config {
    size_t Capacity = 32;             ///< Requests retained; 0 disables.
    size_t MaxEventsPerRequest = 4096;
    size_t MaxDetailBytes = 96;       ///< Detail strings clipped to this.
  };

  explicit FlightRecorder(Config C) : Cfg(C) {}

  const Config &config() const { return Cfg; }

  /// Truncates \p R to the per-request limits and appends it, evicting
  /// the oldest record when the ring is full. No-op when Capacity is 0.
  void record(FlightRecord R);

  /// The retained records, oldest first. \p RequestId 0 returns all;
  /// otherwise only the matching record (empty when not retained).
  std::vector<FlightRecord> dump(uint64_t RequestId = 0) const;

  size_t retained() const;

  /// Estimated bytes currently held by the retained event streams.
  size_t approxBytes() const;

  /// The fixed upper bound implied by the configuration -- what
  /// approxBytes() can never exceed.
  size_t memoryCeilingBytes() const;

  /// Estimated footprint of one retained event (struct + clipped detail).
  static size_t eventBytes(const Event &E);

private:
  Config Cfg;
  mutable std::mutex Mu;
  std::deque<FlightRecord> Ring;
  size_t Bytes = 0; ///< Sum of eventBytes over Ring.
};

/// Renders \p Records as one Chrome trace-event / Perfetto JSON document:
/// pid = request id (with process_name metadata naming the request and
/// its outcome), tid = worker rank, ts relative to each request's
/// arrival. Loadable in ui.perfetto.dev. Both renderers here are callers
/// of obs::writeTraceDocument (obs/Export.h), the one event formatter.
std::string renderFlightTrace(const std::vector<FlightRecord> &Records);

/// Renders \p Records as JSON Lines, one event per line, each carrying
/// its request id.
std::string renderFlightJsonl(const std::vector<FlightRecord> &Records);

} // namespace obs
} // namespace sharpie

#endif // SHARPIE_OBS_FLIGHT_H
