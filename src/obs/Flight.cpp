//===- obs/Flight.cpp - Continuous flight recorder for the daemon -------------===//
//
// Part of sharpie. See Flight.h.
//
//===----------------------------------------------------------------------===//

#include "obs/Flight.h"

#include "obs/Export.h"

using namespace sharpie;
using namespace sharpie::obs;

size_t FlightRecorder::eventBytes(const Event &E) {
  return sizeof(Event) + E.Detail.capacity();
}

void FlightRecorder::record(FlightRecord R) {
  if (!Cfg.Capacity)
    return;
  if (R.Events.size() > Cfg.MaxEventsPerRequest) {
    R.DroppedEvents += R.Events.size() - Cfg.MaxEventsPerRequest;
    R.Events.resize(Cfg.MaxEventsPerRequest);
  }
  size_t NewBytes = 0;
  for (Event &E : R.Events) {
    if (E.Detail.size() > Cfg.MaxDetailBytes)
      E.Detail.resize(Cfg.MaxDetailBytes);
    if (E.Detail.capacity() > Cfg.MaxDetailBytes)
      E.Detail.shrink_to_fit();
    NewBytes += eventBytes(E);
  }
  R.Events.shrink_to_fit();
  std::lock_guard<std::mutex> L(Mu);
  while (Ring.size() >= Cfg.Capacity) {
    for (const Event &E : Ring.front().Events)
      Bytes -= eventBytes(E);
    Ring.pop_front();
  }
  Bytes += NewBytes;
  Ring.push_back(std::move(R));
}

std::vector<FlightRecord> FlightRecorder::dump(uint64_t RequestId) const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<FlightRecord> Out;
  for (const FlightRecord &R : Ring)
    if (!RequestId || R.RequestId == RequestId)
      Out.push_back(R);
  return Out;
}

size_t FlightRecorder::retained() const {
  std::lock_guard<std::mutex> L(Mu);
  return Ring.size();
}

size_t FlightRecorder::approxBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return Bytes;
}

size_t FlightRecorder::memoryCeilingBytes() const {
  // Each retained event is the Event struct plus a detail string clipped
  // to MaxDetailBytes; string capacity never exceeds the pre-clip size
  // after shrink_to_fit, and small-string storage is inside the struct,
  // so a per-event allowance of MaxDetailBytes + slack covers it.
  size_t PerEvent = sizeof(Event) + Cfg.MaxDetailBytes + 32;
  return Cfg.Capacity * Cfg.MaxEventsPerRequest * PerEvent;
}

namespace {

std::string renderFlight(const std::vector<FlightRecord> &Records,
                         TraceFormat Format) {
  std::vector<TraceProcess> Procs;
  for (const FlightRecord &R : Records) {
    // Name the process after the request so the Perfetto track list reads
    // "r17 verified (a1b2c3...)".
    TraceProcess P;
    P.Pid = R.RequestId;
    P.Label = "r" + std::to_string(R.RequestId);
    if (!R.Outcome.empty())
      P.Label += " " + R.Outcome;
    if (!R.Hash.empty())
      P.Label += " (" + R.Hash.substr(0, 12) + ")";
    P.Events = &R.Events;
    Procs.push_back(std::move(P));
  }
  std::string Out;
  writeTraceDocument(Procs, Format, [&Out](const std::string &S) { Out += S; });
  return Out;
}

} // namespace

std::string
sharpie::obs::renderFlightTrace(const std::vector<FlightRecord> &Records) {
  return renderFlight(Records, TraceFormat::Chrome);
}

std::string
sharpie::obs::renderFlightJsonl(const std::vector<FlightRecord> &Records) {
  return renderFlight(Records, TraceFormat::Jsonl);
}
