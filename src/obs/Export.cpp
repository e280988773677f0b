//===- obs/Export.cpp - Trace sinks: Chrome trace, JSONL, skeleton ------------===//
//
// Part of sharpie. See Export.h.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"

#include <set>

using namespace sharpie;
using namespace sharpie::obs;

std::string sharpie::obs::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

/// A timestamp as every row prints it: microseconds, three decimals.
std::string micros(double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Us);
  return Buf;
}

const char *kindName(EventKind K) {
  switch (K) {
  case EventKind::SpanBegin:
    return "begin";
  case EventKind::SpanEnd:
    return "end";
  case EventKind::Counter:
    return "counter";
  case EventKind::Instant:
    return "instant";
  }
  return "?";
}

/// One Chrome trace-event object for \p E on process \p Pid.
std::string chromeEvent(const Event &E, uint64_t Pid) {
  static const char Phase[] = {'B', 'E', 'C', 'i'}; // By EventKind.
  std::string Out = std::string("{\"ph\":\"") +
                    Phase[static_cast<int>(E.Kind)] +
                    "\",\"pid\":" + std::to_string(Pid) +
                    ",\"tid\":" + std::to_string(E.Worker) +
                    ",\"ts\":" + micros(E.TimeUs) + ",";
  std::string Name = jsonEscape(E.Name);
  switch (E.Kind) {
  case EventKind::SpanBegin:
    Out += "\"cat\":\"sharpie\",\"name\":\"" + Name + "\"";
    if (!E.Detail.empty())
      Out += ",\"args\":{\"detail\":\"" + jsonEscape(E.Detail) + "\"}";
    return Out + "}";
  case EventKind::SpanEnd:
    return Out + "\"cat\":\"sharpie\",\"name\":\"" + Name + "\"}";
  case EventKind::Counter:
    // Per-worker counter tracks: suffix the name with the rank so the
    // running totals do not overwrite each other in the viewer.
    return Out + "\"name\":\"" + Name + " (w" + std::to_string(E.Worker) +
           ")\",\"args\":{\"value\":" + std::to_string(E.Value) + "}}";
  case EventKind::Instant:
    return Out + "\"s\":\"t\",\"name\":\"" + Name +
           "\",\"args\":{\"detail\":\"" + jsonEscape(E.Detail) +
           "\",\"value\":" + std::to_string(E.Value) + "}}";
  }
  return Out;
}

/// One JSON Lines record for \p E, led by "request": Pid when \p Request.
std::string jsonlEvent(const Event &E, bool Request, uint64_t Pid) {
  return std::string("{") +
         (Request ? "\"request\":" + std::to_string(Pid) + "," : "") +
         "\"kind\":\"" + kindName(E.Kind) +
         "\",\"worker\":" + std::to_string(E.Worker) + ",\"name\":\"" +
         jsonEscape(E.Name) + "\",\"detail\":\"" + jsonEscape(E.Detail) +
         "\",\"value\":" + std::to_string(E.Value) +
         ",\"ts_us\":" + micros(E.TimeUs) + "}\n";
}

void writeRun(const Tracer &T, TraceFormat Format, FILE *Out) {
  std::vector<Event> Events = T.mergedEvents();
  TraceProcess P;
  P.Events = &Events;
  writeTraceDocument({P}, Format, [Out](const std::string &S) {
    std::fwrite(S.data(), 1, S.size(), Out);
  });
}

} // namespace

void sharpie::obs::writeTraceDocument(
    const std::vector<TraceProcess> &Procs, TraceFormat Format,
    const std::function<void(const std::string &)> &Emit) {
  if (Format == TraceFormat::Jsonl) {
    for (const TraceProcess &P : Procs)
      for (const Event &E : *P.Events)
        Emit(jsonlEvent(E, !P.Label.empty(), P.Pid));
    return;
  }
  Emit("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const char *Sep = "\n";
  auto Row = [&](const std::string &Obj) {
    Emit(Sep + Obj);
    Sep = ",\n";
  };
  for (const TraceProcess &P : Procs) {
    std::string Pid = std::to_string(P.Pid);
    if (!P.Label.empty()) {
      Row("{\"ph\":\"M\",\"pid\":" + Pid +
          ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
          jsonEscape(P.Label) + "\"}}");
    } else {
      // Name each worker's track; ranks appear in ascending order so
      // Perfetto lists the driver (rank 0) first.
      std::set<uint32_t> Ranks;
      for (const Event &E : *P.Events)
        Ranks.insert(E.Worker);
      for (uint32_t R : Ranks)
        Row("{\"ph\":\"M\",\"pid\":" + Pid + ",\"tid\":" + std::to_string(R) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"worker " +
            std::to_string(R) + "\"}}");
    }
    for (const Event &E : *P.Events)
      Row(chromeEvent(E, P.Pid));
  }
  Emit("\n]}\n");
}

void sharpie::obs::writeChromeTrace(const Tracer &T, FILE *Out) {
  writeRun(T, TraceFormat::Chrome, Out);
}

void sharpie::obs::writeJsonl(const Tracer &T, FILE *Out) {
  writeRun(T, TraceFormat::Jsonl, Out);
}

std::vector<std::string> sharpie::obs::eventSkeleton(const Tracer &T) {
  std::vector<std::string> Out;
  for (const Event &E : T.mergedEvents()) {
    std::string L;
    switch (E.Kind) {
    case EventKind::SpanBegin:
      L = "B w" + std::to_string(E.Worker) + " " + E.Name;
      if (!E.Detail.empty())
        L += " | " + E.Detail;
      break;
    case EventKind::SpanEnd:
      L = "E w" + std::to_string(E.Worker) + " " + E.Name;
      break;
    case EventKind::Counter:
      L = "C w" + std::to_string(E.Worker) + " " + E.Name + " = " +
          std::to_string(E.Value);
      break;
    case EventKind::Instant:
      L = "I w" + std::to_string(E.Worker) + " " + E.Name;
      if (!E.Detail.empty())
        L += " | " + E.Detail;
      L += " = " + std::to_string(E.Value);
      break;
    }
    Out.push_back(std::move(L));
  }
  return Out;
}
