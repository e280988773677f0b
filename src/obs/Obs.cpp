//===- obs/Obs.cpp - Structured tracing & metrics for #Pi ---------------------===//
//
// Part of sharpie. See Obs.h.
//
//===----------------------------------------------------------------------===//

#include "obs/Obs.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdarg>

using namespace sharpie;
using namespace sharpie::obs;

const char *sharpie::obs::logLevelName(LogLevel L) {
  switch (L) {
  case LogLevel::Quiet:
    return "quiet";
  case LogLevel::Info:
    return "info";
  case LogLevel::Debug:
    return "debug";
  case LogLevel::Trace:
    return "trace";
  }
  return "?";
}

std::optional<LogLevel> sharpie::obs::parseLogLevel(std::string_view Name) {
  if (Name == "quiet")
    return LogLevel::Quiet;
  if (Name == "info")
    return LogLevel::Info;
  if (Name == "debug")
    return LogLevel::Debug;
  if (Name == "trace")
    return LogLevel::Trace;
  return std::nullopt;
}

// -- HistSummary -------------------------------------------------------------

unsigned HistSummary::bucketFor(double V) {
  if (!(V > bucketUpperBound(0)))
    return 0; // Includes NaN and everything at or below 2^MinExp.
  int E = 0;
  double Mant = std::frexp(V, &E); // V = Mant * 2^E, Mant in [0.5, 1).
  // frexp(2^k) yields (0.5, k+1); the bucket upper bound is inclusive,
  // so an exact power of two belongs one bucket lower.
  if (Mant == 0.5)
    --E;
  long B = static_cast<long>(E) - MinExp;
  if (B < 0)
    return 0;
  if (B >= static_cast<long>(NumBuckets))
    return NumBuckets - 1;
  return static_cast<unsigned>(B);
}

double HistSummary::bucketUpperBound(unsigned B) {
  return std::ldexp(1.0, static_cast<int>(B) + MinExp);
}

double HistSummary::percentileFromBuckets(double Q) const {
  if (!Count)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil(Q * static_cast<double>(Count)));
  if (Rank == 0)
    Rank = 1;
  uint64_t Cum = 0;
  for (unsigned B = 0; B < NumBuckets; ++B) {
    Cum += Buckets[B];
    if (Cum >= Rank)
      return std::min(Max, std::max(Min, bucketUpperBound(B)));
  }
  return Max;
}

void HistSummary::merge(const HistSummary &O) {
  if (!O.Count)
    return;
  Min = Count ? std::min(Min, O.Min) : O.Min;
  Max = Count ? std::max(Max, O.Max) : O.Max;
  Count += O.Count;
  Sum += O.Sum;
  for (unsigned B = 0; B < NumBuckets; ++B)
    Buckets[B] += O.Buckets[B];
  P50 = percentileFromBuckets(0.50);
  P90 = percentileFromBuckets(0.90);
  P99 = percentileFromBuckets(0.99);
}

const int64_t *MetricsSummary::counter(std::string_view Name) const {
  for (const auto &[N, V] : Counters)
    if (N == Name)
      return &V;
  return nullptr;
}

const HistSummary *MetricsSummary::hist(std::string_view Name) const {
  for (const auto &[N, H] : Hists)
    if (N == Name)
      return &H;
  return nullptr;
}

SpanTotal MetricsSummary::span(std::string_view Name) const {
  for (const auto &[N, S] : Spans)
    if (N == Name)
      return S;
  return {};
}

// -- TraceBuffer -------------------------------------------------------------

bool TraceBuffer::eventsEnabled() const { return T.Cfg.CollectEvents; }

bool TraceBuffer::admitEvent() {
  if (!eventsEnabled())
    return false;
  if (T.Cfg.MaxEvents && Events.size() >= T.Cfg.MaxEvents) {
    ++Dropped;
    return false;
  }
  return true;
}

double TraceBuffer::begin(const char *Name, std::string Detail) {
  double Now = T.microsSinceEpoch();
  if (admitEvent())
    Events.push_back(
        {EventKind::SpanBegin, Worker, Name, std::move(Detail), 0, Now});
  return Now;
}

double TraceBuffer::end(const char *Name, double BeganUs) {
  double Now = T.microsSinceEpoch();
  double Seconds = (Now - BeganUs) * 1e-6;
  SpanTotal &S = Spans[Name];
  ++S.Count;
  S.Seconds += Seconds;
  if (admitEvent())
    Events.push_back({EventKind::SpanEnd, Worker, Name, {}, 0, Now});
  return Seconds;
}

double TraceBuffer::secondsSince(double BeganUs) const {
  return (T.microsSinceEpoch() - BeganUs) * 1e-6;
}

void TraceBuffer::counter(const char *Name, int64_t Delta) {
  int64_t Total = (Counters[Name] += Delta);
  if (!admitEvent())
    return;
  Events.push_back(
      {EventKind::Counter, Worker, Name, {}, Total, T.microsSinceEpoch()});
}

void TraceBuffer::sample(const char *Name, double Value) {
  Hists[Name].push_back(Value);
}

void TraceBuffer::instant(const char *Name, std::string Detail,
                          int64_t Value) {
  if (!admitEvent())
    return;
  Events.push_back({EventKind::Instant, Worker, Name, std::move(Detail),
                    Value, T.microsSinceEpoch()});
}

bool TraceBuffer::logEnabled(LogLevel L) const {
  return static_cast<int>(L) <= static_cast<int>(T.Cfg.Level) &&
         L != LogLevel::Quiet;
}

void TraceBuffer::logf(LogLevel L, const char *Fmt, ...) {
  if (!logEnabled(L))
    return;
  char Buf[4096];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  T.writeLogLine(L, Worker, Buf);
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer(TracerConfig Cfg)
    : Cfg(Cfg), Epoch(Cfg.EpochAt ? *Cfg.EpochAt
                                  : std::chrono::steady_clock::now()) {}

Tracer::~Tracer() = default;

TraceBuffer *Tracer::worker(unsigned Rank) {
  std::lock_guard<std::mutex> L(Mu);
  std::unique_ptr<TraceBuffer> &B = Buffers[Rank];
  if (!B)
    B.reset(new TraceBuffer(*this, Rank));
  return B.get();
}

double Tracer::microsSinceEpoch() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void Tracer::writeLogLine(LogLevel L, unsigned Worker, const char *Text) {
  std::lock_guard<std::mutex> Lk(Mu);
  FILE *Out = Cfg.LogStream ? Cfg.LogStream : stderr;
  std::fprintf(Out, "[%c%s%s w%u] %s\n", std::toupper(logLevelName(L)[0]),
               Cfg.LogPrefix.empty() ? "" : " ", Cfg.LogPrefix.c_str(), Worker,
               Text);
  std::fflush(Out);
}

uint64_t Tracer::droppedEvents() const {
  std::lock_guard<std::mutex> L(Mu);
  uint64_t N = 0;
  for (const auto &[Rank, B] : Buffers)
    N += B->Dropped;
  return N;
}

std::vector<Event> Tracer::mergedEvents() const {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<Event> Out;
  for (const auto &[Rank, B] : Buffers) // std::map: ascending rank order.
    Out.insert(Out.end(), B->Events.begin(), B->Events.end());
  return Out;
}

namespace {

HistSummary summarize(std::vector<double> Samples) {
  HistSummary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Min = Samples.front();
  S.Max = Samples.back();
  for (double V : Samples) {
    S.Sum += V;
    ++S.Buckets[HistSummary::bucketFor(V)];
  }
  // Nearest-rank: the sample at 1-based rank ceil(Q * n). Exact here (the
  // samples are at hand); HistSummary::merge() approximates the same
  // definition from the buckets.
  auto Pct = [&](double Q) {
    size_t R = static_cast<size_t>(
        std::ceil(Q * static_cast<double>(Samples.size())));
    if (R == 0)
      R = 1;
    return Samples[R - 1];
  };
  S.P50 = Pct(0.50);
  S.P90 = Pct(0.90);
  S.P99 = Pct(0.99);
  return S;
}

} // namespace

MetricsSummary Tracer::metrics() const {
  std::lock_guard<std::mutex> L(Mu);
  std::map<std::string, int64_t> Counters;
  std::map<std::string, std::vector<double>> Hists;
  std::map<std::string, SpanTotal> Spans;
  for (const auto &[Rank, B] : Buffers) {
    for (const auto &[N, V] : B->Counters)
      Counters[N] += V;
    for (const auto &[N, S] : B->Spans) {
      SpanTotal &Dst = Spans[N];
      Dst.Count += S.Count;
      Dst.Seconds += S.Seconds;
    }
    for (const auto &[N, Samples] : B->Hists) {
      std::vector<double> &Dst = Hists[N];
      Dst.insert(Dst.end(), Samples.begin(), Samples.end());
    }
  }
  MetricsSummary Out;
  for (auto &[N, V] : Counters)
    Out.Counters.emplace_back(N, V);
  for (auto &[N, Samples] : Hists)
    Out.Hists.emplace_back(N, summarize(std::move(Samples)));
  Out.Spans.assign(Spans.begin(), Spans.end());
  return Out;
}
