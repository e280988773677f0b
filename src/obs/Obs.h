//===- obs/Obs.h - Structured tracing & metrics for #Pi ---------*- C++ -*-===//
//
// Part of sharpie. The pipeline's one observability channel: a Tracer owns
// one TraceBuffer per search worker; code holding a buffer emits
//
//   * RAII spans (obs::Span) nesting tuple -> Houdini iteration -> SMT
//     check, exported as Chrome trace-event / Perfetto tracks;
//   * counters (reduction-cache hits, axiom instantiations per CARD rule,
//     atoms dropped per Houdini iteration), merged across workers;
//   * histograms (SMT-check latency per phase, reduction latency),
//     summarized into count/min/max/percentiles;
//   * a leveled human log (quiet < info < debug < trace); a driver's
//     `--log-level debug` is the one way to see the pipeline's progress.
//
// Determinism rules (mirroring the parallel-search design, DESIGN.md):
// every event carries the *rank* of the worker that produced it, buffers
// are strictly thread-local (no lock on the hot path), and the merged
// stream orders buffers by rank, events within a buffer by emission order.
// Timestamps are recorded for the trace exporters but are excluded from
// the deterministic skeleton the golden tests pin (obs/Export.h).
//
// Costs: synth::synthesize always records metrics -- without a caller's
// tracer it runs on a private quiet one, because the counters and span
// totals are the only tally of the counts and phase times it reports
// (synth/Synth.h). On any buffer a span times itself into its name's total
// (two clock reads, one map update). Events and log lines stay opt-in:
// with events off a span buffers nothing and its lazy detail is never
// rendered. Outside a synthesis emission goes through a nullable
// TraceBuffer pointer, and a null pointer makes every span, counter,
// histogram and log macro one branch -- no allocation, no lock, no clock
// read (verified by bench/bench_obs.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_OBS_OBS_H
#define SHARPIE_OBS_OBS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sharpie {
namespace obs {

/// Human-log verbosity. Events and metrics are independent of the level;
/// the level only gates the textual log sink.
enum class LogLevel : int { Quiet = 0, Info = 1, Debug = 2, Trace = 3 };

const char *logLevelName(LogLevel L);
/// Parses "quiet" | "info" | "debug" | "trace" (case-sensitive).
std::optional<LogLevel> parseLogLevel(std::string_view Name);

enum class EventKind : uint8_t { SpanBegin, SpanEnd, Counter, Instant };

/// One buffered trace event. Name is a static string literal (span/counter
/// identity); Detail carries deterministic, human-readable arguments.
/// TimeUs is wall time relative to the tracer epoch -- nondeterministic,
/// used only by the trace exporters.
struct Event {
  EventKind Kind;
  uint32_t Worker;
  const char *Name;
  std::string Detail;
  int64_t Value = 0;
  double TimeUs = 0;
};

/// Summary of a histogram, produced at merge time. Alongside the exact
/// five-number summary it carries fixed log2-spaced bucket counts, which
/// makes two summaries *mergeable* (counts, sum, min/max and buckets all
/// add) -- the property the process-wide MetricsRegistry needs to
/// aggregate per-request summaries without retaining raw samples.
///
/// Percentiles are nearest-rank: P(q) is the smallest sample whose rank
/// r (1-based, over the sorted samples) satisfies r >= ceil(q * count).
/// For 1 sample every percentile is that sample; for 2 samples P50 is
/// the lower and P90/P99 the upper. After a merge() the percentiles are
/// recomputed from the buckets and become upper-bound approximations
/// (clamped to [Min, Max]); summarize()'s are exact.
struct HistSummary {
  /// Bucket b counts samples in (upperBound(b-1), upperBound(b)], with
  /// upperBound(b) = 2^(b + MinExp). Everything <= 2^MinExp lands in
  /// bucket 0, everything > 2^(NumBuckets-1+MinExp) in the last bucket.
  /// The range 2^-10 (~1us in ms units) .. 2^29 (~5e8) covers every
  /// latency and count histogram the pipeline emits.
  static constexpr unsigned NumBuckets = 40;
  static constexpr int MinExp = -10;

  uint64_t Count = 0;
  double Min = 0, Max = 0, Sum = 0;
  double P50 = 0, P90 = 0, P99 = 0;
  uint64_t Buckets[NumBuckets] = {};

  double mean() const { return Count ? Sum / static_cast<double>(Count) : 0; }

  /// The bucket index a sample value falls into.
  static unsigned bucketFor(double V);
  /// The inclusive upper bound of bucket \p B (2^(B + MinExp)).
  static double bucketUpperBound(unsigned B);

  /// Folds \p O into this summary (counts/sum/min/max/buckets add) and
  /// recomputes P50/P90/P99 from the merged buckets.
  void merge(const HistSummary &O);
  /// Nearest-rank percentile over the bucket counts: the upper bound of
  /// the bucket holding rank ceil(Q * Count), clamped to [Min, Max].
  double percentileFromBuckets(double Q) const;
};

/// The closed spans of one name: how many, and their summed duration.
struct SpanTotal {
  uint64_t Count = 0;
  double Seconds = 0;
};

/// Counters and span totals summed and histograms merged over all
/// workers, sorted by name so the summary itself is deterministic.
struct MetricsSummary {
  std::vector<std::pair<std::string, int64_t>> Counters;
  std::vector<std::pair<std::string, HistSummary>> Hists;
  std::vector<std::pair<std::string, SpanTotal>> Spans;

  const int64_t *counter(std::string_view Name) const;
  const HistSummary *hist(std::string_view Name) const;
  /// The total of the spans named \p Name; zero when none closed.
  SpanTotal span(std::string_view Name) const;
};

class Tracer;

/// Per-worker event/metric buffer. Strictly single-owner: exactly one
/// thread (the worker of the given rank) may emit into it; the tracer
/// merges buffers only after the owning threads joined.
class TraceBuffer {
public:
  unsigned rank() const { return Worker; }

  /// True when span/counter/instant events are buffered (a trace or event
  /// sink is attached). Metrics and span totals are always recorded.
  bool eventsEnabled() const;

  /// Span endpoints, for obs::Span: begin() reads the clock and returns
  /// the reading; end() reads it again, adds the difference to the span
  /// total of \p Name and returns it in seconds. Events carry the same
  /// readings.
  double begin(const char *Name, std::string Detail = {});
  double end(const char *Name, double BeganUs);
  double secondsSince(double BeganUs) const;
  /// Adds \p Delta to counter \p Name; the buffered event carries the
  /// post-update running total (what Chrome's counter track displays).
  void counter(const char *Name, int64_t Delta);
  /// Records a histogram sample (e.g. an SMT check latency in ms).
  /// Samples never enter the event stream: their values are wall-clock
  /// dependent and would break the deterministic skeleton.
  void sample(const char *Name, double Value);
  void instant(const char *Name, std::string Detail = {}, int64_t Value = 0);

  /// True when a message at \p L would be written by the log sink.
  bool logEnabled(LogLevel L) const;
  /// printf-style leveled log line, written immediately (mutex-guarded in
  /// the tracer) and prefixed with the level and worker rank.
  void logf(LogLevel L, const char *Fmt, ...)
      __attribute__((format(printf, 3, 4)));

private:
  friend class Tracer;
  TraceBuffer(Tracer &T, unsigned Worker) : T(T), Worker(Worker) {}

  /// True when another event may be buffered (events enabled and the
  /// MaxEvents cap, if any, not yet reached); counts the drop otherwise.
  bool admitEvent();

  Tracer &T;
  unsigned Worker;
  std::vector<Event> Events;
  uint64_t Dropped = 0; ///< Events discarded by the MaxEvents cap.
  std::map<std::string, int64_t> Counters;
  std::map<std::string, std::vector<double>> Hists;
  /// Keyed by the name literal's address; metrics() merges by name.
  std::map<const char *, SpanTotal> Spans;
};

struct TracerConfig {
  LogLevel Level = LogLevel::Quiet; ///< Human-log threshold.
  bool CollectEvents = false;       ///< Buffer events for trace export.
  FILE *LogStream = nullptr;        ///< Log sink; nullptr means stderr.
  /// Tag inserted into every log line after the level letter. The daemon
  /// sets it to the request id ("r17") so interleaved per-request tracer
  /// output stays attributable; empty adds nothing.
  std::string LogPrefix;
  /// When set, event timestamps are relative to this instant instead of
  /// the tracer's construction time. The daemon pins it to the request
  /// arrival, so flight-recorder dumps from different requests all start
  /// at t=0 and phase offsets are comparable across requests.
  std::optional<std::chrono::steady_clock::time_point> EpochAt;
  /// Per-buffer cap on buffered events; 0 = unbounded. Once a buffer is
  /// full further events are counted (droppedEvents()) but not stored --
  /// the flight recorder's fixed-memory guarantee. A truncated stream
  /// can end with unbalanced span begins; the exporters tolerate that.
  uint32_t MaxEvents = 0;
};

/// Owns the per-worker buffers and the log sink. Thread-safe operations:
/// worker() registration and log-line writing. Merging (mergedEvents,
/// metrics) must only run after every emitting thread has joined.
class Tracer {
public:
  explicit Tracer(TracerConfig Cfg = {});
  ~Tracer();

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Returns the buffer for worker \p Rank, creating it on first use.
  /// The pointer is stable for the tracer's lifetime.
  TraceBuffer *worker(unsigned Rank);

  const TracerConfig &config() const { return Cfg; }

  /// All events, buffers ordered by worker rank, events within a buffer in
  /// emission order -- the deterministic merge.
  std::vector<Event> mergedEvents() const;

  /// Counters, span totals and histograms merged over all workers.
  MetricsSummary metrics() const;

  /// Events discarded because a buffer hit Cfg.MaxEvents, summed over
  /// all workers.
  uint64_t droppedEvents() const;

  /// Microseconds since the trace epoch (construction time, or
  /// Cfg.EpochAt when set).
  double microsSinceEpoch() const;

private:
  friend class TraceBuffer;
  void writeLogLine(LogLevel L, unsigned Worker, const char *Text);

  TracerConfig Cfg;
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu; ///< Guards Buffers registration and log writes.
  std::map<unsigned, std::unique_ptr<TraceBuffer>> Buffers;
};

/// RAII span, timing itself into its buffer's total for its name until
/// close() or destruction. Null buffer => complete no-op (one branch per
/// endpoint, no clock read). The lazy detail renders only when events are
/// buffered, keeping the quiet path allocation-free.
class Span {
public:
  Span(TraceBuffer *B, const char *Name)
      : Span(B, Name, [] { return std::string(); }) {}
  template <typename DetailFn>
  Span(TraceBuffer *B, const char *Name, DetailFn &&Detail) : B(B), Name(Name) {
    if (B)
      BeganUs = B->begin(Name, B->eventsEnabled() ? Detail() : std::string());
  }
  ~Span() { close(); }

  /// Ends the span now; returns its duration in seconds (0 if null/closed).
  double close() {
    if (!B)
      return 0;
    double S = B->end(Name, BeganUs);
    B = nullptr;
    return S;
  }
  /// Seconds since the span opened, for a log line inside it (0 if null).
  double seconds() const { return B ? B->secondsSince(BeganUs) : 0; }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  TraceBuffer *B;
  const char *Name;
  double BeganUs = 0;
};

} // namespace obs
} // namespace sharpie

/// Leveled log with zero-cost gating: the format arguments are not
/// evaluated unless the buffer exists and the level is enabled, so
/// expensive renderings (logic::toString of a whole clause) stay behind
/// the check.
#define SHARPIE_LOGF(TB, LVL, ...)                                             \
  do {                                                                         \
    ::sharpie::obs::TraceBuffer *ObsTB_ = (TB);                                \
    if (ObsTB_ && ObsTB_->logEnabled(LVL))                                     \
      ObsTB_->logf(LVL, __VA_ARGS__);                                          \
  } while (0)

#endif // SHARPIE_OBS_OBS_H
