//===- serve/Server.h - The sharpied verification server --------*- C++ -*-===//
//
// Part of sharpie. The long-running daemon behind `sharpied`: accepts
// line-delimited JSON requests (serve/Proto.h) over a Unix or TCP
// socket, runs verifications on a warm engine::ThreadPool, and answers
// from / feeds the persistent two-tier result store (serve/Store.h).
//
// Layering: the socket front end is a thin shell -- every operation is
// also a plain method (verify(), handle(), statusJson(), ...) so the
// tests drive a Server in-process with no sockets or subprocesses, and
// the request semantics cannot drift from the wire semantics.
//
// Concurrency model: one OS thread per accepted connection does framing
// only; verify work is submitted to the request pool (RequestWorkers
// threads, warm for the daemon's lifetime). While a verify is in
// flight its connection thread polls the socket; EOF (client gone)
// cancels the request's engine::CancellationToken, which the synthesis
// observes at every budget poll (SynthOptions::Cancel) -- a disconnected
// client stops burning CPU within one poll interval. Each request gets
// its own obs::Tracer (log lines tagged "r<id>") and SynthOptions; the
// shared state is the store, the cross-request reduce cache, and the
// counters, each behind its own lock.
//
// Telemetry (always on; FlightCapacity = 0 turns event capture off):
//
//   * every finished request folds its per-request MetricsSummary into
//     the process-wide obs::MetricsRegistry, labeled by outcome and by
//     the cache tier that answered it; the `metrics` op exposes the
//     cumulative state as JSON or Prometheus text;
//   * every request's event stream is captured into a bounded
//     obs::FlightRecorder (fixed memory: ring of FlightCapacity
//     requests, MaxEvents-capped tracers), dumped by `dump_trace`;
//   * with --access-log, one structured JSON line per finished request;
//   * with --slow-request-seconds, a watchdog thread flags requests
//     exceeding the threshold while still running (access-log line with
//     the live phase) and the owner thread stamps a `slow_request`
//     instant into the trace at completion.
//
// The per-request tracer respects the obs single-owner rule: the
// watchdog never touches TraceBuffers, only the request's atomics in
// the live-request table.
//
// Overload discipline: quantified-SMT check times are long-tailed
// -- a single request can legitimately run for minutes -- so the daemon
// must bound what it promises:
//
//   * admission control: at most RequestWorkers + QueueDepth verify
//     requests are admitted (executing + waiting). Excess requests are
//     shed *on the connection thread*, before ever touching the pool
//     queue, with a structured overloaded response whose retry_after_ms
//     hint comes from the observed mean service time times the queue
//     excess (cheap ops -- status, health, metrics -- are also answered
//     on the connection thread, so introspection stays responsive while
//     every worker is busy);
//   * deadline propagation: a request's clock starts at *admission*, so
//     queue wait counts against MaxRequestSeconds. What is left when a
//     worker picks the request up becomes its synthesis budget; a
//     request whose deadline expired while queued is rejected without
//     burning the worker (disposition "deadline");
//   * graceful drain: requestShutdown() (SIGTERM/SIGINT) stops
//     admissions ("draining" sheds), lets in-flight work finish for
//     DrainTimeoutSeconds, then cancels the stragglers through their
//     registered cancellation tokens, flushes the store and the access
//     log, and serve() returns so the driver can exit 0;
//   * fault injection: Opts.Faults scripts the serve-layer sites
//     (accept / wire_read / wire_write via a mutex-wrapped
//     FaultInjector, store_read / store_write via the store's fault
//     hook), and the store's circuit breaker (serve/Store.h) keeps a
//     corrupting disk from taxing the request path.
//
// Every terminal path writes an access-log line with a `disposition`
// field: ok, shed, draining, deadline, cancelled, drain_cancelled.
//
//===----------------------------------------------------------------------===//

#ifndef SHARPIE_SERVE_SERVER_H
#define SHARPIE_SERVE_SERVER_H

#include "engine/Pool.h"
#include "obs/Flight.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "resil/Fault.h"
#include "serve/Proto.h"
#include "serve/Store.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace sharpie {
namespace serve {

struct ServerOptions {
  /// Store directory; empty runs the daemon memory-only (tier 2 still
  /// warms across requests in-process, nothing persists).
  std::string StoreDir;
  /// Verify requests processed concurrently (the warm pool's size).
  unsigned RequestWorkers = 2;
  /// Cap on a single request's synthesis workers; requests asking for
  /// more (or for 0 = all cores) are clamped to this.
  unsigned SynthWorkers = 1;
  /// Hard ceiling on any request's time budget; 0 = no ceiling. A
  /// request with no budget of its own gets exactly this ceiling.
  double MaxRequestSeconds = 0;
  obs::LogLevel Level = obs::LogLevel::Quiet;

  /// Structured access log: one JSON line per finished request (plus
  /// watchdog slow-request lines). Empty = disabled; "-" = stderr.
  std::string AccessLogPath;
  /// Requests running longer than this are flagged by the watchdog and
  /// stamped with a slow_request instant. 0 = watchdog disabled.
  double SlowRequestSeconds = 0;
  /// Requests retained by the flight recorder; 0 disables event
  /// capture entirely (metrics still aggregate).
  size_t FlightCapacity = 32;

  /// Admission queue depth: verify requests allowed to *wait* behind a
  /// fully busy pool. Total admitted capacity is RequestWorkers +
  /// QueueDepth; anything past that is shed with retry_after_ms.
  unsigned QueueDepth = 8;
  /// Graceful drain: seconds in-flight requests get to finish after
  /// shutdown before their cancellation tokens fire. 0 = cancel
  /// immediately.
  double DrainTimeoutSeconds = 5.0;
  /// Serve-layer fault plan (resil/Fault.h grammar over the sites
  /// accept / wire_read / wire_write / store_read / store_write).
  /// Empty = no injection. Chaos-test only.
  std::string Faults;
  /// Store circuit-breaker tuning (threshold/cooldown).
  ResultStore::Tuning StoreTuning;
};

class Server {
public:
  explicit Server(ServerOptions O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  // -- In-process API --------------------------------------------------------

  /// Runs one verify request start to finish on the calling thread
  /// (parse, tier-1 lookup, synthesis, store write-back). \p Cancel,
  /// when non-null, aborts the synthesis cooperatively. \p Arrival,
  /// when set, is the admission time: the elapsed queue wait is charged
  /// against MaxRequestSeconds and an already-expired deadline rejects
  /// the request without solving (default = now, i.e. no queue wait).
  VerifyResponse verify(const VerifyRequest &R,
                        const engine::CancellationToken *Cancel = nullptr,
                        std::chrono::steady_clock::time_point Arrival =
                            std::chrono::steady_clock::time_point{});

  /// Dispatches one decoded request to its handler; always returns a
  /// response object (unknown ops get {"ok":false,"error":...}).
  /// Bypasses admission control -- the direct entry for tests and for
  /// already-admitted pool work.
  Json handle(const Json &Request,
              const engine::CancellationToken *Cancel = nullptr);

  /// The full daemon request path minus the socket: cheap ops inline,
  /// verify through admission control + the warm pool, sheds when the
  /// queue is full or the server is draining. What handleConnection()
  /// runs per line; public so tests drive overload and drain
  /// in-process.
  Json dispatch(const Json &Request);

  Json statusJson() const;
  Json cacheStatsJson() const;

  /// The `health` op: ready/draining/overloaded, admission load, store
  /// breaker state. Lock-light by design (atomics + one store mutex).
  Json healthJson() const;

  /// The `metrics` op: cumulative request counts/seconds by
  /// outcome x cache tier, counter sums, merged histograms, gauges.
  Json metricsJson() const;
  /// Prometheus text exposition of the same state.
  std::string metricsProm() const;
  /// Point-in-time server gauges (in-flight, queue depth, pool
  /// utilization, store sizes, flight-recorder footprint, ...).
  std::vector<obs::PromGauge> gauges() const;

  /// The `dump_trace` op: flight-recorder contents as a Perfetto trace
  /// document or JSONL. \p RequestId 0 = all retained requests.
  Json dumpTraceJson(uint64_t RequestId = 0,
                     const std::string &Format = "perfetto") const;

  ResultStore &store() { return Store; }
  const obs::MetricsRegistry &registry() const { return Registry; }
  const obs::FlightRecorder &flight() const { return Flight; }
  uint64_t slowRequests() const { return SlowRequests.load(); }

  void requestShutdown();
  bool shutdownRequested() const { return ShutdownFlag.load(); }

  /// Graceful drain (idempotent): stop admitting, wait up to
  /// DrainTimeoutSeconds for admitted requests, cancel the stragglers,
  /// wait for them to observe it, flush store + access log. serve()
  /// runs this after the accept loop; in-process tests call it
  /// directly.
  void drain();
  bool draining() const { return DrainingFlag.load(); }

  /// Verify requests currently admitted (queued + executing).
  uint64_t admitted() const { return Admitted.load(); }
  /// RequestWorkers + QueueDepth.
  unsigned admissionCapacity() const;
  /// The backoff hint a shed response would carry right now.
  int64_t retryAfterMsHint() const;

  // -- Socket front end ------------------------------------------------------

  /// Binds and listens on \p A. Returns false with \p Err on failure.
  /// For TCP port 0 the kernel-assigned port is reflected into
  /// boundAddress().
  bool listen(const Addr &A, std::string &Err);

  /// The address actually bound ("unix:<path>" or "<host>:<port>");
  /// empty before listen().
  const std::string &boundAddress() const { return Bound; }

  /// Accept loop; returns after requestShutdown() (checked a few times a
  /// second) once in-flight connections finish.
  void serve();

private:
  /// Watchdog's view of a running request. The owning request thread
  /// publishes its current phase; the watchdog only reads/writes these
  /// atomics (never the request's TraceBuffers).
  struct LiveRequest {
    uint64_t Id = 0;
    std::chrono::steady_clock::time_point Start;
    std::atomic<const char *> Phase{"request"};
    std::atomic<bool> Slow{false};
    /// Phase observed by the watchdog when it flagged the request.
    std::atomic<const char *> SlowPhase{nullptr};
  };

  void handleConnection(int Fd);
  VerifyResponse verifyImpl(uint64_t Id, const VerifyRequest &Req,
                            const engine::CancellationToken *Cancel,
                            obs::Tracer &Tracer, obs::TraceBuffer *TB,
                            std::chrono::steady_clock::time_point T0,
                            LiveRequest &Live, double &ParseSeconds,
                            double &SynthSeconds, unsigned &SynthWorkers,
                            std::chrono::steady_clock::time_point Arrival);
  void writeAccessLine(const std::string &Line);
  void watchdogLoop();
  static obs::Outcome outcomeForExit(int Exit);

  /// Builds the structured shed response (exit 5, retry_after_ms) and
  /// writes its access-log line. \p Why is "shed" or "draining".
  Json shedResponse(const char *Why);
  /// Mutex-wrapped serve-site fault decision; FaultKind::None when no
  /// plan is installed or the site doesn't fire. Latency faults sleep
  /// here (outside every lock) and then report None.
  resil::FaultKind serveFault(const char *Site);
  /// Registers/unregisters a cancellable in-flight request so drain()
  /// can reach it.
  uint64_t registerToken(std::shared_ptr<engine::CancellationToken> T);
  void unregisterToken(uint64_t Id);
  /// Folds newly observed store breaker trips into the registry
  /// (called from non-const request paths; the registry counter backs
  /// ctr_breaker_trips).
  void syncBreakerTrips();

  ServerOptions Opts;
  ResultStore Store;
  /// Cross-request reduce cache (tier 2), content-keyed, so every request
  /// thread and tuple attempt shares it; loaded from / saved to the store
  /// around each uncached solve.
  engine::ReduceCache RC;
  engine::ThreadPool Pool;

  obs::MetricsRegistry Registry;
  obs::FlightRecorder Flight;
  FILE *AccessLog = nullptr;
  bool OwnAccessLog = false; ///< False when AccessLog is stderr.
  std::mutex AccessLogMu;
  std::atomic<uint64_t> SlowRequests{0};

  mutable std::mutex LiveMu;
  std::map<uint64_t, LiveRequest *> Live;
  std::thread Watchdog;
  std::mutex WatchdogMu;
  std::condition_variable WatchdogCV;
  bool WatchdogStop = false;

  std::atomic<bool> ShutdownFlag{false};
  std::atomic<bool> DrainingFlag{false};
  std::atomic<bool> Drained{false}; ///< drain() already ran to the end.
  std::atomic<uint64_t> NextRequestId{1};
  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> InFlight{0};
  std::chrono::steady_clock::time_point Start;

  /// Admission accounting: verify requests admitted and not yet done
  /// (queued + executing); dispatch() sheds when a fetch_add would pass
  /// admissionCapacity().
  std::atomic<uint64_t> Admitted{0};
  /// Completed-request service time (microseconds / count) feeding the
  /// retry_after_ms estimate. Atomics: touched once per request.
  std::atomic<uint64_t> ServiceMicros{0};
  std::atomic<uint64_t> ServiceCount{0};

  /// In-flight cancellation tokens, so drain() can cancel work it did
  /// not start. Keyed by a private id (not the request id: tokens are
  /// registered before the request id exists).
  std::mutex TokMu;
  std::map<uint64_t, std::shared_ptr<engine::CancellationToken>> LiveToks;
  uint64_t NextTokId = 1;

  /// Serve-layer fault injection (sites accept/wire_read/wire_write and
  /// the store hook). One injector for the whole daemon behind a mutex:
  /// FaultInjector is single-owner by contract, and these sites are off
  /// the synthesis hot path.
  std::mutex FaultMu;
  std::optional<resil::FaultInjector> ServeInj;

  std::mutex TripsMu;
  uint64_t BreakerTripsSeen = 0;

  /// Corrupt-store note from the startup tier-2 load; shown in status.
  std::string StartupNote;

  int ListenFd = -1;
  std::string Bound;
  std::string UnixPath; ///< For unlink on shutdown.
  std::vector<std::thread> Conns;
  std::mutex ConnsMu;
};

} // namespace serve
} // namespace sharpie

#endif // SHARPIE_SERVE_SERVER_H
