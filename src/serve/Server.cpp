//===- serve/Server.cpp - The sharpied verification server --------------------===//
//
// Part of sharpie. See Server.h.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "front/ExitCodes.h"
#include "front/Front.h"
#include "resil/Fault.h"
#include "serve/Wire.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cstring>
#include <memory>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sharpie;
using namespace sharpie::serve;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// The exit-3 response to a verify request that fails to decode.
Json badRequest(const std::string &Err) {
  VerifyResponse R;
  R.Exit = front::ExitError;
  R.Error = "error: " + Err + "\n";
  return R.encode();
}

} // namespace

Server::Server(ServerOptions O)
    : Opts(std::move(O)), Store(Opts.StoreDir),
      Pool(Opts.RequestWorkers ? Opts.RequestWorkers : 1),
      Flight(obs::FlightRecorder::Config{Opts.FlightCapacity, 4096, 96}),
      Start(std::chrono::steady_clock::now()) {
  Store.setTuning(Opts.StoreTuning);
  if (!Opts.Faults.empty()) {
    std::string FErr;
    if (auto P = resil::FaultPlan::parse(Opts.Faults, &FErr)) {
      ServeInj.emplace(std::move(*P));
      ServeInj->beginScope(0); // One scope for the daemon lifetime.
      // The store consults the same plan for its sites; the hook runs
      // outside the store mutex, so the latency sleep in serveFault()
      // cannot serialize lookups.
      Store.setFaultHook([this](const char *Site) {
        return serveFault(Site) != resil::FaultKind::None;
      });
    } else {
      if (!StartupNote.empty())
        StartupNote += "; ";
      StartupNote += "bad serve fault plan ignored: " + FErr;
    }
  }

  // A corrupt tier-2 file degrades to whatever prefix parsed; the note
  // surfaces through status/cache_stats rather than a log line (the
  // daemon may be running --log-level quiet).
  Store.loadReduceCache(RC, &StartupNote);

  if (!Opts.AccessLogPath.empty()) {
    if (Opts.AccessLogPath == "-") {
      AccessLog = stderr;
    } else {
      AccessLog = std::fopen(Opts.AccessLogPath.c_str(), "a");
      if (AccessLog) {
        OwnAccessLog = true;
      } else {
        if (!StartupNote.empty())
          StartupNote += "; ";
        StartupNote += "access log '" + Opts.AccessLogPath + "' not writable";
      }
    }
  }
  if (Opts.SlowRequestSeconds > 0)
    Watchdog = std::thread([this] { watchdogLoop(); });
}

Server::~Server() {
  requestShutdown();
  {
    std::lock_guard<std::mutex> Lock(WatchdogMu);
    WatchdogStop = true;
  }
  WatchdogCV.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (std::thread &T : Conns)
      if (T.joinable())
        T.join();
    Conns.clear();
  }
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (!UnixPath.empty())
    ::unlink(UnixPath.c_str());
  if (AccessLog && OwnAccessLog)
    std::fclose(AccessLog);
}

void Server::requestShutdown() { ShutdownFlag.store(true); }

unsigned Server::admissionCapacity() const {
  return (Opts.RequestWorkers ? Opts.RequestWorkers : 1) + Opts.QueueDepth;
}

int64_t Server::retryAfterMsHint() const {
  // Expected time until a queue slot frees: mean observed service time
  // times the per-worker backlog. Before any request completes, assume
  // 500ms -- wrong is fine, the client's exponential backoff dominates
  // after the first retry. Clamped so a hint is never a busy-loop (50ms
  // floor) nor a give-up signal (30s ceiling).
  uint64_t Cnt = ServiceCount.load();
  double MeanMs = Cnt ? ServiceMicros.load() / 1000.0 / Cnt : 500.0;
  unsigned Workers = Opts.RequestWorkers ? Opts.RequestWorkers : 1;
  uint64_t Adm = Admitted.load();
  double PerWorkerBacklog =
      Adm > Workers ? static_cast<double>(Adm - Workers) / Workers : 1.0;
  double Hint = MeanMs * PerWorkerBacklog;
  return static_cast<int64_t>(std::min(30000.0, std::max(50.0, Hint)));
}

Json Server::shedResponse(const char *Why) {
  VerifyResponse R;
  R.Exit = front::ExitOverloaded;
  R.Overloaded = true;
  R.RetryAfterMs = retryAfterMsHint();
  R.Disposition = Why;
  R.Error = std::string("error: server ") +
            (std::string(Why) == "draining" ? "is draining"
                                            : "overloaded (queue full)") +
            "; retry after " + std::to_string(R.RetryAfterMs) + "ms\n";
  Registry.bump("requests_shed");
  if (AccessLog) {
    Json L;
    L["event"] = Json("request");
    L["id"] = Json(NextRequestId.fetch_add(1));
    L["disposition"] = Json(std::string(Why));
    L["retry_after_ms"] = Json(R.RetryAfterMs);
    L["admitted"] = Json(Admitted.load());
    L["capacity"] = Json(static_cast<uint64_t>(admissionCapacity()));
    writeAccessLine(L.dump());
  }
  return R.encode();
}

resil::FaultKind Server::serveFault(const char *Site) {
  if (!ServeInj)
    return resil::FaultKind::None;
  resil::FaultDecision D;
  {
    std::lock_guard<std::mutex> Lock(FaultMu);
    D = ServeInj->next(Site);
  }
  if (D.Kind == resil::FaultKind::None)
    return D.Kind;
  Registry.bump("serve_faults_injected");
  if (D.Kind == resil::FaultKind::Latency) {
    std::this_thread::sleep_for(std::chrono::milliseconds(D.LatencyMs));
    return resil::FaultKind::None; // Slow, not broken.
  }
  return D.Kind;
}

uint64_t Server::registerToken(std::shared_ptr<engine::CancellationToken> T) {
  std::lock_guard<std::mutex> Lock(TokMu);
  uint64_t Id = NextTokId++;
  LiveToks[Id] = std::move(T);
  return Id;
}

void Server::unregisterToken(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(TokMu);
  LiveToks.erase(Id);
}

void Server::syncBreakerTrips() {
  uint64_t Now = Store.breakerTrips();
  std::lock_guard<std::mutex> Lock(TripsMu);
  if (Now > BreakerTripsSeen) {
    Registry.bump("breaker_trips", static_cast<int64_t>(Now - BreakerTripsSeen));
    BreakerTripsSeen = Now;
  }
}

void Server::drain() {
  DrainingFlag.store(true);
  ShutdownFlag.store(true);
  if (Drained.exchange(true))
    return; // Idempotent: serve() and the dtor may both get here.

  auto DrainStart = std::chrono::steady_clock::now();
  auto SettleWait = [&](double Seconds) {
    auto Until = std::chrono::steady_clock::now() +
                 std::chrono::duration<double>(Seconds);
    while (Admitted.load() > 0 && std::chrono::steady_clock::now() < Until)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Admitted.load() == 0;
  };

  uint64_t Cancelled = 0;
  if (!SettleWait(Opts.DrainTimeoutSeconds)) {
    // Timeout: cancel the stragglers. The synthesis observes the token
    // at its next budget poll, so give it a generous second window --
    // but never hang forever on a wedged request.
    {
      std::lock_guard<std::mutex> Lock(TokMu);
      for (auto &[Id, Tok] : LiveToks)
        if (Tok && !Tok->cancelled()) {
          Tok->cancel();
          ++Cancelled;
        }
    }
    if (Cancelled)
      Registry.bump("drain_cancelled", static_cast<int64_t>(Cancelled));
    SettleWait(std::max(5.0, Opts.DrainTimeoutSeconds));
  }

  // Flush: tier-2 cache to disk (best effort; the t1 entries were
  // written at their verdicts) and the access log. Metrics live in
  // memory and die with the process by design -- the final scrape
  // already happened or never will.
  if (Store.enabled())
    Store.saveReduceCache(RC);
  if (AccessLog) {
    Json L;
    L["event"] = Json("drain");
    L["drain_seconds"] =
        Json(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           DrainStart)
                 .count());
    L["cancelled"] = Json(Cancelled);
    L["remaining"] = Json(Admitted.load());
    writeAccessLine(L.dump());
    std::lock_guard<std::mutex> Lock(AccessLogMu);
    std::fflush(AccessLog);
  }
}

obs::Outcome Server::outcomeForExit(int Exit) {
  switch (Exit) {
  case front::ExitVerified:
    return obs::Outcome::Verified;
  case front::ExitUnsafe:
    return obs::Outcome::NotVerified;
  case front::ExitUnknown:
  case front::ExitInconclusive:
    return obs::Outcome::Inconclusive;
  default:
    return obs::Outcome::Error;
  }
}

void Server::writeAccessLine(const std::string &Line) {
  if (!AccessLog)
    return;
  std::lock_guard<std::mutex> Lock(AccessLogMu);
  std::fwrite(Line.data(), 1, Line.size(), AccessLog);
  std::fwrite("\n", 1, 1, AccessLog);
  std::fflush(AccessLog);
}

void Server::watchdogLoop() {
  // Poll a few times per threshold so a slow request is flagged promptly
  // without burning CPU on tight thresholds.
  auto Interval = std::chrono::duration<double>(Opts.SlowRequestSeconds / 4);
  auto Poll = std::chrono::duration_cast<std::chrono::milliseconds>(Interval);
  if (Poll < std::chrono::milliseconds(5))
    Poll = std::chrono::milliseconds(5);
  if (Poll > std::chrono::milliseconds(200))
    Poll = std::chrono::milliseconds(200);

  std::unique_lock<std::mutex> Lock(WatchdogMu);
  while (!WatchdogStop) {
    WatchdogCV.wait_for(Lock, Poll);
    if (WatchdogStop)
      break;
    Lock.unlock();
    auto Now = std::chrono::steady_clock::now();
    std::vector<std::string> Lines;
    {
      std::lock_guard<std::mutex> L(LiveMu);
      for (auto &[Id, LR] : Live) {
        double Elapsed =
            std::chrono::duration<double>(Now - LR->Start).count();
        if (Elapsed <= Opts.SlowRequestSeconds || LR->Slow.load())
          continue;
        // The watchdog only touches the request's atomics -- the live
        // "span stack" it reports is the phase the owner last published,
        // never the owner-private TraceBuffer.
        const char *Phase = LR->Phase.load();
        LR->SlowPhase.store(Phase);
        LR->Slow.store(true);
        SlowRequests.fetch_add(1);
        Json J;
        J["event"] = Json("slow_request");
        J["id"] = Json(Id);
        J["phase"] = Json(Phase);
        J["elapsed_seconds"] = Json(Elapsed);
        J["threshold_seconds"] = Json(Opts.SlowRequestSeconds);
        Lines.push_back(J.dump());
      }
    }
    for (const std::string &L : Lines)
      writeAccessLine(L);
    Lock.lock();
  }
}

VerifyResponse Server::verify(const VerifyRequest &Req,
                              const engine::CancellationToken *Cancel,
                              std::chrono::steady_clock::time_point Arrival) {
  uint64_t Id = NextRequestId.fetch_add(1);
  InFlight.fetch_add(1);
  struct InFlightGuard {
    std::atomic<uint64_t> &F;
    std::atomic<uint64_t> &S;
    ~InFlightGuard() {
      F.fetch_sub(1);
      S.fetch_add(1);
    }
  } Guard{InFlight, Served};

  auto T0 = std::chrono::steady_clock::now();
  if (Arrival == std::chrono::steady_clock::time_point{})
    Arrival = T0; // Direct call: no queue wait to charge.

  // Per-request observability: its own tracer, log lines tagged with the
  // request id so interleaved requests stay attributable. The epoch is
  // pinned to the request arrival so flight-recorder dumps from
  // different requests are comparable (every request starts at t=0),
  // and the event cap bounds the recorder's memory per request.
  bool CollectEvents = Opts.FlightCapacity > 0;
  obs::TracerConfig TC;
  TC.Level = Opts.Level;
  TC.LogPrefix = "r" + std::to_string(Id);
  TC.EpochAt = T0;
  TC.CollectEvents = CollectEvents;
  if (CollectEvents)
    TC.MaxEvents = static_cast<uint32_t>(Flight.config().MaxEventsPerRequest);
  obs::Tracer Tracer(TC);
  obs::TraceBuffer *TB = Tracer.worker(0);

  // Register with the watchdog for the duration of the request.
  LiveRequest LR;
  LR.Id = Id;
  LR.Start = T0;
  struct LiveGuard {
    Server &Srv;
    uint64_t Id;
    bool Armed;
    ~LiveGuard() {
      if (!Armed)
        return;
      std::lock_guard<std::mutex> L(Srv.LiveMu);
      Srv.Live.erase(Id);
    }
  } LG{*this, Id, Opts.SlowRequestSeconds > 0};
  if (LG.Armed) {
    std::lock_guard<std::mutex> L(LiveMu);
    Live[Id] = &LR;
  }

  VerifyRun Run;
  {
    obs::Span Sp(TB, "request");
    Run = verifyImpl(Req, Cancel, Tracer, T0, Arrival, LR);
  }
  VerifyResponse &Resp = Run.Resp;
  // The owner thread stamps the watchdog's verdict into the trace at
  // completion -- deterministically placed (after the request span), so
  // tests can assert on it without racing the watchdog.
  if (LR.Slow.load()) {
    const char *Phase = LR.SlowPhase.load();
    TB->instant("slow_request", Phase ? Phase : "request",
                static_cast<int64_t>(secondsSince(T0) * 1000));
  }
  Resp.ServerSeconds = secondsSince(T0);

  // Disposition: how the request left the server. A cancelled token
  // means the client vanished (EOF probe) or drain() pulled the plug.
  if (Resp.Disposition == "ok" && Cancel && Cancel->cancelled())
    Resp.Disposition = DrainingFlag.load() ? "drain_cancelled" : "cancelled";

  // Feed the retry_after_ms estimator with real service times (not shed
  // or deadline-expired rejections, which finish in microseconds and
  // would talk the hint down to its floor).
  if (!Resp.Overloaded) {
    ServiceMicros.fetch_add(static_cast<uint64_t>(Resp.ServerSeconds * 1e6));
    ServiceCount.fetch_add(1);
  }
  syncBreakerTrips();

  obs::Outcome O = outcomeForExit(Resp.Exit);
  obs::CacheTier Tier = Resp.Cache == "hit"    ? obs::CacheTier::T1Hit
                        : Run.Stats.CacheHits ? obs::CacheTier::T2Warm
                                              : obs::CacheTier::Cold;
  Registry.record(O, Tier, Tracer.metrics(), Resp.ServerSeconds);

  if (CollectEvents) {
    obs::FlightRecord FR;
    FR.RequestId = Id;
    FR.Hash = Resp.Hash;
    FR.Outcome = obs::outcomeName(O);
    FR.TotalSeconds = Resp.ServerSeconds;
    FR.DroppedEvents = Tracer.droppedEvents();
    FR.Events = Tracer.mergedEvents();
    Flight.record(std::move(FR));
  }

  if (AccessLog) {
    Json L;
    L["event"] = Json("request");
    L["id"] = Json(Id);
    L["hash"] = Json(Resp.Hash);
    L["outcome"] = Json(obs::outcomeName(O));
    L["cache_tier"] = Json(obs::cacheTierName(Tier));
    L["parse_seconds"] = Json(Run.ParseSeconds);
    L["cache_lookup_seconds"] = Json(Resp.CacheLookupSeconds);
    L["synth_seconds"] = Json(Run.SynthSeconds);
    L["server_seconds"] = Json(Resp.ServerSeconds);
    L["workers"] = Json(Run.Stats.NumWorkers);
    L["dropped_events"] = Json(Tracer.droppedEvents());
    L["slow"] = Json(LR.Slow.load());
    L["disposition"] = Json(Resp.Disposition);
    L["queue_seconds"] =
        Json(std::chrono::duration<double>(T0 - Arrival).count());
    writeAccessLine(L.dump());
  }
  return std::move(Run.Resp);
}

VerifyRun Server::verifyImpl(const VerifyRequest &Req,
                             const engine::CancellationToken *Cancel,
                             obs::Tracer &Tracer,
                             std::chrono::steady_clock::time_point T0,
                             std::chrono::steady_clock::time_point Arrival,
                             LiveRequest &Live) {
  VerifyRun Run;
  VerifyResponse &Resp = Run.Resp;

  // Deadline propagation: the clock started at admission, so time spent
  // waiting for a worker is already gone. A request whose whole budget
  // evaporated in the queue is rejected before parsing a byte -- the
  // worker moves straight on to one that can still make its deadline.
  double QueueSeconds = std::chrono::duration<double>(T0 - Arrival).count();
  double RemainingSeconds = 0; // 0 = no ceiling.
  if (Opts.MaxRequestSeconds > 0) {
    RemainingSeconds = Opts.MaxRequestSeconds - QueueSeconds;
    if (RemainingSeconds <= 0) {
      Resp.Exit = front::ExitOverloaded;
      Resp.Overloaded = true;
      Resp.RetryAfterMs = retryAfterMsHint();
      Resp.Disposition = "deadline";
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "error: deadline exceeded in queue (waited %.2fs of a "
                    "%.2fs budget); retry after %lldms\n",
                    QueueSeconds, Opts.MaxRequestSeconds,
                    static_cast<long long>(Resp.RetryAfterMs));
      Resp.Error = Buf;
      return Run;
    }
  }

  resil::FaultPlan Faults;
  if (!Req.Faults.empty()) {
    std::string FErr;
    if (auto P = resil::FaultPlan::parse(Req.Faults, &FErr)) {
      Faults = std::move(*P);
    } else {
      Resp.Exit = front::ExitError;
      Resp.Error = "error: bad fault plan: " + FErr + "\n";
      return Run;
    }
  }

  Live.Phase.store("parse");
  obs::TraceBuffer *TB = Tracer.worker(0);
  logic::TermManager M;
  front::LoadResult L = [&] {
    obs::Span ParseSp(TB, "parse");
    return front::loadProtocolString(M, Req.ProtocolText, Req.File, TB);
  }();
  if (!L.ok()) {
    Resp.Exit = front::ExitError;
    Resp.Error = L.Error->render() + "\n";
    return Run;
  }
  double ParseSeconds = secondsSince(T0);
  const front::FrontBundle &B = *L.Bundle;

  // The daemon's clamps, on a copy of the request: --synth-workers caps
  // the search width, and what is left of the deadline (not the full
  // ceiling: queue wait already spent part of it) caps the budget.
  VerifyRequest Eff = Req;
  if (Opts.SynthWorkers &&
      (Eff.Workers == 0 || Eff.Workers > Opts.SynthWorkers))
    Eff.Workers = Opts.SynthWorkers;
  if (RemainingSeconds > 0 &&
      (Eff.TimeBudget <= 0 || Eff.TimeBudget > RemainingSeconds))
    Eff.TimeBudget = RemainingSeconds;

  Run = verifyBundle(B, Eff, Faults, Store, &RC, /*LoadTier2=*/false, Tracer,
                     Cancel, T0, ParseSeconds, &Live.Phase);
  Run.Resp.Output.insert(0, renderHeader(B.Sys->name(), B.Property));
  return Run;
}

Json Server::handle(const Json &Request,
                    const engine::CancellationToken *Cancel) {
  const std::string &Op = Request.get("op").asString();
  if (Op == "verify") {
    std::string Err;
    VerifyRequest R = VerifyRequest::decode(Request, &Err);
    if (!Err.empty())
      return badRequest(Err);
    return verify(R, Cancel).encode();
  }
  if (Op == "status")
    return statusJson();
  if (Op == "health")
    return healthJson();
  if (Op == "cache_stats")
    return cacheStatsJson();
  if (Op == "metrics") {
    const std::string &F = Request.get("format").asString();
    if (F == "prom" || F == "prometheus") {
      Json J;
      J["ok"] = Json(true);
      J["format"] = Json("prom");
      J["text"] = Json(metricsProm());
      return J;
    }
    if (!F.empty() && F != "json") {
      Json J;
      J["ok"] = Json(false);
      J["error"] = Json("unknown metrics format '" + F + "' (json|prom)");
      return J;
    }
    return metricsJson();
  }
  if (Op == "dump_trace")
    return dumpTraceJson(
        static_cast<uint64_t>(Request.get("request").asInt(0)),
        Request.get("format").asString());
  if (Op == "shutdown") {
    requestShutdown();
    Json J;
    J["ok"] = Json(true);
    J["shutting_down"] = Json(true);
    return J;
  }
  Json J;
  J["ok"] = Json(false);
  J["error"] = Json("unknown op '" + Op + "'");
  return J;
}

Json Server::dispatch(const Json &Request) {
  bool ClientGone;
  return dispatch(Request, -1, ClientGone);
}

Json Server::dispatch(const Json &Request, int Fd, bool &ClientGone) {
  ClientGone = false;
  // Cheap ops answer inline on the calling (connection) thread: they
  // must stay responsive precisely when every pool worker is busy.
  if (Request.get("op").asString() != "verify")
    return handle(Request);
  std::string Err;
  VerifyRequest VR = VerifyRequest::decode(Request, &Err);
  if (!Err.empty())
    return badRequest(Err);

  // Admission: reserve a slot or shed, on the calling thread, before the
  // pool queue ever sees the request -- so the queue stays bounded no
  // matter how many clients pile on. fetch_add-then-check keeps the race
  // window harmless -- two simultaneous arrivals at the boundary shed at
  // most one request early, never admit one late.
  if (DrainingFlag.load())
    return shedResponse("draining");
  if (Admitted.fetch_add(1) >= admissionCapacity()) {
    Admitted.fetch_sub(1);
    return shedResponse("shed");
  }
  // Admitted: the deadline clock starts now -- queue wait is the
  // request's problem, not the next one's. The warm pool runs the work
  // while this thread waits, watching the client's socket when there is
  // one, so a vanished client cancels its request instead of occupying a
  // pool worker to completion.
  auto Arrival = std::chrono::steady_clock::now();
  struct Pending {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    Json Resp;
  };
  auto P = std::make_shared<Pending>();
  auto Tok = std::make_shared<engine::CancellationToken>();
  uint64_t TokId = registerToken(Tok);
  Pool.submit([this, VR = std::move(VR), P, Tok, Arrival] {
    Json R = verify(VR, Tok.get(), Arrival).encode();
    std::lock_guard<std::mutex> Lock(P->M);
    P->Resp = std::move(R);
    P->Done = true;
    P->CV.notify_all();
  });
  Json Resp;
  {
    std::unique_lock<std::mutex> Lock(P->M);
    while (!P->CV.wait_for(Lock, std::chrono::milliseconds(100),
                           [&] { return P->Done; })) {
      if (Fd < 0 || ClientGone)
        continue;
      Lock.unlock();
      // EOF probe: a readable-but-empty socket means the client hung up
      // (it owes us nothing until our response).
      char Peek;
      if (::recv(Fd, &Peek, 1, MSG_PEEK | MSG_DONTWAIT) == 0) {
        ClientGone = true;
        Tok->cancel();
      }
      Lock.lock();
    }
    Resp = P->Resp;
  }
  unregisterToken(TokId);
  Admitted.fetch_sub(1);
  return Resp;
}

Json Server::statusJson() const {
  StoreStats SS = Store.stats();
  Json J;
  J["ok"] = Json(true);
  J["uptime_seconds"] = Json(secondsSince(Start));
  J["served"] = Json(Served.load());
  J["in_flight"] = Json(InFlight.load());
  J["request_workers"] = Json(Pool.size());
  J["store_enabled"] = Json(Store.enabled());
  J["store_dir"] = Json(Store.dir());
  // Cumulative engine counters over all recorded requests, plus the
  // store-tier traffic -- enough to see daemon health at a glance
  // without a full metrics scrape.
  J["ctr_retries"] = Json(Registry.counterSum("retries"));
  J["ctr_fallbacks"] = Json(Registry.counterSum("fallbacks"));
  J["ctr_tuples_skipped"] = Json(Registry.counterSum("tuples_skipped"));
  J["t1_hits"] = Json(SS.T1Hits);
  J["t1_misses"] = Json(SS.T1Misses);
  J["t2_hits"] = Json(Registry.counterSum("reduce_cache_hits"));
  J["t2_misses"] = Json(Registry.counterSum("reduce_cache_misses"));
  J["slow_requests"] = Json(SlowRequests.load());
  J["draining"] = Json(DrainingFlag.load());
  J["admitted"] = Json(Admitted.load());
  J["admission_capacity"] = Json(static_cast<uint64_t>(admissionCapacity()));
  J["store_breaker"] = Json(std::string(Store.breakerStateName()));
  J["breaker_trips"] = Json(Store.breakerTrips());
  J["ctr_requests_shed"] = Json(Registry.counterSum("requests_shed"));
  J["ctr_drain_cancelled"] = Json(Registry.counterSum("drain_cancelled"));
  if (!StartupNote.empty())
    J["store_note"] = Json(StartupNote);
  return J;
}

Json Server::healthJson() const {
  uint64_t Adm = Admitted.load();
  unsigned Cap = admissionCapacity();
  bool IsDraining = DrainingFlag.load();
  Json J;
  J["ok"] = Json(true);
  J["state"] = Json(std::string(IsDraining ? "draining"
                                : Adm >= Cap ? "overloaded"
                                             : "ready"));
  J["draining"] = Json(IsDraining);
  J["admitted"] = Json(Adm);
  J["admission_capacity"] = Json(static_cast<uint64_t>(Cap));
  J["in_flight"] = Json(InFlight.load());
  J["retry_after_ms"] = Json(retryAfterMsHint());
  J["store_enabled"] = Json(Store.enabled());
  J["store_breaker"] = Json(std::string(Store.breakerStateName()));
  J["breaker_trips"] = Json(Store.breakerTrips());
  return J;
}

Json Server::cacheStatsJson() const {
  StoreStats S = Store.stats();
  Json J;
  J["ok"] = Json(true);
  J["t1_hits"] = Json(S.T1Hits);
  J["t1_misses"] = Json(S.T1Misses);
  J["t1_writes"] = Json(S.T1Writes);
  J["t1_corrupt"] = Json(S.T1Corrupt);
  J["t2_loaded"] = Json(S.T2Entries);
  J["t2_corrupt"] = Json(S.T2Corrupt);
  J["t2_live_entries"] = Json(static_cast<uint64_t>(RC.size()));
  // Summed over the recorded requests, like the status op's ctr_* fields.
  J["t2_hits"] = Json(Registry.counterSum("reduce_cache_hits"));
  J["t2_misses"] = Json(Registry.counterSum("reduce_cache_misses"));
  return J;
}

std::vector<obs::PromGauge> Server::gauges() const {
  std::vector<obs::PromGauge> G;
  auto Add = [&](const char *Name, const char *Help, double Value) {
    G.push_back({Name, Help, Value, {}});
  };
  Add("uptime_seconds", "Seconds since daemon start.", secondsSince(Start));
  Add("served_requests", "Requests completed since start.",
      static_cast<double>(Served.load()));
  Add("in_flight_requests", "Verify requests currently executing.",
      static_cast<double>(InFlight.load()));
  unsigned Pending = Pool.pending();
  unsigned Size = Pool.size();
  Add("request_queue_depth", "Jobs waiting behind the busy request pool.",
      static_cast<double>(Pending > Size ? Pending - Size : 0));
  Add("request_pool_utilization", "Busy request workers / pool size.",
      Size ? static_cast<double>(std::min(Pending, Size)) / Size : 0.0);
  Add("store_t2_live_entries", "Reduce-cache entries resident in memory.",
      static_cast<double>(RC.size()));
  Add("flight_retained_requests", "Requests held by the flight recorder.",
      static_cast<double>(Flight.retained()));
  Add("flight_bytes", "Approximate flight-recorder memory footprint.",
      static_cast<double>(Flight.approxBytes()));
  Add("flight_bytes_ceiling",
      "Configured upper bound on flight-recorder memory.",
      static_cast<double>(Flight.memoryCeilingBytes()));
  Add("slow_requests", "Requests that exceeded --slow-request-seconds.",
      static_cast<double>(SlowRequests.load()));
  Add("admitted_requests", "Verify requests admitted (queued + executing).",
      static_cast<double>(Admitted.load()));
  Add("admission_capacity", "Request workers + admission queue depth.",
      static_cast<double>(admissionCapacity()));
  Add("draining", "1 while the daemon is draining, else 0.",
      DrainingFlag.load() ? 1.0 : 0.0);
  Add("store_breaker_open",
      "1 while the store circuit breaker blocks disk access, else 0.",
      std::string(Store.breakerStateName()) == "open" ? 1.0 : 0.0);
  Add("store_breaker_trips", "Times the store circuit breaker tripped open.",
      static_cast<double>(Store.breakerTrips()));
  obs::PromGauge Info;
  Info.Name = "server_info";
  Info.Help = "Daemon identity; the value is always 1.";
  Info.Value = 1;
  Info.Labels = {{"store_dir", Store.dir()}, {"bound", Bound}};
  G.push_back(std::move(Info));
  return G;
}

Json Server::metricsJson() const {
  obs::MetricsRegistry::Snapshot S = Registry.snapshot();
  Json J;
  J["ok"] = Json(true);

  Json Reqs, Secs;
  for (unsigned O = 0; O < obs::NumOutcomes; ++O) {
    Json RowR, RowS;
    for (unsigned T = 0; T < obs::NumCacheTiers; ++T) {
      const char *TN = obs::cacheTierName(static_cast<obs::CacheTier>(T));
      RowR[TN] = Json(S.Requests[O][T]);
      RowS[TN] = Json(S.RequestSeconds[O][T]);
    }
    const char *ON = obs::outcomeName(static_cast<obs::Outcome>(O));
    Reqs[ON] = std::move(RowR);
    Secs[ON] = std::move(RowS);
  }
  J["requests"] = std::move(Reqs);
  J["request_seconds"] = std::move(Secs);

  Json Ctrs;
  for (const auto &[N, V] : S.Counters)
    Ctrs[N] = Json(V);
  J["counters"] = std::move(Ctrs);

  Json Hists;
  for (const auto &[N, H] : S.Hists) {
    Json HJ;
    HJ["count"] = Json(H.Count);
    HJ["min"] = Json(H.Min);
    HJ["max"] = Json(H.Max);
    HJ["mean"] = Json(H.mean());
    HJ["p50"] = Json(H.P50);
    HJ["p90"] = Json(H.P90);
    HJ["p99"] = Json(H.P99);
    Hists[N] = std::move(HJ);
  }
  J["hists"] = std::move(Hists);

  Json Gs;
  for (const obs::PromGauge &G : gauges())
    Gs[G.Name] = Json(G.Value);
  J["gauges"] = std::move(Gs);
  return J;
}

std::string Server::metricsProm() const {
  return obs::renderProm(Registry.snapshot(), gauges());
}

Json Server::dumpTraceJson(uint64_t RequestId,
                           const std::string &Format) const {
  Json J;
  std::string F = Format.empty() ? "perfetto" : Format;
  std::vector<obs::FlightRecord> Recs = Flight.dump(RequestId);
  if (F == "perfetto" || F == "chrome") {
    J["trace"] = Json(renderFlightTrace(Recs));
    F = "perfetto";
  } else if (F == "jsonl") {
    J["trace"] = Json(renderFlightJsonl(Recs));
  } else {
    J["ok"] = Json(false);
    J["error"] = Json("unknown trace format '" + F + "' (perfetto|jsonl)");
    return J;
  }
  J["ok"] = Json(true);
  J["format"] = Json(F);
  J["retained"] = Json(static_cast<uint64_t>(Flight.retained()));
  J["matched"] = Json(static_cast<uint64_t>(Recs.size()));
  return J;
}

// -- Socket front end --------------------------------------------------------

bool Server::listen(const Addr &A, std::string &Err) {
  if (A.IsUnix) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_un SA{};
    SA.sun_family = AF_UNIX;
    if (A.Path.size() >= sizeof(SA.sun_path)) {
      Err = "unix socket path too long: " + A.Path;
      return false;
    }
    std::strncpy(SA.sun_path, A.Path.c_str(), sizeof(SA.sun_path) - 1);
    ::unlink(A.Path.c_str()); // Stale socket from a previous daemon.
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0) {
      Err = "bind " + A.Path + ": " + std::strerror(errno);
      return false;
    }
    UnixPath = A.Path;
    Bound = "unix:" + A.Path;
  } else {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in SA{};
    SA.sin_family = AF_INET;
    SA.sin_port = htons(static_cast<uint16_t>(A.Port));
    if (::inet_pton(AF_INET, A.Host.c_str(), &SA.sin_addr) != 1) {
      Err = "bad host '" + A.Host + "' (numeric IPv4 only)";
      return false;
    }
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&SA), sizeof(SA)) < 0) {
      Err = "bind " + A.Host + ":" + std::to_string(A.Port) + ": " +
            std::strerror(errno);
      return false;
    }
    sockaddr_in Actual{};
    socklen_t Len = sizeof(Actual);
    ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Actual), &Len);
    Bound = A.Host + ":" + std::to_string(ntohs(Actual.sin_port));
  }
  if (::listen(ListenFd, 16) < 0) {
    Err = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void Server::serve() {
  while (!shutdownRequested()) {
    pollfd P{ListenFd, POLLIN, 0};
    int N = ::poll(&P, 1, 200 /*ms*/);
    if (N <= 0)
      continue; // Timeout or EINTR: re-check the shutdown flag.
    int Fd = wire::acceptRetry(ListenFd);
    if (Fd == -2)
      continue; // Transient (aborted handshake): back to poll.
    if (Fd < 0)
      continue;
    // `accept` fault site: an injected failure drops the connection on
    // the floor (the client sees a reset and retries); latency holds
    // the accept loop itself, modeling a starved acceptor.
    if (serveFault("accept") != resil::FaultKind::None) {
      ::close(Fd);
      continue;
    }
    std::lock_guard<std::mutex> Lock(ConnsMu);
    Conns.emplace_back([this, Fd] { handleConnection(Fd); });
  }
  // Graceful drain: no new admissions, in-flight work finishes or is
  // cancelled under the drain timeout, store + access log flushed.
  drain();
  // Let in-flight connections finish before the dtor tears down state.
  {
    std::lock_guard<std::mutex> Lock(ConnsMu);
    for (std::thread &T : Conns)
      if (T.joinable())
        T.join();
    Conns.clear();
  }
  Pool.wait();
}

void Server::handleConnection(int Fd) {
  std::string Buf;
  char Chunk[4096];
  bool Open = true;
  while (Open && !shutdownRequested()) {
    // Frame one line. The read waits in poll() slices, not a blocking
    // recv(): an idle keep-alive connection must notice shutdown and
    // release its thread, or drain would hang on the join.
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      pollfd P{Fd, POLLIN, 0};
      int PR = ::poll(&P, 1, 100 /*ms*/);
      if (shutdownRequested()) {
        Open = false;
        break;
      }
      if (PR == 0)
        continue;
      if (PR < 0) {
        if (errno == EINTR)
          continue;
        Open = false;
        break;
      }
      // `wire_read` fault site: any failure kind severs the connection
      // (a torn read is unrecoverable for line framing anyway).
      if (serveFault("wire_read") != resil::FaultKind::None) {
        Open = false;
        break;
      }
      ssize_t N = wire::readSome(Fd, Chunk, sizeof(Chunk));
      if (N <= 0) {
        Open = false;
        break;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
      if (Buf.size() > (64u << 20)) { // Runaway client; drop it.
        Open = false;
        break;
      }
    }
    if (!Open)
      break;
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    if (Line.empty())
      continue;

    std::string PErr;
    Json Req = parseJson(Line, &PErr);
    Json Resp;
    if (!PErr.empty()) {
      Resp["ok"] = Json(false);
      Resp["error"] = Json("bad request: " + PErr);
    } else {
      bool ClientGone;
      Resp = dispatch(Req, Fd, ClientGone);
      if (ClientGone)
        break;
    }
    // `wire_write` fault site, then the EINTR/short-write-safe send.
    if (serveFault("wire_write") != resil::FaultKind::None) {
      Open = false;
      break;
    }
    std::string Out = Resp.dump();
    Out += '\n';
    if (!wire::writeAll(Fd, Out))
      Open = false;
  }
  ::close(Fd);
}
