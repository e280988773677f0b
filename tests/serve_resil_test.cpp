//===- tests/serve_resil_test.cpp - Overload, drain, breaker tests ------------===//
//
// Part of sharpie. The resilience layer of the serving stack (PR 9),
// driven through the same in-process API the socket shell uses:
// admission control under an overload storm, deadline expiry in the
// queue, graceful drain under load, the store circuit breaker with
// self-healing, the health op, the access-log disposition schema, and
// the deterministic client backoff schedule.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"

#include "front/ExitCodes.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace sharpie;
using namespace sharpie::serve;

namespace {

const char *IncrementProtocol = R"(
protocol increment {
  global a;
  local pc;

  init: a == 0 && forall t. pc[t] == 1;
  safe: forall t. pc[t] >= 2 ==> a > 0;

  transition inc {
    guard: pc[self] == 1;
    a := a + 1;
    pc[self] := 2;
  }

  template {
    sets: 1;
  }

  check {
    threads: 3;
    start { pc := 1; }
  }

  property "(exists t: pc(t) >= 2) -> a > 0";
  expect safe;
}
)";

class ResilTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "sharpie_resil_" +
          std::to_string(::getpid()) + "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string Cmd = "rm -rf '" + Dir + "'";
    ASSERT_EQ(0, std::system(Cmd.c_str()));
  }

  void TearDown() override {
    std::string Cmd = "rm -rf '" + Dir + "'";
    (void)std::system(Cmd.c_str());
  }

  ServerOptions options() {
    ServerOptions O;
    O.StoreDir = Dir;
    O.RequestWorkers = 2;
    O.SynthWorkers = 1;
    return O;
  }

  VerifyRequest request() {
    VerifyRequest R;
    R.ProtocolText = IncrementProtocol;
    R.File = "increment.sharpie";
    return R;
  }

  /// A request that holds a pool worker for at least ~LatencyMs: the
  /// per-tuple latency fault keeps the solve slow, and a fault plan
  /// also bypasses the cache, so concurrent identical requests cannot
  /// collapse into one solve plus warm hits.
  VerifyRequest slowRequest(unsigned LatencyMs, int Tag = 0) {
    VerifyRequest R = request();
    R.File = "slow" + std::to_string(Tag) + ".sharpie";
    R.Faults = "worker_task:latency=" + std::to_string(LatencyMs) + "@always";
    return R;
  }

  std::string Dir;
};

// -- Client backoff ----------------------------------------------------------

TEST(BackoffTest, ScheduleIsDeterministicJitteredAndBounded) {
  RetryPolicy P;
  P.BaseMs = 100;
  P.MaxDelayMs = 30000;
  P.Seed = 42;

  // Attempt 0 is the first try: no delay ever.
  EXPECT_EQ(0, backoffDelayMs(P, 0, 0));
  EXPECT_EQ(0, backoffDelayMs(P, 0, 9999));

  // Pure function: the whole schedule replays exactly.
  std::vector<int64_t> A, B;
  for (unsigned I = 1; I <= 8; ++I) {
    A.push_back(backoffDelayMs(P, I, 0));
    B.push_back(backoffDelayMs(P, I, 0));
  }
  EXPECT_EQ(A, B);

  // Exponential envelope with +/-25% jitter: delay I sits inside
  // [0.75, 1.25) * BaseMs * 2^(I-1).
  for (unsigned I = 1; I <= 8; ++I) {
    double Exp = 100.0 * static_cast<double>(1u << (I - 1));
    EXPECT_GE(A[I - 1], static_cast<int64_t>(0.75 * Exp)) << "attempt " << I;
    EXPECT_LT(A[I - 1], static_cast<int64_t>(1.25 * Exp)) << "attempt " << I;
  }

  // Different seeds decorrelate: the schedules must not be identical.
  RetryPolicy Q = P;
  Q.Seed = 43;
  std::vector<int64_t> C;
  for (unsigned I = 1; I <= 8; ++I)
    C.push_back(backoffDelayMs(Q, I, 0));
  EXPECT_NE(A, C);

  // The server's retry_after_ms hint is a floor...
  EXPECT_EQ(5000, backoffDelayMs(P, 1, 5000));
  // ...and MaxDelayMs caps everything, hint included.
  EXPECT_EQ(P.MaxDelayMs, backoffDelayMs(P, 30, 0));
  EXPECT_EQ(P.MaxDelayMs, backoffDelayMs(P, 1, 99999999));
}

// -- Admission control -------------------------------------------------------

TEST_F(ResilTest, OverloadStormShedsWithRetryHintsAndStaysResponsive) {
  // The acceptance scenario: 2 workers, queue depth 4 (capacity 6),
  // 16 concurrent verifies. At most 6 are admitted; the rest must shed
  // immediately with a structured overloaded response, and the cheap
  // ops must answer while every worker is busy.
  ServerOptions O = options();
  O.QueueDepth = 4;
  Server Srv(O);
  ASSERT_EQ(6u, Srv.admissionCapacity());

  std::vector<std::thread> Ts;
  std::vector<Json> Resps(16);
  for (int I = 0; I < 16; ++I)
    Ts.emplace_back(
        [&, I] { Resps[I] = Srv.dispatch(slowRequest(400, I).encode()); });

  // While the storm is in flight: introspection answers inline.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Json H = Srv.healthJson();
  EXPECT_TRUE(H.get("ok").asBool());
  EXPECT_LE(H.get("admitted").asInt(), 6);
  EXPECT_GE(H.get("retry_after_ms").asInt(), 50);
  Json S = Srv.dispatch(parseJson("{\"op\":\"status\"}", nullptr));
  EXPECT_TRUE(S.get("ok").asBool());

  for (std::thread &T : Ts)
    T.join();

  int Ok = 0, Shed = 0;
  for (const Json &RJ : Resps) {
    VerifyResponse R = VerifyResponse::decode(RJ);
    if (R.Overloaded) {
      ++Shed;
      EXPECT_EQ(front::ExitOverloaded, R.Exit);
      EXPECT_EQ("shed", R.Disposition);
      // A shed always carries an actionable hint.
      EXPECT_GE(R.RetryAfterMs, 50);
      EXPECT_LE(R.RetryAfterMs, 30000);
      EXPECT_NE(std::string::npos, R.Error.find("overloaded"));
    } else {
      ++Ok;
      EXPECT_EQ(front::ExitVerified, R.Exit);
      EXPECT_EQ("ok", R.Disposition);
    }
  }
  EXPECT_EQ(16, Ok + Shed);
  EXPECT_LE(Ok, 6);   // Never more than the admission capacity.
  EXPECT_GE(Shed, 10); // Everything past capacity shed.
  EXPECT_EQ(0u, Srv.admitted()); // No slot leaked.
  EXPECT_EQ(static_cast<int64_t>(Shed),
            Srv.statusJson().get("ctr_requests_shed").asInt());
}

TEST_F(ResilTest, DeadlineExpiredInQueueRejectsWithoutSolving) {
  ServerOptions O = options();
  O.MaxRequestSeconds = 0.2;
  Server Srv(O);

  // An arrival stamp 1s in the past: the whole budget evaporated while
  // queued, so the request is rejected before parsing a byte.
  auto Stale = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  VerifyResponse R = Srv.verify(request(), nullptr, Stale);
  EXPECT_EQ(front::ExitOverloaded, R.Exit);
  EXPECT_TRUE(R.Overloaded);
  EXPECT_EQ("deadline", R.Disposition);
  EXPECT_GE(R.RetryAfterMs, 50);
  EXPECT_NE(std::string::npos, R.Error.find("deadline exceeded in queue"));
  // Never looked at the store, never wrote to it.
  Json CS = Srv.cacheStatsJson();
  EXPECT_EQ(0, CS.get("t1_hits").asInt() + CS.get("t1_misses").asInt());
  EXPECT_EQ(0u, Srv.store().stats().T1Writes);

  // A fresh arrival under the same ceiling verifies normally.
  ServerOptions O2 = options();
  O2.MaxRequestSeconds = 60;
  Server Srv2(O2);
  EXPECT_EQ(front::ExitVerified, Srv2.verify(request()).Exit);
}

// -- Graceful drain ----------------------------------------------------------

TEST_F(ResilTest, DrainUnderLoadCancelsStragglersAndShedsNewWork) {
  ServerOptions O = options();
  O.QueueDepth = 4;
  O.DrainTimeoutSeconds = 0.05; // Cancel stragglers almost immediately.
  Server Srv(O);

  // Four in-flight requests, each pinned slow enough (per-tuple 400ms
  // latency faults) that none can finish before the drain fires.
  std::vector<std::thread> Ts;
  std::vector<Json> Resps(4);
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back(
        [&, I] { Resps[I] = Srv.dispatch(slowRequest(400, I).encode()); });
  while (Srv.admitted() < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  Srv.drain();
  EXPECT_TRUE(Srv.draining());
  EXPECT_EQ(0u, Srv.admitted()); // Everything settled before drain returned.

  // Work arriving after (or during) a drain sheds with its own
  // disposition, so clients know to go elsewhere rather than back off.
  VerifyResponse Late = VerifyResponse::decode(Srv.dispatch(request().encode()));
  EXPECT_TRUE(Late.Overloaded);
  EXPECT_EQ("draining", Late.Disposition);

  for (std::thread &T : Ts)
    T.join();
  int DrainCancelled = 0;
  for (const Json &RJ : Resps) {
    VerifyResponse R = VerifyResponse::decode(RJ);
    // Each in-flight request either finished in time or was cancelled
    // by the drain -- nothing hangs, nothing errors.
    if (R.Disposition == "drain_cancelled") {
      ++DrainCancelled;
      EXPECT_EQ(front::ExitInconclusive, R.Exit);
    } else {
      EXPECT_EQ("ok", R.Disposition);
      EXPECT_EQ(front::ExitVerified, R.Exit);
    }
  }
  EXPECT_GE(DrainCancelled, 1); // 400ms tuples vs a 50ms drain window.
  EXPECT_GE(Srv.statusJson().get("ctr_drain_cancelled").asInt(), 1);
  // Cancelled runs never publish partial results.
  EXPECT_EQ(0u, Srv.store().stats().T1Writes);

  Srv.drain(); // Idempotent.
}

// -- Store circuit breaker and self-healing ----------------------------------

TEST_F(ResilTest, BreakerTripsOnCorruptStreakAndRecoversThroughHalfOpen) {
  ResultStore St(Dir);
  St.setTuning({2, 0.05}); // Trip after 2 incidents, 50ms cooldown.
  std::atomic<bool> Failing{true};
  St.setFaultHook([&](const char *) { return Failing.load(); });

  front::CanonicalHash H{0x1234, 0x5678};
  ResultStore::T1Entry E;
  E.Exit = front::ExitVerified;
  E.Verdict = "VERIFIED\n";

  EXPECT_STREQ("closed", St.breakerStateName());
  EXPECT_FALSE(St.store(H, E)); // Incident 1.
  EXPECT_STREQ("closed", St.breakerStateName());
  EXPECT_FALSE(St.store(H, E)); // Incident 2: trips.
  EXPECT_STREQ("open", St.breakerStateName());
  EXPECT_EQ(1u, St.breakerTrips());

  // Open: the disk is never touched, operations are counted Bypassed.
  EXPECT_FALSE(St.lookup(H).has_value());
  EXPECT_FALSE(St.store(H, E));
  EXPECT_GE(St.stats().Bypassed, 2u);

  // Cooldown elapses: half-open lets a probe through; while the fault
  // persists the probe re-trips the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_STREQ("half_open", St.breakerStateName());
  EXPECT_FALSE(St.store(H, E));
  EXPECT_STREQ("open", St.breakerStateName());
  EXPECT_EQ(2u, St.breakerTrips());

  // Disk heals: the next half-open probe succeeds and closes the
  // breaker for good.
  Failing.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_STREQ("half_open", St.breakerStateName());
  EXPECT_TRUE(St.store(H, E));
  EXPECT_STREQ("closed", St.breakerStateName());
  ASSERT_TRUE(St.lookup(H).has_value());
  EXPECT_EQ("VERIFIED\n", St.lookup(H)->Verdict);
  EXPECT_EQ(2u, St.breakerTrips());
}

TEST_F(ResilTest, CorruptT1EntryIsHealedInPlace) {
  Server Srv(options());
  VerifyResponse Cold = Srv.verify(request());
  ASSERT_EQ(front::ExitVerified, Cold.Exit);
  ASSERT_EQ(32u, Cold.Hash.size());

  // Garble the entry on disk; the next lookup must read it as a miss,
  // unlink the corpse, and the re-solve must rewrite the slot.
  std::string Path = Dir + "/t1/" + Cold.Hash + ".entry";
  {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good());
    Out << "not an entry file\n";
  }
  VerifyResponse Again = Srv.verify(request());
  EXPECT_EQ(front::ExitVerified, Again.Exit);
  EXPECT_EQ("miss", Again.Cache);
  StoreStats S = Srv.store().stats();
  EXPECT_EQ(1u, S.T1Corrupt);
  EXPECT_EQ(1u, S.T1Healed);
  EXPECT_EQ(2u, S.T1Writes);
  // And the slot is warm again.
  EXPECT_EQ("hit", Srv.verify(request()).Cache);
  EXPECT_STREQ("closed", Srv.store().breakerStateName());
}

TEST_F(ResilTest, ServerBypassesABrokenStoreAndKeepsServing) {
  // The daemon-level view: a store whose every access corrupts trips
  // the breaker, and verifies keep succeeding -- just cold.
  ServerOptions O = options();
  O.Faults = "seed=3;store_read:throw@always;store_write:throw@always";
  O.StoreTuning.BreakerThreshold = 2;
  O.StoreTuning.BreakerCooldownSeconds = 60; // Stays open for the test.
  Server Srv(O);

  for (int I = 0; I < 3; ++I) {
    VerifyRequest R = request();
    R.File = "req" + std::to_string(I) + ".sharpie";
    EXPECT_EQ(front::ExitVerified, Srv.verify(R).Exit) << I;
  }
  EXPECT_STREQ("open", Srv.store().breakerStateName());
  EXPECT_GE(Srv.store().breakerTrips(), 1u);
  EXPECT_GE(Srv.store().stats().Bypassed, 1u);
  Json H = Srv.healthJson();
  EXPECT_EQ("open", H.get("store_breaker").asString());
  EXPECT_GE(H.get("breaker_trips").asInt(), 1);
  // The registry saw the trip too (ctr_breaker_trips in DESIGN.md s12).
  EXPECT_GE(Srv.registry().counterSum("breaker_trips"), 1);
}

// -- Health op ---------------------------------------------------------------

TEST_F(ResilTest, HealthOpReportsReadinessAndAdmissionLoad) {
  ServerOptions O = options();
  O.QueueDepth = 4;
  Server Srv(O);
  Json H = Srv.dispatch(parseJson("{\"op\":\"health\"}", nullptr));
  EXPECT_TRUE(H.get("ok").asBool());
  EXPECT_EQ("ready", H.get("state").asString());
  EXPECT_FALSE(H.get("draining").asBool());
  EXPECT_EQ(0, H.get("admitted").asInt());
  EXPECT_EQ(6, H.get("admission_capacity").asInt());
  EXPECT_GE(H.get("retry_after_ms").asInt(), 50);
  EXPECT_EQ("closed", H.get("store_breaker").asString());

  Srv.drain();
  Json D = Srv.dispatch(parseJson("{\"op\":\"health\"}", nullptr));
  EXPECT_EQ("draining", D.get("state").asString());
  EXPECT_TRUE(D.get("draining").asBool());
}

// -- Access-log disposition schema -------------------------------------------

TEST_F(ResilTest, AccessLogPinsTheDispositionSchema) {
  std::string LogPath = Dir + "_access.log";
  ::unlink(LogPath.c_str());
  ServerOptions O = options();
  O.RequestWorkers = 1;
  O.QueueDepth = 0; // Capacity 1: the second concurrent request sheds.
  O.AccessLogPath = LogPath;
  {
    Server Srv(O);
    // Line 1: a normal ok request.
    ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
    // Line 2: a shed -- fill the single slot with a slow request, then
    // dispatch into the full queue.
    std::thread Busy(
        [&] { (void)Srv.dispatch(slowRequest(400).encode()); });
    while (Srv.admitted() < 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    VerifyResponse Shed =
        VerifyResponse::decode(Srv.dispatch(request().encode()));
    EXPECT_EQ("shed", Shed.Disposition);
    Busy.join();
    // Line 4 (after the slow request's own line): a draining shed.
    Srv.drain();
    VerifyResponse Drn =
        VerifyResponse::decode(Srv.dispatch(request().encode()));
    EXPECT_EQ("draining", Drn.Disposition);
  }

  std::ifstream In(LogPath);
  ASSERT_TRUE(In.good());
  std::vector<Json> Requests;
  bool SawDrainEvent = false;
  std::string Line;
  while (std::getline(In, Line)) {
    std::string Err;
    Json J = parseJson(Line, &Err);
    ASSERT_TRUE(Err.empty()) << Err << " in: " << Line;
    if (J.get("event").asString() == "drain")
      SawDrainEvent = true;
    else if (J.get("event").asString() == "request")
      Requests.push_back(J);
  }
  ::unlink(LogPath.c_str());

  // Every request line carries a disposition from the pinned
  // vocabulary; sheds also carry the retry context.
  const std::set<std::string> Vocab = {"ok",       "shed",
                                       "draining", "deadline",
                                       "cancelled", "drain_cancelled"};
  ASSERT_GE(Requests.size(), 4u);
  int Ok = 0, ShedN = 0, DrainingN = 0;
  for (const Json &R : Requests) {
    std::string D = R.get("disposition").asString();
    EXPECT_TRUE(Vocab.count(D)) << "unknown disposition: " << D;
    if (D == "ok") {
      ++Ok;
      EXPECT_EQ("verified", R.get("outcome").asString());
      // Present and numeric; a zero wait round-trips as an integer.
      Json::Type QT = R.get("queue_seconds").type();
      EXPECT_TRUE(QT == Json::Type::Double || QT == Json::Type::Int);
      EXPECT_GE(R.get("queue_seconds").asDouble(), 0.0);
    } else if (D == "shed" || D == "draining") {
      D == "shed" ? ++ShedN : ++DrainingN;
      EXPECT_GE(R.get("retry_after_ms").asInt(), 50);
      EXPECT_EQ(Json::Type::Int, R.get("admitted").type());
      EXPECT_EQ(Json::Type::Int, R.get("capacity").type());
    }
  }
  EXPECT_GE(Ok, 2); // The warm-up and the slow request both finished.
  EXPECT_EQ(1, ShedN);
  EXPECT_EQ(1, DrainingN);
  EXPECT_TRUE(SawDrainEvent); // drain() wrote its summary line.
}

// -- Serve-layer chaos under concurrency (also the TSan target) --------------

TEST_F(ResilTest, ConcurrentDispatchWithStoreFaultsIsSafe) {
  // Four concurrent dispatches racing probabilistic store_read /
  // store_write corruption, breaker transitions, health probes and a
  // final drain. Under TSan this pins the locking of the admission
  // counters, the token registry, the shared fault injector and the
  // breaker.
  ServerOptions O = options();
  O.RequestWorkers = 4; // All four dispatches genuinely race.
  O.Faults = "seed=5;store_read:throw@p=0.5;store_write:throw@p=0.5";
  O.StoreTuning.BreakerThreshold = 2;
  O.StoreTuning.BreakerCooldownSeconds = 0.01;
  Server Srv(O);
  std::vector<std::thread> Ts;
  std::atomic<int> Verified{0};
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&, I] {
      VerifyRequest R = request();
      R.File = "req" + std::to_string(I) + ".sharpie";
      VerifyResponse Resp =
          VerifyResponse::decode(Srv.dispatch(R.encode()));
      if (Resp.Exit == front::ExitVerified)
        Verified.fetch_add(1);
      (void)Srv.healthJson().dump();
      (void)Srv.statusJson().dump();
    });
  for (std::thread &T : Ts)
    T.join();
  // Store chaos must never change verdicts, only cache traffic.
  EXPECT_EQ(4, Verified.load());
  EXPECT_EQ(0u, Srv.admitted());
  Srv.drain();
  EXPECT_EQ("draining",
            Srv.healthJson().get("state").asString());
}

} // namespace
