//===- tests/serve_server_test.cpp - In-process server tests ------------------===//
//
// Part of sharpie. Drives serve::Server through its in-process API (no
// sockets, no subprocesses) -- the same methods the socket shell calls,
// so these tests pin the request semantics the wire exposes: cold
// verify, warm tier-1 hit with byte-identical output, chaos bypass,
// error surfaces, cooperative cancellation, and concurrent requests
// against one store (the TSan target).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "front/ExitCodes.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
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

class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "sharpie_serve_" +
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

  std::string Dir;
};

TEST_F(ServerTest, ColdVerifySolvesAndPopulatesTheStore) {
  Server Srv(options());
  VerifyResponse Resp = Srv.verify(request());
  EXPECT_EQ(front::ExitVerified, Resp.Exit);
  EXPECT_EQ("miss", Resp.Cache);
  EXPECT_EQ(32u, Resp.Hash.size());
  EXPECT_NE(std::string::npos, Resp.Output.find("== increment =="));
  EXPECT_NE(std::string::npos, Resp.Output.find("VERIFIED"));
  EXPECT_TRUE(Resp.Error.empty());
  StoreStats St = Srv.store().stats();
  EXPECT_EQ(1u, St.T1Writes);
  EXPECT_EQ(1u, St.T1Misses);
}

// The --json line names the request's file, which arrives over the wire
// from outside: a name with a quote and a backslash must still yield a
// line that parses, on the cold path and on the tier-1 replay.
TEST_F(ServerTest, JsonLineEscapesTheFileName) {
  Server Srv(options());
  VerifyRequest R = request();
  R.File = "odd\"dir\\increment.sharpie";
  R.JsonLine = true;
  for (const char *Cache : {"miss", "hit"}) {
    VerifyResponse Resp = Srv.verify(R);
    ASSERT_EQ(front::ExitVerified, Resp.Exit);
    EXPECT_EQ(Cache, Resp.Cache);
    size_t Begin = Resp.Output.find("\n{");
    ASSERT_NE(std::string::npos, Begin) << Resp.Output;
    std::string Line = Resp.Output.substr(
        Begin + 1, Resp.Output.find('\n', Begin + 1) - Begin - 1);
    std::string Err;
    Json J = parseJson(Line, &Err);
    ASSERT_TRUE(Err.empty()) << Err << " in " << Line;
    EXPECT_EQ(R.File, J.get("file").asString());
    EXPECT_EQ("increment", J.get("protocol").asString());
  }
}

TEST_F(ServerTest, WarmVerifyReplaysTheIdenticalOutput) {
  Server Srv(options());
  VerifyResponse Cold = Srv.verify(request());
  ASSERT_EQ(front::ExitVerified, Cold.Exit);
  VerifyResponse Warm = Srv.verify(request());
  EXPECT_EQ(front::ExitVerified, Warm.Exit);
  EXPECT_EQ("hit", Warm.Cache);
  EXPECT_EQ(Cold.Hash, Warm.Hash);
  // The stored verdict is byte-exact, so without the timing-bearing JSON
  // line the warm output is the cold output.
  EXPECT_EQ(Cold.Output, Warm.Output);
}

TEST_F(ServerTest, WarmHitSurvivesAServerRestart) {
  {
    Server Srv(options());
    ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
  }
  Server Srv2(options()); // Fresh process stand-in: same store dir.
  VerifyResponse Warm = Srv2.verify(request());
  EXPECT_EQ(front::ExitVerified, Warm.Exit);
  EXPECT_EQ("hit", Warm.Cache);
}

TEST_F(ServerTest, ReformattedSourceStillHits) {
  Server Srv(options());
  ASSERT_EQ("miss", Srv.verify(request()).Cache);
  VerifyRequest R = request();
  R.ProtocolText =
      "// a comment the lexer erases\n" + R.ProtocolText + "\n\n";
  EXPECT_EQ("hit", Srv.verify(R).Cache);
}

TEST_F(ServerTest, JsonLineCarriesCacheLookupTiming) {
  Server Srv(options());
  VerifyRequest R = request();
  R.JsonLine = true;
  VerifyResponse Cold = Srv.verify(R);
  EXPECT_NE(std::string::npos, Cold.Output.find("\"cache_lookup_seconds\":"));
  VerifyResponse Warm = Srv.verify(R);
  EXPECT_EQ("hit", Warm.Cache);
  EXPECT_NE(std::string::npos, Warm.Output.find("\"cache_lookup_seconds\":"));
  EXPECT_NE(std::string::npos, Warm.Output.find("\"synth_seconds\":0.000"));
}

TEST_F(ServerTest, ParseErrorReturnsExitErrorWithDiagnostic) {
  Server Srv(options());
  VerifyRequest R = request();
  R.ProtocolText = "protocol broken {";
  VerifyResponse Resp = Srv.verify(R);
  EXPECT_EQ(front::ExitError, Resp.Exit);
  EXPECT_FALSE(Resp.Error.empty());
  EXPECT_TRUE(Resp.Hash.empty()); // No lowered problem, no identity.
  EXPECT_EQ(0u, Srv.store().stats().T1Writes);
}

TEST_F(ServerTest, BadFaultPlanReturnsExitError) {
  Server Srv(options());
  VerifyRequest R = request();
  R.Faults = "this is not a fault plan";
  VerifyResponse Resp = Srv.verify(R);
  EXPECT_EQ(front::ExitError, Resp.Exit);
  EXPECT_NE(std::string::npos, Resp.Error.find("bad fault plan"));
}

// The wire takes the CLI's numeric knobs, so it rejects what the CLI
// rejects: a negative or non-numeric value exits 3 naming the field, and
// the request is never solved (nor, through dispatch(), admitted).
TEST_F(ServerTest, NegativeOrNonNumericKnobsAreRejected) {
  Server Srv(options());
  for (const char *Field :
       {"workers", "max_tuples", "smt_timeout_ms", "time_budget"})
    for (const Json &Bad : {Json(-1), Json("2")}) {
      Json J = request().encode();
      J[Field] = Bad;
      VerifyResponse R = VerifyResponse::decode(Srv.handle(J));
      EXPECT_EQ(front::ExitError, R.Exit) << Field << " = " << Bad.dump();
      EXPECT_NE(std::string::npos, R.Error.find(Field)) << R.Error;
      EXPECT_TRUE(R.Output.empty()) << R.Output;
    }
  Json J = request().encode();
  J["workers"] = Json(-1);
  VerifyResponse R = VerifyResponse::decode(Srv.dispatch(J));
  EXPECT_EQ(front::ExitError, R.Exit);
  EXPECT_NE(std::string::npos, R.Error.find("workers")) << R.Error;
  StoreStats St = Srv.store().stats();
  EXPECT_EQ(0u, St.T1Hits + St.T1Misses);
  EXPECT_EQ(0u, Srv.admitted());
}

TEST_F(ServerTest, ChaosRequestsBypassTheCacheBothWays) {
  Server Srv(options());
  // Warm the cache first so a fault request *could* hit if it looked.
  ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
  VerifyRequest R = request();
  R.Faults = "seed=7;smt_check:timeout@p=0.3";
  VerifyResponse Resp = Srv.verify(R);
  EXPECT_EQ("off", Resp.Cache); // Never looked at tier 1.
  StoreStats St = Srv.store().stats();
  EXPECT_EQ(1u, St.T1Writes); // And never wrote, whatever the outcome.
  EXPECT_EQ(1u, St.T1Hits + St.T1Misses); // Only the warming run looked.
}

TEST_F(ServerTest, PreCancelledRequestIsInconclusiveNotWedged) {
  Server Srv(options());
  engine::CancellationToken Tok;
  Tok.cancel();
  VerifyResponse Resp = Srv.verify(request(), &Tok);
  EXPECT_EQ(front::ExitInconclusive, Resp.Exit);
  // A cancelled run must never publish its partial result.
  EXPECT_EQ(0u, Srv.store().stats().T1Writes);
}

TEST_F(ServerTest, HandleDispatchesAndRejectsUnknownOps) {
  Server Srv(options());
  Json Status = Srv.handle(parseJson("{\"op\":\"status\"}", nullptr));
  EXPECT_TRUE(Status.get("ok").asBool());
  EXPECT_TRUE(Status.get("store_enabled").asBool());
  EXPECT_EQ(2, Status.get("request_workers").asInt());

  Json Stats = Srv.handle(parseJson("{\"op\":\"cache_stats\"}", nullptr));
  EXPECT_TRUE(Stats.get("ok").asBool());
  EXPECT_EQ(0, Stats.get("t1_hits").asInt());

  Json Bad = Srv.handle(parseJson("{\"op\":\"frobnicate\"}", nullptr));
  EXPECT_FALSE(Bad.get("ok").asBool());
  EXPECT_NE(std::string::npos, Bad.get("error").asString().find("frobnicate"));

  Json Down = Srv.handle(parseJson("{\"op\":\"shutdown\"}", nullptr));
  EXPECT_TRUE(Down.get("ok").asBool());
  EXPECT_TRUE(Srv.shutdownRequested());
}

TEST_F(ServerTest, VerifyViaHandleRoundTripsTheWireEncoding) {
  Server Srv(options());
  VerifyRequest R = request();
  R.JsonLine = true;
  Json Wire = Srv.handle(R.encode());
  VerifyResponse Resp = VerifyResponse::decode(Wire);
  EXPECT_EQ(front::ExitVerified, Resp.Exit);
  EXPECT_NE(std::string::npos, Resp.Output.find("VERIFIED"));
  EXPECT_EQ("miss", Resp.Cache);
}

// -- Telemetry ---------------------------------------------------------------

TEST_F(ServerTest, MetricsLabelColdThenWarmRequests) {
  Server Srv(options());
  ASSERT_EQ("miss", Srv.verify(request()).Cache);
  ASSERT_EQ("hit", Srv.verify(request()).Cache);
  EXPECT_EQ(2u, Srv.registry().recorded());

  Json M = Srv.metricsJson();
  EXPECT_TRUE(M.get("ok").asBool());
  // The cold miss and the tier-1 replay land in distinct labeled cells.
  EXPECT_EQ(1, M.get("requests").get("verified").get("cold").asInt());
  EXPECT_EQ(1, M.get("requests").get("verified").get("t1_hit").asInt());
  EXPECT_EQ(0, M.get("requests").get("error").get("cold").asInt());
  EXPECT_GT(M.get("request_seconds").get("verified").get("cold").asDouble(),
            0.0);
  // Each request counted its own store-tier probe.
  EXPECT_EQ(1, M.get("counters").get("serve_t1_hits").asInt());
  EXPECT_EQ(1, M.get("counters").get("serve_t1_misses").asInt());
  // The cold solve sampled engine histograms into the registry.
  EXPECT_GE(M.get("hists").get("reduce_ms").get("count").asInt(), 1);
  EXPECT_GE(M.get("hists").get("formula_atoms").get("count").asInt(), 1);
  EXPECT_GE(M.get("hists").get("instantiations_per_check").get("count")
                .asInt(), 1);
  EXPECT_EQ(2.0, M.get("gauges").get("served_requests").asDouble());

  std::string P = Srv.metricsProm();
  EXPECT_NE(std::string::npos,
            P.find("sharpie_requests_total{outcome=\"verified\","
                   "cache_tier=\"cold\"} 1\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_requests_total{outcome=\"verified\","
                   "cache_tier=\"t1_hit\"} 1\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_ctr_serve_t1_hits_total 1\n"));
  EXPECT_NE(std::string::npos, P.find("# TYPE sharpie_hist_reduce_ms"
                                      " histogram\n"));
  EXPECT_NE(std::string::npos, P.find("# TYPE sharpie_served_requests"
                                      " gauge\n"));
}

TEST_F(ServerTest, MetricsOpSpeaksJsonAndPromOnTheWire) {
  Server Srv(options());
  ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);

  Json J = Srv.handle(parseJson("{\"op\":\"metrics\"}", nullptr));
  EXPECT_TRUE(J.get("ok").asBool());
  EXPECT_EQ(1, J.get("requests").get("verified").get("cold").asInt());

  Json P = Srv.handle(
      parseJson("{\"op\":\"metrics\",\"format\":\"prom\"}", nullptr));
  EXPECT_TRUE(P.get("ok").asBool());
  EXPECT_EQ("prom", P.get("format").asString());
  EXPECT_NE(std::string::npos,
            P.get("text").asString().find(
                "# TYPE sharpie_requests_total counter\n"));

  Json Bad = Srv.handle(
      parseJson("{\"op\":\"metrics\",\"format\":\"xml\"}", nullptr));
  EXPECT_FALSE(Bad.get("ok").asBool());
}

TEST_F(ServerTest, DumpTraceCoversNeverExplicitlyTracedRequests) {
  // No tracing was requested anywhere: the flight recorder alone must be
  // able to produce a loadable trace for a past request.
  Server Srv(options());
  ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
  EXPECT_EQ(1u, Srv.flight().retained());
  EXPECT_LE(Srv.flight().approxBytes(), Srv.flight().memoryCeilingBytes());

  Json D = Srv.handle(parseJson("{\"op\":\"dump_trace\"}", nullptr));
  EXPECT_TRUE(D.get("ok").asBool());
  EXPECT_EQ("perfetto", D.get("format").asString());
  EXPECT_EQ(1, D.get("matched").asInt());
  const std::string &Doc = D.get("trace").asString();
  std::string Err;
  Json T = parseJson(Doc, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_TRUE(T.get("traceEvents").isArray());
  EXPECT_GT(T.get("traceEvents").asArray().size(), 4u);
  // The request's phase spans all made it into the document.
  for (const char *Phase :
       {"request", "parse", "hash_lookup", "synth", "render"})
    EXPECT_NE(std::string::npos,
              Doc.find("\"name\":\"" + std::string(Phase) + "\""))
        << Phase;

  Json L = Srv.dumpTraceJson(1, "jsonl");
  EXPECT_TRUE(L.get("ok").asBool());
  EXPECT_EQ(1, L.get("matched").asInt());
  EXPECT_NE(std::string::npos, L.get("trace").asString().find(
                                   "\"request\":1,"));
  EXPECT_EQ(0, Srv.dumpTraceJson(999).get("matched").asInt());
  EXPECT_FALSE(Srv.dumpTraceJson(0, "xml").get("ok").asBool());
}

TEST_F(ServerTest, AccessLogWritesOneParseableJsonLinePerRequest) {
  std::string LogPath = Dir + "_access.log";
  ::unlink(LogPath.c_str());
  ServerOptions O = options();
  O.AccessLogPath = LogPath;
  {
    Server Srv(O);
    ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
    ASSERT_EQ("hit", Srv.verify(request()).Cache);
  }
  std::ifstream In(LogPath);
  ASSERT_TRUE(In.good());
  std::vector<Json> Lines;
  std::string Line;
  while (std::getline(In, Line)) {
    std::string Err;
    Json J = parseJson(Line, &Err);
    ASSERT_TRUE(Err.empty()) << Err << " in: " << Line;
    Lines.push_back(J);
  }
  ::unlink(LogPath.c_str());
  ASSERT_EQ(2u, Lines.size());
  EXPECT_EQ("request", Lines[0].get("event").asString());
  EXPECT_EQ(1, Lines[0].get("id").asInt());
  EXPECT_EQ(2, Lines[1].get("id").asInt());
  EXPECT_EQ("verified", Lines[0].get("outcome").asString());
  EXPECT_EQ("cold", Lines[0].get("cache_tier").asString());
  EXPECT_EQ("t1_hit", Lines[1].get("cache_tier").asString());
  EXPECT_EQ(32u, Lines[0].get("hash").asString().size());
  EXPECT_EQ(Lines[0].get("hash").asString(),
            Lines[1].get("hash").asString());
  EXPECT_GT(Lines[0].get("server_seconds").asDouble(), 0.0);
  // The synthesis width: 1 for the cold solve, 0 for the tier-1 hit,
  // which ran no search.
  EXPECT_EQ(1, Lines[0].get("workers").asInt());
  EXPECT_EQ(0, Lines[1].get("workers").asInt());
  EXPECT_FALSE(Lines[0].get("slow").asBool());
}

TEST_F(ServerTest, WatchdogFlagsSlowRequestsAndStampsTheTrace) {
  ServerOptions O = options();
  O.SlowRequestSeconds = 0.0001; // Everything is slow at 100us.
  Server Srv(O);
  ASSERT_EQ(front::ExitVerified, Srv.verify(request()).Exit);
  EXPECT_GE(Srv.slowRequests(), 1u);
  Json D = Srv.dumpTraceJson(1);
  ASSERT_TRUE(D.get("ok").asBool());
  EXPECT_NE(std::string::npos,
            D.get("trace").asString().find("slow_request"));
  EXPECT_GE(Srv.statusJson().get("slow_requests").asInt(), 1);
}

TEST_F(ServerTest, StatusCarriesCumulativeCountersAndTierTraffic) {
  Server Srv(options());
  ASSERT_EQ("miss", Srv.verify(request()).Cache);
  ASSERT_EQ("hit", Srv.verify(request()).Cache);
  Json S = Srv.statusJson();
  EXPECT_EQ(1, S.get("t1_hits").asInt());
  EXPECT_EQ(1, S.get("t1_misses").asInt());
  EXPECT_EQ(0, S.get("slow_requests").asInt());
  // The clean run retried/fell back/skipped nothing, but the cumulative
  // fields are present (distinguish 0 from absent).
  EXPECT_EQ(Json::Type::Int, S.get("ctr_retries").type());
  EXPECT_EQ(Json::Type::Int, S.get("ctr_fallbacks").type());
  EXPECT_EQ(Json::Type::Int, S.get("ctr_tuples_skipped").type());
  EXPECT_GE(S.get("t2_misses").asInt() + S.get("t2_hits").asInt(), 0);
}

TEST_F(ServerTest, ConcurrentRequestsMetricsScrapesAndDumpsAreSafe) {
  // The TSan companion to ConcurrentRequestsShareOneStoreSafely: verify
  // traffic racing metrics scrapes, trace dumps and the watchdog. Pins
  // the registry/flight/live-table locking the telemetry layer adds.
  ServerOptions O = options();
  O.SlowRequestSeconds = 0.001;
  Server Srv(O);
  std::vector<std::thread> Ts;
  std::atomic<int> Verified{0};
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&, I] {
      VerifyRequest R = request();
      R.File = "req" + std::to_string(I) + ".sharpie";
      if (Srv.verify(R).Exit == front::ExitVerified)
        Verified.fetch_add(1);
      (void)Srv.metricsJson().dump();
      (void)Srv.metricsProm();
      (void)Srv.dumpTraceJson().dump();
      (void)Srv.statusJson().dump();
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(4, Verified.load());
  EXPECT_EQ(4u, Srv.registry().recorded());
  EXPECT_EQ(4u, Srv.flight().retained());
  EXPECT_LE(Srv.flight().approxBytes(), Srv.flight().memoryCeilingBytes());
}

TEST_F(ServerTest, ConcurrentRequestsShareOneStoreSafely) {
  // Four threads, one server, one store: mixed cold/warm traffic plus
  // status/cache_stats probes racing the solves. Run under TSan this
  // pins the locking of ResultStore, ReduceCache and the counters.
  Server Srv(options());
  std::vector<std::thread> Ts;
  std::vector<VerifyResponse> Resps(4);
  for (int I = 0; I < 4; ++I)
    Ts.emplace_back([&, I] {
      VerifyRequest R = request();
      R.File = "req" + std::to_string(I) + ".sharpie";
      R.JsonLine = true;
      Resps[I] = Srv.verify(R);
      (void)Srv.statusJson().dump();
      (void)Srv.cacheStatsJson().dump();
    });
  for (std::thread &T : Ts)
    T.join();
  for (const VerifyResponse &Resp : Resps)
    EXPECT_EQ(front::ExitVerified, Resp.Exit);
  StoreStats St = Srv.store().stats();
  // Every request either hit or missed tier 1; post-race totals add up.
  EXPECT_EQ(4u, St.T1Hits + St.T1Misses);
  EXPECT_GE(St.T1Writes, 1u);

  // Cold requests that overlapped on the shared reduce cache still each
  // report their own counts: every scalar equals its request's counter
  // (an absent counter reads as 0).
  for (const VerifyResponse &Resp : Resps) {
    if (Resp.Cache != "miss")
      continue;
    size_t Begin = Resp.Output.find("\n{");
    ASSERT_NE(std::string::npos, Begin) << Resp.Output;
    std::string Err;
    Json J = parseJson(Resp.Output.substr(Begin + 1,
                                          Resp.Output.find('\n', Begin + 1) -
                                              Begin - 1),
                       &Err);
    ASSERT_TRUE(Err.empty()) << Err;
    const std::pair<const char *, const char *> Pairs[] = {
        {"cache_misses", "ctr_reduce_cache_misses"},
        {"cache_hits", "ctr_reduce_cache_hits"},
        {"smt_checks", "ctr_smt_checks"},
        {"tuples_tried", "ctr_tuples_tried"}};
    for (const auto &[Scalar, Counter] : Pairs)
      EXPECT_EQ(J.get(Scalar).asInt(), J.get(Counter).asInt()) << Scalar;
  }
}

} // namespace
