//===- tools/sharpied.cpp - The sharpie verification daemon ---------------===//
//
// Part of sharpie. Verification-as-a-service: a long-running daemon that
// accepts line-delimited JSON requests (see serve/Proto.h) over a Unix
// or TCP socket, shards verify work across a warm thread pool, and
// answers warm requests from the persistent two-tier result store
// (serve/Store.h).
//
//   sharpied --listen ADDR [--store DIR] [--request-workers N]
//            [--synth-workers N] [--max-request-seconds S]
//            [--queue-depth N] [--drain-timeout S] [--faults PLAN]
//            [--log-level quiet|info|debug|trace]
//            [--access-log FILE] [--slow-request-seconds S]
//            [--flight-recorder N]
//
//   sharpied --ctl ADDR --op status|health|cache_stats|metrics|dump_trace|
//            shutdown [--format FMT] [--request ID]
//
// ADDR is "unix:/path/to.sock" or "HOST:PORT" (numeric IPv4; port 0 asks
// the kernel for a free port, printed in the banner). On startup the
// daemon prints exactly one line, "sharpied listening on <addr>", so
// scripts can wait for readiness. SIGINT/SIGTERM drain and exit 0.
//
// Overload policy (see serve/Server.h and DESIGN.md section 13): at most
// request-workers + queue-depth verifies are admitted; excess is shed
// with a retry_after_ms hint. --max-request-seconds is a *deadline from
// admission* -- queue wait counts. On SIGTERM the daemon stops
// admitting, gives in-flight work --drain-timeout seconds, cancels the
// rest, flushes the store, and exits 0. --faults scripts the serve-layer
// chaos sites (accept/wire_read/wire_write/store_read/store_write).
//
// Telemetry (see serve/Server.h): --access-log FILE appends one JSON
// line per finished request ("-" = stderr); --slow-request-seconds S
// arms a watchdog that flags still-running requests past S seconds;
// --flight-recorder N sets how many requests the bounded trace ring
// retains (default 32, 0 disables event capture); the metrics registry
// is always on. `--ctl` is the one client for daemon operations: the
// `metrics` op takes --format json|prom (prom prints the raw Prometheus
// exposition); `dump_trace` takes --format perfetto|jsonl and --request
// ID (0 = all) and prints the trace document itself.
//
// Every numeric flag value must be a non-negative number; anything else
// exits 3 naming the flag (tools/Flags.h).
//
// The verify client side lives in the main CLI: `sharpie FILE --server
// ADDR` ships the protocol text to a daemon and replays its byte-exact
// output and exit code.
//
//===----------------------------------------------------------------------===//

#include "front/ExitCodes.h"
#include "obs/Obs.h"
#include "serve/Client.h"
#include "serve/Server.h"

#include "Flags.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace sharpie;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen ADDR [--store DIR] [--request-workers N]\n"
      "       [--synth-workers N] [--max-request-seconds S]\n"
      "       [--queue-depth N] [--drain-timeout S] [--faults PLAN]\n"
      "       [--log-level quiet|info|debug|trace]\n"
      "       [--access-log FILE] [--slow-request-seconds S]\n"
      "       [--flight-recorder N]\n"
      "   or: %s --ctl ADDR --op status|health|cache_stats|metrics|"
      "dump_trace|shutdown\n"
      "       [--format json|prom|perfetto|jsonl] [--request ID]\n"
      "ADDR: unix:/path/to.sock or HOST:PORT\n",
      Argv0, Argv0);
}

serve::Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestShutdown();
}

int runCtl(const std::string &AddrSpec, const std::string &Op,
           const std::string &Format, uint64_t RequestId) {
  std::string Err;
  auto A = serve::parseAddr(AddrSpec, &Err);
  if (!A) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return front::ExitError;
  }
  serve::Client C;
  if (!C.connect(*A, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return front::ExitError;
  }
  serve::Json Req;
  Req["op"] = serve::Json(Op);
  if (!Format.empty())
    Req["format"] = serve::Json(Format);
  if (RequestId)
    Req["request"] = serve::Json(RequestId);
  serve::Json Resp;
  if (!C.roundTrip(Req, Resp, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return front::ExitError;
  }
  bool Ok = Resp.get("ok").asBool(false);
  // Text payloads print raw so the output pipes straight into a scraper
  // or Perfetto; everything else prints the JSON response.
  if (Ok && Op == "metrics" && Resp.get("format").asString() == "prom")
    std::printf("%s", Resp.get("text").asString().c_str());
  else if (Ok && Op == "dump_trace")
    std::printf("%s", Resp.get("trace").asString().c_str());
  else
    std::printf("%s\n", Resp.dump().c_str());
  return Ok ? 0 : front::ExitError;
}

int run(int argc, char **argv) {
  std::string Listen, Ctl, Op, Format;
  uint64_t RequestId = 0;
  serve::ServerOptions SO;
  for (int I = 1; I < argc; ++I) {
    bool ValueOk = true;
    if (!std::strcmp(argv[I], "--listen"))
      ValueOk = tools::stringFlag(argc, argv, I, Listen);
    else if (!std::strcmp(argv[I], "--ctl"))
      ValueOk = tools::stringFlag(argc, argv, I, Ctl);
    else if (!std::strcmp(argv[I], "--op"))
      ValueOk = tools::stringFlag(argc, argv, I, Op);
    else if (!std::strcmp(argv[I], "--format"))
      ValueOk = tools::stringFlag(argc, argv, I, Format);
    else if (!std::strcmp(argv[I], "--request"))
      ValueOk = tools::numericFlag(argc, argv, I, RequestId);
    else if (!std::strcmp(argv[I], "--store"))
      ValueOk = tools::stringFlag(argc, argv, I, SO.StoreDir);
    else if (!std::strcmp(argv[I], "--request-workers"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.RequestWorkers);
    else if (!std::strcmp(argv[I], "--synth-workers"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.SynthWorkers);
    else if (!std::strcmp(argv[I], "--max-request-seconds"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.MaxRequestSeconds);
    else if (!std::strcmp(argv[I], "--queue-depth"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.QueueDepth);
    else if (!std::strcmp(argv[I], "--drain-timeout"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.DrainTimeoutSeconds);
    else if (!std::strcmp(argv[I], "--faults"))
      ValueOk = tools::stringFlag(argc, argv, I, SO.Faults);
    else if (!std::strcmp(argv[I], "--access-log"))
      ValueOk = tools::stringFlag(argc, argv, I, SO.AccessLogPath);
    else if (!std::strcmp(argv[I], "--slow-request-seconds"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.SlowRequestSeconds);
    else if (!std::strcmp(argv[I], "--flight-recorder"))
      ValueOk = tools::numericFlag(argc, argv, I, SO.FlightCapacity);
    else if (!std::strcmp(argv[I], "--log-level")) {
      std::string L;
      if (!tools::stringFlag(argc, argv, I, L))
        return front::ExitError;
      if (auto P = obs::parseLogLevel(L)) {
        SO.Level = *P;
      } else {
        std::fprintf(stderr, "error: bad log level '%s'\n", L.c_str());
        return front::ExitError;
      }
    } else if (!std::strcmp(argv[I], "--help") || !std::strcmp(argv[I], "-h")) {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      usage(argv[0]);
      return front::ExitError;
    }
    if (!ValueOk)
      return front::ExitError;
  }

  if (!Ctl.empty()) {
    if (Op != "status" && Op != "health" && Op != "cache_stats" &&
        Op != "metrics" && Op != "dump_trace" && Op != "shutdown") {
      std::fprintf(stderr, "error: --ctl needs --op status|health|"
                           "cache_stats|metrics|dump_trace|shutdown\n");
      return front::ExitError;
    }
    return runCtl(Ctl, Op, Format, RequestId);
  }
  if (Listen.empty()) {
    usage(argv[0]);
    return front::ExitError;
  }

  std::string Err;
  auto A = serve::parseAddr(Listen, &Err);
  if (!A) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return front::ExitError;
  }
  serve::Server S(SO);
  if (!S.listen(*A, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return front::ExitError;
  }
  ActiveServer = &S;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);
  std::printf("sharpied listening on %s\n", S.boundAddress().c_str());
  std::fflush(stdout);
  S.serve();
  ActiveServer = nullptr;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return front::ExitError;
  } catch (...) {
    std::fprintf(stderr, "error: unknown failure\n");
    return front::ExitError;
  }
}
