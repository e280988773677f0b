//===- bench/bench_obs.cpp - Tracing overhead micro-benchmarks ------------------===//
//
// Part of sharpie. Guards the obs layer's two cost promises (src/obs/Obs.h):
//
//   * disabled path: with a null buffer every instrumentation site
//     is one null-pointer branch -- no allocation, no lock, no clock read.
//     BM_DisabledSpan/BM_DisabledLogf should sit within noise of
//     BM_BareLoop (sub-nanosecond per site);
//   * enabled metrics without events: a span reads the clock twice and
//     adds its duration to its name's total, counters and samples stay
//     thread-local map updates -- no event buffering, no lock;
//   * end to end: a serial increment synthesis with no caller tracer
//     (metrics only, on synthesize's private quiet tracer) vs. fully
//     traced.
//
//===----------------------------------------------------------------------===//

#include "obs/Flight.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "protocols/Protocols.h"

#include <benchmark/benchmark.h>

using namespace sharpie;

namespace {

// Baseline: the loop and DoNotOptimize overhead by itself.
void BM_BareLoop(benchmark::State &State) {
  int X = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(++X);
}
BENCHMARK(BM_BareLoop);

// One span + one counter + one histogram sample against a null buffer --
// the exact shape of an instrumented pipeline site with tracing off.
void BM_DisabledSpan(benchmark::State &State) {
  obs::TraceBuffer *TB = nullptr;
  int X = 0;
  for (auto _ : State) {
    obs::Span Sp(TB, "site", [] { return std::string("never rendered"); });
    if (TB) {
      TB->counter("n", 1);
      TB->sample("ms", 1.0);
    }
    benchmark::DoNotOptimize(++X);
  }
}
BENCHMARK(BM_DisabledSpan);

// The log macro with a deliberately expensive argument: the string must
// not be built when the buffer is null.
void BM_DisabledLogf(benchmark::State &State) {
  obs::TraceBuffer *TB = nullptr;
  int X = 0;
  for (auto _ : State) {
    SHARPIE_LOGF(TB, obs::LogLevel::Debug, "%s",
                 std::string(1024, 'x').c_str());
    benchmark::DoNotOptimize(++X);
  }
}
BENCHMARK(BM_DisabledLogf);

// Metrics-only tracer (no event collection, quiet log): what --stats costs.
void BM_MetricsOnlySite(benchmark::State &State) {
  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(0);
  int X = 0;
  for (auto _ : State) {
    obs::Span Sp(TB, "site");
    TB->counter("n", 1);
    TB->sample("ms", 1.0);
    benchmark::DoNotOptimize(++X);
  }
}
BENCHMARK(BM_MetricsOnlySite);

// Full event collection: what --trace-out costs per site.
void BM_EventsOnSite(benchmark::State &State) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  obs::TraceBuffer *TB = T.worker(0);
  int X = 0;
  for (auto _ : State) {
    obs::Span Sp(TB, "site", [] { return std::string("detail"); });
    TB->counter("n", 1);
    benchmark::DoNotOptimize(++X);
  }
}
BENCHMARK(BM_EventsOnSite);

// End to end: one serial increment synthesis, untraced vs. fully traced.
// The untraced run still records metrics (its counts come from them);
// the traced one bounds the cost of --trace-out on a real run.
void runIncrementOnce(obs::Tracer *T) {
  logic::TermManager M;
  protocols::ProtocolBundle B = protocols::makeIncrement(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 1;
  Opts.Trace = T;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  benchmark::DoNotOptimize(R.Verified);
}

void BM_SynthIncrementUntraced(benchmark::State &State) {
  for (auto _ : State)
    runIncrementOnce(nullptr);
}
BENCHMARK(BM_SynthIncrementUntraced)->Unit(benchmark::kMillisecond);

void BM_SynthIncrementTraced(benchmark::State &State) {
  for (auto _ : State) {
    obs::TracerConfig Cfg;
    Cfg.CollectEvents = true;
    obs::Tracer T(Cfg);
    runIncrementOnce(&T);
  }
}
BENCHMARK(BM_SynthIncrementTraced)->Unit(benchmark::kMillisecond);

// Registry aggregation: what the daemon pays once per finished request
// to fold a realistic MetricsSummary (a handful of counters, a few
// histograms) into the process-wide registry. Must stay microseconds --
// it runs on the request thread after the verdict.
void BM_RegistryRecord(benchmark::State &State) {
  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(0);
  for (int I = 0; I < 50; ++I) {
    TB->counter("smt_checks", 1);
    TB->counter("tuples_tried", 1);
    TB->sample("smt_ms", 0.5 + I);
    TB->sample("reduce_ms", 1.0 + I);
  }
  obs::MetricsSummary S = T.metrics();
  obs::MetricsRegistry R;
  for (auto _ : State) {
    R.record(obs::Outcome::Verified, obs::CacheTier::Cold, S, 0.25);
    benchmark::DoNotOptimize(R.recorded());
  }
}
BENCHMARK(BM_RegistryRecord);

// Flight-recorder capture: the per-request cost of retaining a full
// event stream (clip, account, evict) at the default limits.
void BM_FlightRecord(benchmark::State &State) {
  obs::FlightRecorder F({32, 4096, 96});
  uint64_t Id = 0;
  for (auto _ : State) {
    State.PauseTiming();
    obs::FlightRecord R;
    R.RequestId = ++Id;
    R.Outcome = "verified";
    for (int I = 0; I < 512; ++I) {
      obs::Event E;
      E.Kind = I % 2 ? obs::EventKind::SpanEnd : obs::EventKind::SpanBegin;
      E.Worker = 0;
      E.Name = "site";
      E.Detail = "detail text of plausible length for a span";
      E.TimeUs = I;
      R.Events.push_back(std::move(E));
    }
    State.ResumeTiming();
    F.record(std::move(R));
    benchmark::DoNotOptimize(F.approxBytes());
  }
}
BENCHMARK(BM_FlightRecord);

// A Prometheus scrape of a populated registry -- bounds the cost a
// monitoring poll imposes on the daemon.
void BM_PromScrape(benchmark::State &State) {
  obs::Tracer T;
  obs::TraceBuffer *TB = T.worker(0);
  for (int I = 0; I < 50; ++I) {
    TB->counter("smt_checks", 1);
    TB->sample("smt_ms", 0.5 + I);
  }
  obs::MetricsSummary S = T.metrics();
  obs::MetricsRegistry R;
  for (int I = 0; I < 100; ++I)
    R.record(obs::Outcome::Verified, obs::CacheTier::Cold, S, 0.25);
  std::vector<obs::PromGauge> G;
  G.push_back({"in_flight_requests", "help", 1, {}});
  for (auto _ : State) {
    std::string P = obs::renderProm(R.snapshot(), G);
    benchmark::DoNotOptimize(P.size());
  }
}
BENCHMARK(BM_PromScrape);

} // namespace

BENCHMARK_MAIN();
