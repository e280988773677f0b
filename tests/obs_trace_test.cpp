//===- tests/obs_trace_test.cpp - Tracing & trace-export tests ----------------===//
//
// Part of sharpie. Three layers of coverage for src/obs:
//
//   * unit tests of the Tracer/TraceBuffer primitives: rank-ordered
//     deterministic merge, counter running totals, histogram summaries,
//     level parsing, and the disabled (null-buffer / events-off) paths;
//   * a golden-trace test: the deterministic event skeleton of a full
//     serial `increment` synthesis run is pinned exactly against
//     tests/golden/increment_w1.trace (set SHARPIE_UPDATE_GOLDEN=1 to
//     regenerate after an intentional pipeline change);
//   * schema validation of the exported artifacts: the Chrome trace JSON
//     parses, has one named track per worker, balanced and well-nested
//     B/E spans per track, and monotone timestamps; the JSONL stream is
//     one valid object per line.
//
//===----------------------------------------------------------------------===//

#include "obs/Export.h"
#include "obs/Obs.h"
#include "protocols/Protocols.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace sharpie;
using namespace sharpie::protocols;

namespace {

// -- Minimal JSON reader ---------------------------------------------------------------
//
// Just enough of a recursive-descent parser to structurally validate the
// exporters' output without adding a dependency. Numbers are kept as
// doubles, objects as ordered key/value vectors.

struct JsonValue {
  enum Type { Null, Bool, Number, String, Array, Object } T = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  const JsonValue *field(const std::string &K) const {
    for (const auto &[Key, V] : Fields)
      if (Key == K)
        return &V;
    return nullptr;
  }
};

class JsonParser {
public:
  JsonParser(const std::string &S) : S(S) {}

  bool parse(JsonValue &Out) {
    bool Ok = value(Out);
    skipWs();
    return Ok && Pos == S.size();
  }

private:
  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  bool lit(const char *L, JsonValue &V, JsonValue::Type T, bool B) {
    size_t N = std::string(L).size();
    if (S.compare(Pos, N, L) != 0)
      return false;
    Pos += N;
    V.T = T;
    V.B = B;
    return true;
  }
  bool string(std::string &Out) {
    if (Pos >= S.size() || S[Pos] != '"')
      return false;
    ++Pos;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        if (Pos + 1 >= S.size())
          return false;
        char E = S[Pos + 1];
        if (E == 'u') {
          if (Pos + 5 >= S.size())
            return false;
          Out += '?'; // Escaped control char; exact value irrelevant here.
          Pos += 6;
          continue;
        }
        static const std::string Simple = "\"\\/bfnrt";
        if (Simple.find(E) == std::string::npos)
          return false;
        Out += E == 'n' ? '\n' : E == 't' ? '\t' : E;
        Pos += 2;
        continue;
      }
      Out += S[Pos++];
    }
    if (Pos >= S.size())
      return false;
    ++Pos; // Closing quote.
    return true;
  }
  bool value(JsonValue &V) {
    skipWs();
    if (Pos >= S.size())
      return false;
    char C = S[Pos];
    if (C == 'n')
      return lit("null", V, JsonValue::Null, false);
    if (C == 't')
      return lit("true", V, JsonValue::Bool, true);
    if (C == 'f')
      return lit("false", V, JsonValue::Bool, false);
    if (C == '"') {
      V.T = JsonValue::String;
      return string(V.Str);
    }
    if (C == '[') {
      ++Pos;
      V.T = JsonValue::Array;
      skipWs();
      if (Pos < S.size() && S[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        JsonValue E;
        if (!value(E))
          return false;
        V.Elems.push_back(std::move(E));
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      if (Pos >= S.size() || S[Pos] != ']')
        return false;
      ++Pos;
      return true;
    }
    if (C == '{') {
      ++Pos;
      V.T = JsonValue::Object;
      skipWs();
      if (Pos < S.size() && S[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipWs();
        std::string K;
        if (!string(K))
          return false;
        skipWs();
        if (Pos >= S.size() || S[Pos] != ':')
          return false;
        ++Pos;
        JsonValue E;
        if (!value(E))
          return false;
        V.Fields.emplace_back(std::move(K), std::move(E));
        skipWs();
        if (Pos < S.size() && S[Pos] == ',') {
          ++Pos;
          continue;
        }
        break;
      }
      if (Pos >= S.size() || S[Pos] != '}')
        return false;
      ++Pos;
      return true;
    }
    // Number.
    size_t Start = Pos;
    if (Pos < S.size() && (S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    while (Pos < S.size() &&
           (std::isdigit(static_cast<unsigned char>(S[Pos])) || S[Pos] == '.' ||
            S[Pos] == 'e' || S[Pos] == 'E' || S[Pos] == '-' || S[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return false;
    V.T = JsonValue::Number;
    V.Num = std::strtod(S.substr(Start, Pos - Start).c_str(), nullptr);
    return true;
  }

  const std::string &S;
  size_t Pos = 0;
};

/// Renders a FILE*-writing exporter into a string via a temp file (the
/// exporters take FILE* so the CLI can stream; tests want strings).
template <typename Writer> std::string renderToString(Writer &&W) {
  std::FILE *F = std::tmpfile();
  EXPECT_NE(F, nullptr);
  W(F);
  long N = std::ftell(F);
  std::rewind(F);
  std::string Out(static_cast<size_t>(N), '\0');
  size_t Read = std::fread(Out.data(), 1, Out.size(), F);
  Out.resize(Read);
  std::fclose(F);
  return Out;
}

/// A full serial synthesis run of `increment` observed by \p T.
void runIncrement(obs::Tracer &T) {
  logic::TermManager M;
  ProtocolBundle B = makeIncrement(M);
  synth::SynthOptions Opts = synth::optionsFor(B);
  Opts.NumWorkers = 1;
  Opts.Trace = &T;
  synth::SynthResult R = synth::synthesize(*B.Sys, Opts);
  ASSERT_TRUE(R.Verified) << R.Note;
}

// -- Tracer primitives -----------------------------------------------------------------

TEST(ObsTracer, MergeOrdersByRankThenEmission) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  // Register and emit out of rank order; the merge must not care.
  obs::TraceBuffer *W2 = T.worker(2);
  obs::TraceBuffer *W0 = T.worker(0);
  double B = W2->begin("b");
  double A = W0->begin("a");
  W2->end("b", B);
  W0->end("a", A);
  std::vector<std::string> Lines = obs::eventSkeleton(T);
  std::vector<std::string> Want = {"B w0 a", "E w0 a", "B w2 b", "E w2 b"};
  EXPECT_EQ(Lines, Want);
}

TEST(ObsTracer, CounterEventsCarryRunningTotal) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  obs::TraceBuffer *B = T.worker(0);
  B->counter("n", 2);
  B->counter("n", 3);
  std::vector<std::string> Lines = obs::eventSkeleton(T);
  std::vector<std::string> Want = {"C w0 n = 2", "C w0 n = 5"};
  EXPECT_EQ(Lines, Want);
  obs::MetricsSummary MS = T.metrics();
  const int64_t *Total = MS.counter("n");
  ASSERT_NE(Total, nullptr);
  EXPECT_EQ(*Total, 5);
}

TEST(ObsTracer, MetricsMergeAcrossWorkers) {
  obs::Tracer T;
  T.worker(0)->counter("n", 1);
  T.worker(3)->counter("n", 4);
  T.worker(0)->sample("ms", 1.0);
  T.worker(3)->sample("ms", 3.0);
  obs::MetricsSummary S = T.metrics();
  const int64_t *N = S.counter("n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(*N, 5);
  const obs::HistSummary *H = S.hist("ms");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Count, 2u);
  EXPECT_DOUBLE_EQ(H->Min, 1.0);
  EXPECT_DOUBLE_EQ(H->Max, 3.0);
  EXPECT_DOUBLE_EQ(H->mean(), 2.0);
}

TEST(ObsTracer, SamplesStayOutOfTheEventStream) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  T.worker(0)->sample("ms", 42.0);
  EXPECT_TRUE(T.mergedEvents().empty());
  EXPECT_NE(T.metrics().hist("ms"), nullptr);
}

TEST(ObsTracer, EventsOffBuffersNothingButMetricsRemain) {
  obs::Tracer T; // CollectEvents defaults to false.
  obs::TraceBuffer *B = T.worker(0);
  EXPECT_FALSE(B->eventsEnabled());
  {
    obs::Span Sp(B, "work", [] {
      ADD_FAILURE() << "lazy detail must not render with events off";
      return std::string();
    });
    B->counter("n", 1);
  }
  EXPECT_TRUE(T.mergedEvents().empty());
  obs::MetricsSummary MS = T.metrics();
  const int64_t *N = MS.counter("n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(*N, 1);
}

TEST(ObsTracer, NullBufferSpanAndLogAreNoOps) {
  obs::TraceBuffer *B = nullptr;
  {
    obs::Span Sp(B, "nothing", [] {
      ADD_FAILURE() << "lazy detail must not render on a null buffer";
      return std::string();
    });
  }
  SHARPIE_LOGF(B, obs::LogLevel::Info, "unreachable %d", 1);
}

// Spans time themselves on every buffer, events or not: a quiet tracer
// reports each name's count and seconds summed over its ranks, a nested
// span's total is at most its parent's, and a null buffer records
// nothing.
TEST(ObsTracer, QuietSpansTotalTheirTime) {
  obs::Tracer T; // CollectEvents defaults to false.
  obs::TraceBuffer *B = T.worker(0);
  double Closed = 0;
  for (int I = 0; I < 3; ++I) {
    obs::Span Outer(B, "outer");
    obs::Span Inner(B, "inner");
    volatile unsigned Sink = 0;
    for (unsigned J = 0; J < 100000; ++J)
      Sink = Sink + J;
    Closed += Inner.close();
    EXPECT_EQ(Inner.close(), 0.0) << "a span closes once";
  }
  { obs::Span OnRank1(T.worker(1), "outer"); }
  obs::Span Null(nullptr, "never");
  EXPECT_EQ(Null.seconds(), 0.0);
  EXPECT_EQ(Null.close(), 0.0);
  EXPECT_TRUE(T.mergedEvents().empty());

  obs::MetricsSummary MS = T.metrics();
  obs::SpanTotal Outer = MS.span("outer"), Inner = MS.span("inner");
  EXPECT_EQ(Outer.Count, 4u);
  EXPECT_EQ(Inner.Count, 3u);
  EXPECT_GT(Outer.Seconds, 0.0);
  EXPECT_GT(Inner.Seconds, 0.0);
  EXPECT_DOUBLE_EQ(Inner.Seconds, Closed);
  EXPECT_LE(Inner.Seconds, Outer.Seconds);
  EXPECT_EQ(MS.span("never").Count, 0u);
  EXPECT_EQ(MS.Spans.size(), 2u);
}

// A tracer shared across runs keeps counting, and each run's SynthStats
// counts and phase seconds are that run's share: the second of two runs
// on one tracer reports exactly the counts a run on a fresh tracer
// reports, and its phases fit in its own wall time.
TEST(ObsTracer, SharedTracerCountsArePerRun) {
  auto Run = [](obs::Tracer &T) {
    logic::TermManager M;
    ProtocolBundle B = makeIncrement(M);
    synth::SynthOptions Opts = synth::optionsFor(B);
    Opts.NumWorkers = 1;
    Opts.Trace = &T;
    return synth::synthesize(*B.Sys, Opts).Stats;
  };
  auto Counts = [](const synth::SynthStats &S) {
    return std::vector<uint64_t>{
        S.TuplesTried,     S.SmtChecks,        S.ExplicitStates,
        S.CacheHits,       S.CacheMisses,      S.Retries,
        S.Fallbacks,       S.FaultsInjected,   S.UnknownTimeouts,
        S.UnknownIncomplete, S.SolverExceptions, S.TuplesSkipped,
        S.WorkerExceptions};
  };
  obs::Tracer Shared, Fresh;
  Run(Shared);
  synth::SynthStats Second = Run(Shared);
  EXPECT_EQ(Counts(Second), Counts(Run(Fresh)));
  EXPECT_GT(Second.SmtChecks, 0u) << "no SMT checks counted";
  // At 1 worker the phase spans run one after another inside the run, so
  // a cumulative read of the shared tracer (both runs) would overshoot.
  double Phases = Second.ExplicitSeconds + Second.EnumerateSeconds +
                  Second.PrefilterSeconds + Second.ReduceSeconds +
                  Second.HoudiniSeconds + Second.RecheckSeconds;
  EXPECT_GT(Phases, 0.0);
  EXPECT_LE(Phases, Second.Seconds);
}

TEST(ObsTracer, ParseLogLevel) {
  EXPECT_EQ(obs::parseLogLevel("quiet"), obs::LogLevel::Quiet);
  EXPECT_EQ(obs::parseLogLevel("info"), obs::LogLevel::Info);
  EXPECT_EQ(obs::parseLogLevel("debug"), obs::LogLevel::Debug);
  EXPECT_EQ(obs::parseLogLevel("trace"), obs::LogLevel::Trace);
  EXPECT_FALSE(obs::parseLogLevel("verbose").has_value());
  EXPECT_FALSE(obs::parseLogLevel("").has_value());
}

TEST(ObsTracer, LogLevelGatesTheSink) {
  std::string Out = renderToString([](std::FILE *F) {
    obs::TracerConfig Cfg;
    Cfg.Level = obs::LogLevel::Info;
    Cfg.LogStream = F;
    obs::Tracer T(Cfg);
    obs::TraceBuffer *B = T.worker(7);
    EXPECT_TRUE(B->logEnabled(obs::LogLevel::Info));
    EXPECT_FALSE(B->logEnabled(obs::LogLevel::Debug));
    B->logf(obs::LogLevel::Info, "hello %s", "world");
    SHARPIE_LOGF(B, obs::LogLevel::Debug, "filtered out");
  });
  EXPECT_EQ(Out, "[I w7] hello world\n");
}

// -- Golden trace ----------------------------------------------------------------------

// The serial increment run's deterministic skeleton, pinned exactly. The
// skeleton excludes timestamps and histogram samples by construction, so
// any diff here is a real pipeline change (event added/removed/reordered,
// counter total changed) -- regenerate with SHARPIE_UPDATE_GOLDEN=1 and
// review the diff like source.
TEST(ObsGolden, IncrementSerialSkeleton) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  runIncrement(T);
  std::vector<std::string> Lines = obs::eventSkeleton(T);
  ASSERT_FALSE(Lines.empty());

  std::string Path = std::string(SHARPIE_REPO_ROOT) +
                     "/tests/golden/increment_w1.trace";
  if (std::getenv("SHARPIE_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    for (const std::string &L : Lines)
      Out << L << "\n";
    GTEST_SKIP() << "golden file regenerated: " << Path;
  }

  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (run with SHARPIE_UPDATE_GOLDEN=1)";
  std::vector<std::string> Want;
  for (std::string L; std::getline(In, L);)
    Want.push_back(L);

  ASSERT_EQ(Lines.size(), Want.size())
      << "event count changed: got " << Lines.size() << ", golden has "
      << Want.size();
  for (size_t I = 0; I < Lines.size(); ++I)
    ASSERT_EQ(Lines[I], Want[I]) << "first divergence at event " << I;
}

// Two serial runs produce byte-identical skeletons (the determinism the
// golden test relies on, checked directly so a golden failure can be told
// apart from plain nondeterminism).
TEST(ObsGolden, SerialSkeletonIsReproducible) {
  auto Skeleton = [] {
    obs::TracerConfig Cfg;
    Cfg.CollectEvents = true;
    obs::Tracer T(Cfg);
    runIncrement(T);
    return obs::eventSkeleton(T);
  };
  EXPECT_EQ(Skeleton(), Skeleton());
}

// The Houdini loop's observability contract: the counters and the
// per-phase check histograms it feeds must survive a full run. The
// benchmark harness (sharpiebench) reads the phase histograms and the
// manifest/refinement counters, so a rename or a dropped emission fails
// here instead of producing a silently empty benchmark column.
TEST(ObsGolden, HoudiniRunEmitsCoreDropAndPhaseMetrics) {
  obs::TracerConfig Cfg;
  Cfg.CollectEvents = true;
  obs::Tracer T(Cfg);
  runIncrement(T);
  obs::MetricsSummary S = T.metrics();

  // Emitted even when zero (run() flushes a zero delta) so consumers can
  // tell "did not fire" from "field renamed".
  for (const char *C :
       {"core_drops", "solver_context_reuses", "axioms_lazy_deferred",
        "refine_full_groundings", "refine_instances_asserted",
        "refine_budget_exhausted", "manifest_instances"}) {
    const int64_t *V = S.counter(C);
    ASSERT_NE(V, nullptr) << "missing counter " << C;
    EXPECT_GE(*V, 0) << C;
  }
  // The merged per-tuple context runs every Houdini iteration as one
  // checkAssuming; on increment that must both reuse the context and
  // convert at least one unsat core into a free minimize pass.
  EXPECT_GT(*S.counter("solver_context_reuses"), 0);
  EXPECT_GT(*S.counter("core_drops"), 0);

  for (const char *H : {"smt_ms.houdini", "smt_ms.minimize"}) {
    const obs::HistSummary *Phase = S.hist(H);
    ASSERT_NE(Phase, nullptr) << "missing " << H << " histogram";
    EXPECT_GT(Phase->Count, 0u) << H;
  }
}

// -- Exported artifact schemas ---------------------------------------------------------

class ObsExportTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::TracerConfig Cfg;
    Cfg.CollectEvents = true;
    T = std::make_unique<obs::Tracer>(Cfg);
    runIncrement(*T);
  }
  std::unique_ptr<obs::Tracer> T;
};

TEST_F(ObsExportTest, ChromeTraceSchema) {
  std::string Doc = renderToString(
      [&](std::FILE *F) { obs::writeChromeTrace(*T, F); });
  JsonValue Root;
  ASSERT_TRUE(JsonParser(Doc).parse(Root)) << "trace JSON does not parse";
  ASSERT_EQ(Root.T, JsonValue::Object);
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->T, JsonValue::Array);
  ASSERT_FALSE(Events->Elems.empty());

  std::map<double, std::vector<std::string>> OpenSpans; // tid -> name stack
  std::map<double, double> LastTs;
  std::set<double> NamedTracks;
  for (const JsonValue &E : Events->Elems) {
    ASSERT_EQ(E.T, JsonValue::Object);
    const JsonValue *Ph = E.field("ph");
    const JsonValue *Pid = E.field("pid");
    const JsonValue *Tid = E.field("tid");
    const JsonValue *Name = E.field("name");
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(Pid, nullptr);
    ASSERT_NE(Tid, nullptr);
    ASSERT_NE(Name, nullptr);
    EXPECT_EQ(Pid->Num, 1.0);
    ASSERT_EQ(Ph->T, JsonValue::String);
    ASSERT_EQ(Ph->Str.size(), 1u);
    char P = Ph->Str[0];
    ASSERT_TRUE(P == 'B' || P == 'E' || P == 'C' || P == 'i' || P == 'M')
        << "unexpected phase " << Ph->Str;
    if (P == 'M') {
      EXPECT_EQ(Name->Str, "thread_name");
      NamedTracks.insert(Tid->Num);
      continue;
    }
    const JsonValue *Ts = E.field("ts");
    ASSERT_NE(Ts, nullptr);
    EXPECT_GE(Ts->Num, 0.0);
    // Timestamps are nondecreasing per track (each worker's buffer is in
    // emission order).
    auto It = LastTs.find(Tid->Num);
    if (It != LastTs.end()) {
      EXPECT_GE(Ts->Num, It->second) << "ts regressed on tid " << Tid->Num;
    }
    LastTs[Tid->Num] = Ts->Num;
    if (P == 'B')
      OpenSpans[Tid->Num].push_back(Name->Str);
    else if (P == 'E') {
      // Stack discipline: E closes the innermost open B of the same name.
      ASSERT_FALSE(OpenSpans[Tid->Num].empty())
          << "E without B on tid " << Tid->Num;
      EXPECT_EQ(OpenSpans[Tid->Num].back(), Name->Str);
      OpenSpans[Tid->Num].pop_back();
    } else if (P == 'C') {
      const JsonValue *Args = E.field("args");
      ASSERT_NE(Args, nullptr);
      EXPECT_NE(Args->field("value"), nullptr);
    }
  }
  for (const auto &[Tid, Stack] : OpenSpans)
    EXPECT_TRUE(Stack.empty()) << "unbalanced spans on tid " << Tid;
  for (const auto &[Tid, Unused] : LastTs)
    EXPECT_TRUE(NamedTracks.count(Tid))
        << "tid " << Tid << " has no thread_name metadata";

  // The serial pipeline's signature nesting made it into the trace.
  EXPECT_NE(Doc.find("\"synthesize\""), std::string::npos);
  EXPECT_NE(Doc.find("\"tuple\""), std::string::npos);
  EXPECT_NE(Doc.find("\"houdini_iter\""), std::string::npos);
  EXPECT_NE(Doc.find("\"smt_check\""), std::string::npos);
}

TEST_F(ObsExportTest, JsonlOneValidObjectPerLine) {
  std::string Doc =
      renderToString([&](std::FILE *F) { obs::writeJsonl(*T, F); });
  std::istringstream In(Doc);
  size_t N = 0;
  for (std::string Line; std::getline(In, Line); ++N) {
    JsonValue V;
    ASSERT_TRUE(JsonParser(Line).parse(V)) << "line " << N << ": " << Line;
    ASSERT_EQ(V.T, JsonValue::Object) << "line " << N;
    for (const char *K : {"kind", "worker", "name", "ts_us"})
      EXPECT_NE(V.field(K), nullptr) << "line " << N << " lacks " << K;
  }
  EXPECT_EQ(N, T->mergedEvents().size());
}

} // namespace
