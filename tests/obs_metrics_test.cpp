//===- tests/obs_metrics_test.cpp - Registry, exposition, flight ring ---------===//
//
// Part of sharpie. Pins the service-telemetry layer:
//
//   * HistSummary percentile semantics -- nearest-rank, exact from
//     summarize() for 0/1/2 samples, bucket-approximated after merge();
//   * the log2 bucket geometry (bucketFor / bucketUpperBound);
//   * MetricsRegistry accumulation across labeled requests;
//   * the Prometheus text exposition: HELP/TYPE pairs, every
//     outcome x cache-tier combination, cumulative le-buckets, name
//     sanitization and label escaping;
//   * the FlightRecorder's fixed-memory contract: oversized requests are
//     clipped, old ones evicted, and approxBytes() never exceeds
//     memoryCeilingBytes() no matter what is thrown at it;
//   * renderFlightTrace producing a parseable Chrome-trace JSON document.
//
//===----------------------------------------------------------------------===//

#include "obs/Flight.h"
#include "obs/Metrics.h"

#include "serve/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <string>

using namespace sharpie;
using namespace sharpie::obs;

namespace {

/// Runs samples through a real tracer and returns the merged summary for
/// histogram "h" -- the exact summarize() path the pipeline uses.
HistSummary summarizeOf(std::initializer_list<double> Samples) {
  Tracer T;
  TraceBuffer *TB = T.worker(0);
  for (double V : Samples)
    TB->sample("h", V);
  MetricsSummary MS = T.metrics();
  const HistSummary *H = MS.hist("h");
  return H ? *H : HistSummary{};
}

// -- Percentile semantics ----------------------------------------------------

TEST(HistSummaryTest, ZeroSamplesMeansNoHistogramAtAll) {
  Tracer T;
  (void)T.worker(0);
  EXPECT_EQ(nullptr, T.metrics().hist("h"));
  // And a default summary answers 0 everywhere rather than faulting.
  HistSummary Empty;
  EXPECT_EQ(0u, Empty.Count);
  EXPECT_EQ(0.0, Empty.mean());
  EXPECT_EQ(0.0, Empty.percentileFromBuckets(0.99));
}

TEST(HistSummaryTest, OneSampleIsEveryPercentile) {
  HistSummary H = summarizeOf({7.25});
  EXPECT_EQ(1u, H.Count);
  EXPECT_EQ(7.25, H.Min);
  EXPECT_EQ(7.25, H.Max);
  EXPECT_EQ(7.25, H.P50);
  EXPECT_EQ(7.25, H.P90);
  EXPECT_EQ(7.25, H.P99);
}

TEST(HistSummaryTest, TwoSamplesSplitNearestRank) {
  // Nearest-rank with n=2: rank(0.5) = ceil(1.0) = 1 -> the lower
  // sample; rank(0.9) = rank(0.99) = 2 -> the upper sample.
  HistSummary H = summarizeOf({3.0, 11.0});
  EXPECT_EQ(2u, H.Count);
  EXPECT_EQ(3.0, H.P50);
  EXPECT_EQ(11.0, H.P90);
  EXPECT_EQ(11.0, H.P99);
  EXPECT_EQ(7.0, H.mean());
}

TEST(HistSummaryTest, TenSamplesNearestRankIsExact) {
  HistSummary H = summarizeOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  // rank(0.5) = 5 -> 5; rank(0.9) = 9 -> 9; rank(0.99) = 10 -> 10.
  EXPECT_EQ(5.0, H.P50);
  EXPECT_EQ(9.0, H.P90);
  EXPECT_EQ(10.0, H.P99);
}

// -- Bucket geometry ---------------------------------------------------------

TEST(HistSummaryTest, BucketBoundsArePowersOfTwo) {
  EXPECT_EQ(std::ldexp(1.0, HistSummary::MinExp),
            HistSummary::bucketUpperBound(0));
  EXPECT_EQ(1.0, HistSummary::bucketUpperBound(
                     static_cast<unsigned>(-HistSummary::MinExp)));
  // Bucket upper bounds are inclusive: an exact power of two belongs to
  // the bucket it bounds, values just above spill into the next one.
  unsigned BucketOfOne = HistSummary::bucketFor(1.0);
  EXPECT_EQ(1.0, HistSummary::bucketUpperBound(BucketOfOne));
  EXPECT_EQ(BucketOfOne + 1, HistSummary::bucketFor(1.0001));
  EXPECT_EQ(BucketOfOne + 1, HistSummary::bucketFor(2.0));
}

TEST(HistSummaryTest, BucketForClampsTheTails) {
  EXPECT_EQ(0u, HistSummary::bucketFor(0.0));
  EXPECT_EQ(0u, HistSummary::bucketFor(-5.0));
  EXPECT_EQ(0u, HistSummary::bucketFor(std::ldexp(1.0, HistSummary::MinExp)));
  EXPECT_EQ(HistSummary::NumBuckets - 1, HistSummary::bucketFor(1e30));
}

TEST(HistSummaryTest, MergeApproximatesPercentilesFromBuckets) {
  HistSummary A = summarizeOf({1.5, 1.5, 1.5});
  HistSummary B = summarizeOf({100.0});
  A.merge(B);
  EXPECT_EQ(4u, A.Count);
  EXPECT_EQ(1.5, A.Min);
  EXPECT_EQ(100.0, A.Max);
  EXPECT_EQ(104.5, A.Sum);
  // Rank(0.5) = 2 lands in the bucket holding the 1.5s; the answer is
  // that bucket's upper bound (2.0) -- an upper-bound approximation.
  EXPECT_EQ(2.0, A.P50);
  // Rank(0.99) = 4 lands in the 100.0 bucket (upper bound 128), clamped
  // to the exact observed Max.
  EXPECT_EQ(100.0, A.P99);
}

TEST(HistSummaryTest, MergeIntoEmptyCopiesAndMergeOfEmptyIsNoop) {
  HistSummary A;
  HistSummary B = summarizeOf({4.0, 8.0});
  A.merge(B);
  EXPECT_EQ(2u, A.Count);
  EXPECT_EQ(4.0, A.Min);
  EXPECT_EQ(8.0, A.Max);
  HistSummary Empty;
  HistSummary C = A;
  C.merge(Empty);
  EXPECT_EQ(A.Count, C.Count);
  EXPECT_EQ(A.P99, C.P99);
}

// -- MetricsRegistry ---------------------------------------------------------

MetricsSummary summaryWith(int64_t Checks, double Ms) {
  Tracer T;
  TraceBuffer *TB = T.worker(0);
  TB->counter("smt_checks", Checks);
  TB->sample("smt_ms", Ms);
  return T.metrics();
}

TEST(MetricsRegistryTest, RecordsAccumulateByLabelAndName) {
  MetricsRegistry R;
  EXPECT_EQ(0u, R.recorded());
  R.record(Outcome::Verified, CacheTier::Cold, summaryWith(10, 5.0), 1.5);
  R.record(Outcome::Verified, CacheTier::T1Hit, summaryWith(0, 0.25), 0.01);
  R.record(Outcome::Error, CacheTier::Cold, summaryWith(3, 2.0), 0.5);
  EXPECT_EQ(3u, R.recorded());
  EXPECT_EQ(13, R.counterSum("smt_checks"));
  EXPECT_EQ(0, R.counterSum("never_emitted"));

  MetricsRegistry::Snapshot S = R.snapshot();
  auto Idx = [](Outcome O, CacheTier T) {
    return std::make_pair(static_cast<unsigned>(O), static_cast<unsigned>(T));
  };
  auto [VO, VC] = Idx(Outcome::Verified, CacheTier::Cold);
  EXPECT_EQ(1u, S.Requests[VO][VC]);
  EXPECT_DOUBLE_EQ(1.5, S.RequestSeconds[VO][VC]);
  auto [EO, EC] = Idx(Outcome::Error, CacheTier::Cold);
  EXPECT_EQ(1u, S.Requests[EO][EC]);
  auto [NO, NT] = Idx(Outcome::NotVerified, CacheTier::T2Warm);
  EXPECT_EQ(0u, S.Requests[NO][NT]);

  ASSERT_EQ(1u, S.Hists.size());
  EXPECT_EQ("smt_ms", S.Hists[0].first);
  EXPECT_EQ(3u, S.Hists[0].second.Count);
  EXPECT_EQ(0.25, S.Hists[0].second.Min);
  EXPECT_EQ(5.0, S.Hists[0].second.Max);
}

// -- Prometheus exposition ---------------------------------------------------

TEST(PromTest, SanitizeNameAndEscapeLabel) {
  EXPECT_EQ("smt_ms_houdini", promSanitizeName("smt_ms.houdini"));
  EXPECT_EQ("card_axioms_unary", promSanitizeName("card-axioms/unary"));
  EXPECT_EQ("_9lives", promSanitizeName("9lives"));
  EXPECT_EQ("ok:name_", promSanitizeName("ok:name "));
  EXPECT_EQ("", promSanitizeName(""));
  EXPECT_EQ("a\\\\b\\\"c\\nd", promEscapeLabel("a\\b\"c\nd"));
  EXPECT_EQ("plain", promEscapeLabel("plain"));
}

TEST(PromTest, ExpositionCarriesEveryLabelComboAndHistBuckets) {
  MetricsRegistry R;
  R.record(Outcome::Verified, CacheTier::Cold, summaryWith(4, 3.0), 2.0);
  R.record(Outcome::Verified, CacheTier::T1Hit, summaryWith(0, 0.5), 0.01);

  std::vector<PromGauge> Gauges;
  Gauges.push_back({"in_flight_requests", "Requests currently running.", 2,
                    {}});
  Gauges.push_back({"server_info", "Server identity.", 1,
                    {{"store_dir", "/tmp/with\"quote"}, {"bound", "unix:x"}}});
  std::string P = renderProm(R.snapshot(), Gauges);

  // All 12 outcome x tier series are present, including never-hit ones.
  for (const char *O : {"verified", "not_verified", "inconclusive", "error"})
    for (const char *T : {"t1_hit", "t2_warm", "cold"}) {
      std::string Series = std::string("sharpie_requests_total{outcome=\"") +
                           O + "\",cache_tier=\"" + T + "\"} ";
      EXPECT_NE(std::string::npos, P.find(Series)) << Series;
    }
  EXPECT_NE(std::string::npos,
            P.find("sharpie_requests_total{outcome=\"verified\","
                   "cache_tier=\"cold\"} 1\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_request_seconds_total{outcome=\"verified\","
                   "cache_tier=\"cold\"} 2\n"));

  // Counters: HELP/TYPE pair and the _total suffix.
  EXPECT_NE(std::string::npos,
            P.find("# TYPE sharpie_ctr_smt_checks_total counter\n"
                   "sharpie_ctr_smt_checks_total 4\n"));

  // Histogram: sanitized name, cumulative le-buckets ending at +Inf,
  // _sum and _count. 0.5 and 3.0 land in distinct buckets (le 0.5, 4).
  EXPECT_NE(std::string::npos, P.find("# TYPE sharpie_hist_smt_ms histogram"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_hist_smt_ms_bucket{le=\"0.5\"} 1\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_hist_smt_ms_bucket{le=\"4\"} 2\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_hist_smt_ms_bucket{le=\"+Inf\"} 2\n"));
  EXPECT_NE(std::string::npos, P.find("sharpie_hist_smt_ms_sum 3.5\n"));
  EXPECT_NE(std::string::npos, P.find("sharpie_hist_smt_ms_count 2\n"));

  // Gauges: unlabeled and labeled with escaped values.
  EXPECT_NE(std::string::npos,
            P.find("# TYPE sharpie_in_flight_requests gauge\n"
                   "sharpie_in_flight_requests 2\n"));
  EXPECT_NE(std::string::npos,
            P.find("sharpie_server_info{store_dir=\"/tmp/with\\\"quote\","
                   "bound=\"unix:x\"} 1\n"));

  // Every exposition line is a comment or `name{labels} value`.
  ASSERT_FALSE(P.empty());
  EXPECT_EQ('\n', P.back());
}

// -- FlightRecorder ----------------------------------------------------------

FlightRecord oversizedRecord(uint64_t Id, size_t NumEvents,
                             size_t DetailLen) {
  FlightRecord R;
  R.RequestId = Id;
  R.Hash = "deadbeefdeadbeefdeadbeefdeadbeef";
  R.Outcome = "verified";
  R.TotalSeconds = 0.5;
  for (size_t I = 0; I < NumEvents; ++I) {
    Event E;
    E.Kind = I % 2 ? EventKind::SpanEnd : EventKind::SpanBegin;
    E.Worker = static_cast<uint32_t>(I % 4);
    E.Name = "synth";
    E.Detail = std::string(DetailLen, 'x');
    E.TimeUs = static_cast<double>(I);
    R.Events.push_back(std::move(E));
  }
  return R;
}

TEST(FlightRecorderTest, MemoryStaysUnderTheCeilingUnderAbuse) {
  FlightRecorder::Config C;
  C.Capacity = 4;
  C.MaxEventsPerRequest = 16;
  C.MaxDetailBytes = 8;
  FlightRecorder F(C);
  EXPECT_EQ(0u, F.approxBytes());
  // 100 requests, each 10x over the event cap with 64x-over details.
  for (uint64_t Id = 1; Id <= 100; ++Id) {
    F.record(oversizedRecord(Id, 160, 512));
    EXPECT_LE(F.approxBytes(), F.memoryCeilingBytes());
    EXPECT_LE(F.retained(), C.Capacity);
  }
  EXPECT_EQ(4u, F.retained());
  // Oldest evicted: only the last four ids remain, oldest first.
  std::vector<FlightRecord> All = F.dump();
  ASSERT_EQ(4u, All.size());
  EXPECT_EQ(97u, All[0].RequestId);
  EXPECT_EQ(100u, All[3].RequestId);
  // Truncation is accounted: 160 - 16 = 144 clipped events.
  EXPECT_EQ(16u, All[0].Events.size());
  EXPECT_EQ(144u, All[0].DroppedEvents);
  for (const Event &E : All[0].Events)
    EXPECT_LE(E.Detail.size(), C.MaxDetailBytes);
}

TEST(FlightRecorderTest, DumpFiltersByRequestIdAndZeroCapacityDisables) {
  FlightRecorder F({4, 64, 32});
  F.record(oversizedRecord(7, 3, 4));
  F.record(oversizedRecord(9, 3, 4));
  EXPECT_EQ(1u, F.dump(7).size());
  EXPECT_EQ(7u, F.dump(7)[0].RequestId);
  EXPECT_TRUE(F.dump(12345).empty());
  EXPECT_EQ(2u, F.dump(0).size());

  FlightRecorder Off({0, 64, 32});
  Off.record(oversizedRecord(1, 3, 4));
  EXPECT_EQ(0u, Off.retained());
  EXPECT_EQ(0u, Off.memoryCeilingBytes());
}

TEST(FlightRecorderTest, TraceRendersAsParseableChromeTraceJson) {
  FlightRecorder F({4, 64, 32});
  F.record(oversizedRecord(7, 6, 4));
  std::string Doc = renderFlightTrace(F.dump());
  std::string Err;
  serve::Json J = serve::parseJson(Doc, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  const serve::Json &Events = J.get("traceEvents");
  ASSERT_TRUE(Events.isArray());
  // process_name metadata + the six span events.
  ASSERT_EQ(7u, Events.asArray().size());
  const serve::Json &Meta = Events.asArray()[0];
  EXPECT_EQ("M", Meta.get("ph").asString());
  EXPECT_EQ("process_name", Meta.get("name").asString());
  EXPECT_EQ(7, Meta.get("pid").asInt());
  EXPECT_NE(std::string::npos,
            Meta.get("args").get("name").asString().find("verified"));
  const serve::Json &First = Events.asArray()[1];
  EXPECT_EQ("B", First.get("ph").asString());
  EXPECT_EQ("synth", First.get("name").asString());
  EXPECT_EQ(7, First.get("pid").asInt());

  std::string Jsonl = renderFlightJsonl(F.dump());
  // One JSON object per line, each parseable and carrying the request id.
  size_t Lines = 0, Pos = 0;
  while (Pos < Jsonl.size()) {
    size_t Nl = Jsonl.find('\n', Pos);
    ASSERT_NE(std::string::npos, Nl);
    serve::Json L = serve::parseJson(Jsonl.substr(Pos, Nl - Pos), &Err);
    ASSERT_TRUE(Err.empty()) << Err;
    EXPECT_EQ(7, L.get("request").asInt());
    Pos = Nl + 1;
    ++Lines;
  }
  EXPECT_EQ(6u, Lines);
}

} // namespace
