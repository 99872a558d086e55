// curtain::obs unit tests: metric semantics, histogram bucket edges, the
// virtual-time span tracer (driven by a fake clock), the exporters and
// the campaign flight recorder.
#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace curtain::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics().reset_for_tests();
    Tracer::instance().clear();
  }
};

TEST_F(ObsTest, CounterIncrementsAndFindOrCreateIsStable) {
  Counter& a = metrics().counter("obs_test_events_total", "help text");
  EXPECT_EQ(a.value(), 0u);
  a.inc();
  a.inc(41);
  EXPECT_EQ(a.value(), 42u);
  // Same name returns the same object; help is first-registration-wins.
  Counter& b = metrics().counter("obs_test_events_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 42u);
}

TEST_F(ObsTest, GaugeMovesBothWays) {
  Gauge& g = metrics().gauge("obs_test_level");
  g.set(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  g.add(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(g.value(), 5.25);
}

TEST_F(ObsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Histogram& h = metrics().histogram("obs_test_ms", {1.0, 5.0, 10.0});
  // Exactly at an edge lands in that edge's bucket (le semantics).
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (== 1)
  h.observe(1.001); // bucket 1
  h.observe(5.0);   // bucket 1 (== 5)
  h.observe(9.0);   // bucket 2
  h.observe(10.0);  // bucket 2 (== 10)
  h.observe(11.0);  // overflow
  h.observe(1e9);   // overflow
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.count(), 8u);
  // The sum accumulates in fixed point (Histogram::kSumScale units) so
  // that merging per-shard sheaves is associative; each observation is
  // quantized to the nearest 1/kSumScale.
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 5.0 + 9.0 + 10.0 + 11.0 + 1e9,
              8.0 * 0.5 / Histogram::kSumScale);
}

TEST_F(ObsTest, StockBucketLayoutsAreSortedAndUnique) {
  for (const auto& bounds :
       {Histogram::latency_ms_buckets(), Histogram::small_count_buckets()}) {
    ASSERT_FALSE(bounds.empty());
    for (size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST_F(ObsTest, ResetForTestsZeroesValuesButKeepsObjects) {
  Counter& c = metrics().counter("obs_test_reset_total");
  Gauge& g = metrics().gauge("obs_test_reset_gauge");
  Histogram& h = metrics().histogram("obs_test_reset_ms", {1.0});
  c.inc(9);
  g.set(3.0);
  h.observe(0.5);
  metrics().reset_for_tests();
  // Cached references stay valid and read zero.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.bucket(0), 0u);
  EXPECT_EQ(&c, &metrics().counter("obs_test_reset_total"));
}

TEST_F(ObsTest, SnapshotCarriesNamesHelpAndValues) {
  metrics().counter("obs_test_snap_total", "a counter").inc(3);
  metrics().gauge("obs_test_snap_gauge").set(1.5);
  metrics().histogram("obs_test_snap_ms", {2.0}).observe(1.0);
  const MetricsSnapshot snap = metrics().snapshot();
  EXPECT_EQ(snap.counter_value("obs_test_snap_total"), 3u);
  EXPECT_EQ(snap.counter_value("not_registered"), 0u);
  bool saw_histogram = false;
  for (const auto& row : snap.histograms) {
    if (row.name != "obs_test_snap_ms") continue;
    saw_histogram = true;
    ASSERT_EQ(row.buckets.size(), 2u);
    EXPECT_EQ(row.buckets[0], 1u);
    EXPECT_EQ(row.count, 1u);
  }
  EXPECT_TRUE(saw_histogram);
}

// --- Tracer, driven by a fake virtual clock ----------------------------

TEST_F(ObsTest, SpanNestingAndPartition) {
  Tracer& tracer = Tracer::instance();
  double now = 1000.0;  // fake virtual clock, ms
  ASSERT_TRUE(tracer.begin(now));
  EXPECT_FALSE(tracer.begin(now));  // no nested traces

  {
    ScopedSpan access("radio_access", now);
    access.finish(now += 40.0);
  }
  {
    ScopedSpan ldns("ldns", now);
    {
      ScopedSpan recursion("recursion", now);
      {
        ScopedSpan upstream("upstream_query", now);
        upstream.finish(now += 25.0);
      }
      recursion.finish(now += 5.0);
    }
    ldns.finish(now);
  }
  {
    ScopedSpan transport("transport", now);
    transport.finish(now += 30.0);
  }

  const ResolutionTrace trace = tracer.end(now);
  ASSERT_EQ(trace.spans.size(), 5u);
  EXPECT_STREQ(trace.spans[0].name, "radio_access");
  EXPECT_EQ(trace.spans[0].depth, 0);
  EXPECT_DOUBLE_EQ(trace.spans[0].start_ms, 0.0);
  EXPECT_DOUBLE_EQ(trace.spans[0].duration_ms, 40.0);
  EXPECT_STREQ(trace.spans[1].name, "ldns");
  EXPECT_EQ(trace.spans[1].depth, 0);
  EXPECT_STREQ(trace.spans[2].name, "recursion");
  EXPECT_EQ(trace.spans[2].depth, 1);
  EXPECT_STREQ(trace.spans[3].name, "upstream_query");
  EXPECT_EQ(trace.spans[3].depth, 2);
  EXPECT_DOUBLE_EQ(trace.spans[3].duration_ms, 25.0);
  EXPECT_STREQ(trace.spans[4].name, "transport");
  EXPECT_EQ(trace.spans[4].depth, 0);
  EXPECT_DOUBLE_EQ(trace.spans[4].duration_ms, 30.0);
  // Depth-0 spans partition the whole trace.
  EXPECT_DOUBLE_EQ(trace.total_ms, 100.0);
  EXPECT_DOUBLE_EQ(trace.top_level_ms(), trace.total_ms);
  EXPECT_FALSE(trace.render().empty());
}

TEST_F(ObsTest, SpansAreNoOpsWithoutAnActiveTrace) {
  Tracer& tracer = Tracer::instance();
  {
    ScopedSpan orphan("orphan", 0.0);
    orphan.finish(10.0);
  }
  EXPECT_FALSE(tracer.active());
  ASSERT_TRUE(tracer.begin(0.0));
  const ResolutionTrace trace = tracer.end(5.0);
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_DOUBLE_EQ(trace.total_ms, 5.0);
}

TEST_F(ObsTest, PauseSuppressesSpanCapture) {
  Tracer& tracer = Tracer::instance();
  ASSERT_TRUE(tracer.begin(0.0));
  tracer.pause();
  {
    ScopedSpan shadow("warm_shadow", 0.0);
    shadow.finish(50.0);
  }
  tracer.resume();
  {
    ScopedSpan real("real_work", 0.0);
    real.finish(10.0);
  }
  const ResolutionTrace trace = tracer.end(10.0);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_STREQ(trace.spans[0].name, "real_work");
}

TEST_F(ObsTest, AbandonedSpansCloseZeroDuration) {
  Tracer& tracer = Tracer::instance();
  ASSERT_TRUE(tracer.begin(0.0));
  {
    ScopedSpan dropped("early_return", 2.0);
    // No finish(): destructor closes it at its start.
  }
  const int left_open = tracer.open_span("left_open", 3.0);
  (void)left_open;
  const ResolutionTrace trace = tracer.end(9.0);
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_DOUBLE_EQ(trace.spans[0].duration_ms, 0.0);
  EXPECT_DOUBLE_EQ(trace.spans[1].duration_ms, 0.0);
  EXPECT_DOUBLE_EQ(trace.total_ms, 9.0);
}

// --- Exporters ---------------------------------------------------------

TEST_F(ObsTest, PrometheusTextFormat) {
  metrics().counter("obs_test_prom_total", "events seen").inc(5);
  metrics().gauge("obs_test_prom_gauge").set(2.5);
  Histogram& h = metrics().histogram("obs_test_prom_ms", {1.0, 10.0}, "lat");
  h.observe(0.5);
  h.observe(0.7);
  h.observe(4.0);
  h.observe(99.0);
  const std::string text = to_prometheus_text(metrics().snapshot());
  EXPECT_NE(text.find("# HELP obs_test_prom_total events seen\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_gauge 2.5\n"), std::string::npos);
  // Histogram buckets are cumulative and +Inf equals the count.
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"10\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ms_count 4\n"), std::string::npos);
}

TEST_F(ObsTest, JsonExportIncludesReport) {
  metrics().counter("obs_test_json_total").inc(2);
  RunReport report;
  report.add_phase("campaign", 812.5);
  report.add_total("experiments", 42);
  const std::string json = to_json(metrics().snapshot(), &report);
  EXPECT_NE(json.find("\"obs_test_json_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"campaign\", \"wall_ms\": 812.5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"experiments\": 42"), std::string::npos);
  // Without a report the key is absent entirely.
  EXPECT_EQ(to_json(metrics().snapshot()).find("\"report\""),
            std::string::npos);
}

TEST_F(ObsTest, RunReportRendering) {
  RunReport report;
  EXPECT_TRUE(report.empty());
  report.add_phase("world_build", 100.0);
  report.add_phase("campaign", 900.0);
  report.add_total("resolutions", 123456);
  EXPECT_FALSE(report.empty());
  EXPECT_DOUBLE_EQ(report.wall_ms_total(), 1000.0);
  const std::string suffix = report.summary_suffix();
  EXPECT_NE(suffix.find("world_build"), std::string::npos);
  EXPECT_NE(suffix.find("campaign"), std::string::npos);
  EXPECT_NE(report.render().find("resolutions"), std::string::npos);
}

TEST_F(ObsTest, PrometheusLabelEscaping) {
  // Exposition-format label values escape backslash, quote and newline.
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_escape_label("two\nlines"), "two\\nlines");
  EXPECT_EQ(prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST_F(ObsTest, PrometheusHelpEscaping) {
  // HELP text escapes backslash and newline but not quotes (quotes are
  // legal in HELP, unlike in label values).
  EXPECT_EQ(prometheus_escape_help("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_help("two\nlines"), "two\\nlines");
  EXPECT_EQ(prometheus_escape_help("say \"hi\""), "say \"hi\"");
}

TEST_F(ObsTest, PrometheusEscapesReachTheRenderedText) {
  metrics().counter("obs_test_escape_total", "line one\nline \\two").inc();
  const std::string text = to_prometheus_text(metrics().snapshot());
  EXPECT_NE(
      text.find("# HELP obs_test_escape_total line one\\nline \\\\two\n"),
      std::string::npos)
      << text;
}

TEST_F(ObsTest, HistogramFixedPointSumRoundTripsExactly) {
  // Every value that is an exact multiple of 1/kSumScale must survive the
  // fixed-point accumulation bit-exactly (kSumScale is a power of two).
  Histogram& h = metrics().histogram("obs_test_fixed_ms", {10.0});
  const double quantum = 1.0 / Histogram::kSumScale;
  h.observe(0.5);
  h.observe(1.25);
  h.observe(3.0 + quantum);
  h.observe(quantum);
  EXPECT_EQ(h.sum(), 0.5 + 1.25 + 3.0 + quantum + quantum);
}

TEST_F(ObsTest, HistogramMergeRegroupingIsExact) {
  // Associativity of the fixed-point sum: observing {a,b,c,d} in one
  // histogram equals observing {a,b} and {c,d} in two and merging — the
  // property the shard-sheaf merge relies on for byte-identical exports.
  const std::vector<double> bounds = {1.0, 10.0};
  Histogram& whole = metrics().histogram("obs_test_whole_ms", bounds);
  Histogram& part1 = metrics().histogram("obs_test_part1_ms", bounds);
  Histogram& part2 = metrics().histogram("obs_test_part2_ms", bounds);
  Histogram& merged = metrics().histogram("obs_test_merged_ms", bounds);
  const double values[] = {0.25, 0.75, 2.5, 1e6 + 0.5};
  for (const double v : values) whole.observe(v);
  part1.observe(values[0]);
  part1.observe(values[1]);
  part2.observe(values[2]);
  part2.observe(values[3]);
  for (Histogram* part : {&part1, &part2}) {
    std::vector<uint64_t> buckets;
    for (size_t i = 0; i < part->num_buckets(); ++i) {
      buckets.push_back(part->bucket(i));
    }
    merged.merge_counts(buckets, part->count(), part->sum());
  }
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());  // bit-exact, not NEAR
  for (size_t i = 0; i < whole.num_buckets(); ++i) {
    EXPECT_EQ(merged.bucket(i), whole.bucket(i)) << "bucket " << i;
  }
}

// --- Flight recorder ---------------------------------------------------

class FlightRecorderTest : public ObsTest {
 protected:
  void TearDown() override {
    FlightRecorder::instance().disable();
    FlightRecorder::instance().clear();
  }

  static std::vector<FlightRecorder::ShardMeta> two_shards() {
    return {{"carrierA/cohort0", 0, 0, 12}, {"carrierB/cohort0", 1, 0, 3}};
  }
};

TEST_F(FlightRecorderTest, DisabledRecorderIgnoresRecords) {
  FlightRecorder& recorder = FlightRecorder::instance();
  ASSERT_FALSE(recorder.enabled());
  recorder.record_phase(0, "ghost", 0, 10);
  recorder.record_counter(0, "ghost_c", 5, 1.0);
  recorder.record_shard(1, 0, 0, 10, 0, 0.0, 0, 0);
  const FlightRecorder::Dump dump = recorder.dump();
  EXPECT_EQ(dump.records.size(), 0u);
  EXPECT_EQ(dump.worker_lanes, 0u);
}

TEST_F(FlightRecorderTest, DumpMergesLanesSortedByStart) {
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.enable();
  ASSERT_TRUE(recorder.enabled());
  EXPECT_GE(recorder.now_us(), 0);
  recorder.begin_run(2, two_shards());
  // Interleave records across lanes, appended out of timeline order.
  recorder.record_shard(/*worker_lane=*/2, /*shard_index=*/1,
                        /*pickup_us=*/50, /*finish_us=*/90,
                        /*queue_wait_us=*/50, /*queue_depth=*/0.0,
                        /*rss_bytes=*/1 << 20, /*dataset_bytes=*/512);
  recorder.record_shard(1, 0, 10, 80, 10, 1.0, 1 << 20, 4096);
  recorder.record_phase(0, "merge_datasets", 95, 99);
  recorder.record_counter(0, "rss_mb", 99, 64.0);
  const FlightRecorder::Dump dump = recorder.dump();
  EXPECT_EQ(dump.worker_lanes, 2u);
  ASSERT_EQ(dump.shards.size(), 2u);
  EXPECT_EQ(dump.shards[0].label, "carrierA/cohort0");
  // Each record_shard appends the span plus queue-depth and RSS counter
  // samples at finish: 2×3 + the phase + the explicit counter.
  ASSERT_EQ(dump.records.size(), 8u);
  // Sorted by start time regardless of append order.
  EXPECT_EQ(dump.records[0].start_us, 10);
  EXPECT_EQ(dump.records[0].worker, 1);
  EXPECT_EQ(dump.records[0].kind, ExecRecord::Kind::kShardSpan);
  EXPECT_EQ(dump.records[1].start_us, 50);
  EXPECT_EQ(dump.records[1].shard_index, 1);
  for (size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(dump.records[i].kind, ExecRecord::Kind::kCounter) << i;
  }
  EXPECT_EQ(dump.records[6].kind, ExecRecord::Kind::kPhaseSpan);
  EXPECT_STREQ(dump.records[6].name, "merge_datasets");
  EXPECT_EQ(dump.records[7].kind, ExecRecord::Kind::kCounter);
  EXPECT_DOUBLE_EQ(dump.records[7].value, 64.0);
  recorder.clear();
  EXPECT_EQ(recorder.dump().records.size(), 0u);
}

FlightRecorder::Dump synthetic_dump() {
  // Two workers over four shards; worker 1 runs shards 0 and 2, worker 2
  // runs shards 1 and 3. Shard 3 is a 10× outlier the watchdog must flag.
  FlightRecorder::Dump dump;
  dump.worker_lanes = 2;
  dump.shards = {{"A/cohort0", 0, 0, 10},
                 {"B/cohort0", 1, 0, 10},
                 {"A/cohort1", 0, 1, 10},
                 {"B/cohort1", 1, 1, 10}};
  auto shard = [](uint16_t worker, int32_t index, int64_t start, int64_t end,
                  int64_t wait) {
    ExecRecord r;
    r.kind = ExecRecord::Kind::kShardSpan;
    r.worker = worker;
    r.shard_index = index;
    r.start_us = start;
    r.end_us = end;
    r.queue_wait_us = wait;
    return r;
  };
  dump.records.push_back(shard(1, 0, 0, 10'000, 0));
  dump.records.push_back(shard(2, 1, 0, 20'000, 0));
  dump.records.push_back(shard(1, 2, 10'000, 20'000, 10'000));
  dump.records.push_back(shard(2, 3, 20'000, 120'000, 20'000));
  return dump;
}

TEST_F(FlightRecorderTest, BuildProfileComputesWaitsUtilizationAndStalls) {
  const RunReport::Profile profile =
      build_profile(synthetic_dump(), /*peak_rss_bytes=*/256u << 20);
  EXPECT_TRUE(profile.enabled);
  ASSERT_EQ(profile.shards.size(), 4u);
  EXPECT_EQ(profile.shards[0].label, "A/cohort0");
  EXPECT_EQ(profile.shards[0].worker, 1);
  EXPECT_DOUBLE_EQ(profile.shards[0].wall_ms, 10.0);
  EXPECT_DOUBLE_EQ(profile.shards[3].queue_wait_ms, 20.0);
  // Shard walls are {10, 20, 10, 100} ms over 10 devices each: the
  // nearest-rank median per device is 1 ms, so only the 100 ms shard
  // (10 ms per device) exceeds 4× median.
  EXPECT_DOUBLE_EQ(profile.median_shard_wall_ms, 10.0);
  EXPECT_FALSE(profile.shards[0].stalled);
  EXPECT_FALSE(profile.shards[1].stalled);
  EXPECT_TRUE(profile.shards[3].stalled);
  EXPECT_EQ(profile.stalled_labels(),
            std::vector<std::string>{"B/cohort1"});
  // Busy 140 ms over a 120 ms makespan on 2 workers: 140/240.
  EXPECT_NEAR(profile.worker_utilization_pct, 100.0 * 140.0 / 240.0, 1e-9);
  // Queue waits {0, 0, 10, 20} ms, nearest-rank percentiles.
  EXPECT_DOUBLE_EQ(profile.queue_wait_p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(profile.queue_wait_p95_ms, 20.0);
  EXPECT_DOUBLE_EQ(profile.peak_rss_mb, 256.0);
  EXPECT_DOUBLE_EQ(profile.stall_factor, 4.0);
}

TEST_F(FlightRecorderTest, StallWatchdogIgnoresFleetImbalance) {
  // One worker runs a 4-device shard, a 64-device shard at 16× its wall
  // (the same cost per device) and an empty shard. Fleet imbalance is not
  // a stall, and the empty shard does not drag the baseline down.
  FlightRecorder::Dump dump;
  dump.worker_lanes = 1;
  dump.shards = {{"LG U+/cohort0", 0, 0, 4},
                 {"Verizon/cohort0", 1, 0, 64},
                 {"Verizon/cohort1", 1, 1, 0}};
  auto span = [](int32_t index, int64_t start, int64_t end) {
    ExecRecord r;
    r.kind = ExecRecord::Kind::kShardSpan;
    r.worker = 1;
    r.shard_index = index;
    r.start_us = start;
    r.end_us = end;
    return r;
  };
  dump.records.push_back(span(0, 0, 10'000));
  dump.records.push_back(span(1, 10'000, 170'000));
  dump.records.push_back(span(2, 170'000, 170'010));
  const RunReport::Profile profile =
      build_profile(dump, /*peak_rss_bytes=*/0);
  EXPECT_DOUBLE_EQ(profile.median_shard_wall_ms, 10.0);
  EXPECT_FALSE(profile.shards[1].stalled);
  EXPECT_TRUE(profile.stalled_labels().empty());
}

TEST_F(FlightRecorderTest, ChromeTraceCarriesLanesSpansAndCounters) {
  FlightRecorder::Dump dump = synthetic_dump();
  ExecRecord counter;
  counter.kind = ExecRecord::Kind::kCounter;
  counter.worker = 1;
  counter.start_us = counter.end_us = 15'000;
  counter.value = 33.5;
  std::snprintf(counter.name, sizeof(counter.name), "rss_mb");
  dump.records.push_back(counter);

  const std::string trace = to_chrome_trace(dump);
  // Lane metadata for the coordinator and both workers.
  EXPECT_NE(trace.find("\"coordinator\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 1\""), std::string::npos);
  EXPECT_NE(trace.find("\"worker 2\""), std::string::npos);
  // Shard spans are labelled and carry their metadata args.
  EXPECT_NE(trace.find("\"name\": \"A/cohort0\""), std::string::npos);
  EXPECT_NE(trace.find("\"devices\": 10"), std::string::npos);
  // Counter samples are pinned to the coordinator track.
  EXPECT_NE(trace.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"rss_mb\": 33.5"), std::string::npos);
  // The document closes with the run geometry.
  EXPECT_NE(trace.find("\"otherData\": {\"workers\": 2, \"shards\": 4}"),
            std::string::npos);
}

TEST_F(FlightRecorderTest, ReportAndJsonCarryConfigAndProfile) {
  RunReport report;
  report.add_phase("campaign", 120.0);
  report.config.workers = 2;
  report.config.cohorts = 2;
  report.config.shards = 4;
  report.profile = build_profile(synthetic_dump(), 64u << 20);
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("workers=2"), std::string::npos);
  EXPECT_NE(rendered.find("B/cohort1"), std::string::npos);
  EXPECT_NE(rendered.find("STALLED"), std::string::npos);
  const std::string json = to_json(metrics().snapshot(), &report);
  EXPECT_NE(json.find("\"config\": {\"workers\": 2, \"cohorts\": 2, "
                      "\"shards\": 4}"),
            std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_p95_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled\": true"), std::string::npos);
}

TEST_F(FlightRecorderTest, RssProbesReportPlausibleValues) {
  // /proc/self/status (or the getrusage fallback) must yield nonzero,
  // ordered readings on any platform the suite runs on.
  const size_t current = read_current_rss_bytes();
  const size_t peak = read_peak_rss_bytes();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // peak may lag current only by page noise
  EXPECT_GT(peak, 1u << 20);     // a test binary is at least a megabyte
}

}  // namespace
}  // namespace curtain::obs
