// obs::QueryLog: ring bounds, JSONL sink, slow-query capture/eviction, and
// the Histogram quantile/merge extensions feeding the SLO gauges.

#include "obs/query_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace opd::obs {
namespace {

QueryRecord MakeRecord(uint64_t ticket, const std::string& tenant = "t") {
  QueryRecord rec;
  rec.tenant = tenant;
  rec.ticket = ticket;
  rec.admission_epoch = ticket - 1;
  rec.publish_epoch = ticket;  // one epoch bump per completion
  rec.rows_in = 100 * ticket;
  rec.rows_out = ticket;
  rec.jobs = 1;
  rec.query = "q = scan T;";
  return rec;
}

TEST(QueryLogTest, RingKeepsNewestAndCountsDropped) {
  QueryLog::Options options;
  options.capacity = 4;
  QueryLog log(options);
  for (uint64_t t = 1; t <= 10; ++t) log.Append(MakeRecord(t));

  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // Oldest first, and only the newest four survive the overwrites.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i]->ticket, 7 + i);
  }
  const QueryLog::Stats stats = log.stats();
  EXPECT_EQ(stats.appended, 10u);
  EXPECT_EQ(stats.dropped, 6u);

  EXPECT_NE(log.Find(9), nullptr);
  EXPECT_EQ(log.Find(9)->rows_out, 9u);
  EXPECT_EQ(log.Find(3), nullptr);  // overwritten
}

TEST(QueryLogTest, JsonlSinkWritesOneLinePerRecord) {
  const std::string path = ::testing::TempDir() + "/opd_query_log.jsonl";
  std::remove(path.c_str());
  {
    QueryLog::Options options;
    options.capacity = 2;  // sink keeps everything even as the ring drops
    options.jsonl_path = path;
    QueryLog log(options);
    for (uint64_t t = 1; t <= 5; ++t) log.Append(MakeRecord(t));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"tenant\":\"t\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 5u);
  std::remove(path.c_str());
}

TEST(QueryLogTest, RecordJsonCarriesRewriteCountsAndError) {
  QueryRecord rec = MakeRecord(7);
  rec.rw_candidates = 3;
  rec.rw_accepted = 1;
  rec.status = "error";
  rec.error = "boom";
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"candidates\":3"), std::string::npos);
  EXPECT_NE(json.find("\"accepted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"boom\""), std::string::npos);
}

SlowQueryProfile MakeProfile(uint64_t ticket, size_t explain_bytes) {
  SlowQueryProfile p;
  p.ticket = ticket;
  p.tenant = "t";
  p.explain_analyze.assign(explain_bytes, 'x');
  return p;
}

TEST(QueryLogTest, SlowCaptureEvictsOldestUnderByteBudget) {
  QueryLog::Options options;
  options.capacity = 8;
  options.slow_threshold_s = 0.0;
  QueryLog log(options);
  EXPECT_TRUE(log.ShouldCapture(0.0));

  // Two profiles fill the budget exactly (1-byte tenant + payload).
  const size_t payload =
      QueryLog::kSlowCaptureBudgetBytes / 2 - sizeof(SlowQueryProfile) - 1;
  log.CaptureSlow(MakeProfile(1, payload));
  log.CaptureSlow(MakeProfile(2, payload));
  log.CaptureSlow(MakeProfile(3, payload));  // evicts ticket 1

  EXPECT_FALSE(log.FindProfile(1).has_value());
  EXPECT_TRUE(log.FindProfile(2).has_value());
  EXPECT_TRUE(log.FindProfile(3).has_value());
  const QueryLog::Stats stats = log.stats();
  EXPECT_EQ(stats.slow_captured, 3u);
  EXPECT_EQ(stats.slow_evicted, 1u);
  EXPECT_EQ(stats.capture_bytes, QueryLog::kSlowCaptureBudgetBytes);
}

TEST(QueryLogTest, ThresholdSemantics) {
  QueryLog::Options off;
  off.slow_threshold_s = -1.0;
  EXPECT_FALSE(QueryLog(off).ShouldCapture(1e9));

  QueryLog::Options some;
  some.slow_threshold_s = 0.5;
  QueryLog log(some);
  EXPECT_FALSE(log.ShouldCapture(0.4));
  EXPECT_TRUE(log.ShouldCapture(0.5));
}

TEST(QueryLogTest, RegistryCountersTrackAppendsAndCaptures) {
  MetricRegistry registry;
  QueryLog::Options options;
  options.capacity = 2;
  options.slow_threshold_s = 0.0;
  options.registry = &registry;
  QueryLog log(options);
  for (uint64_t t = 1; t <= 3; ++t) log.Append(MakeRecord(t));
  log.CaptureSlow(MakeProfile(3, 16));

  EXPECT_EQ(registry.counter("server.querylog.appended").value(), 3u);
  EXPECT_EQ(registry.counter("server.querylog.dropped").value(), 1u);
  EXPECT_EQ(registry.counter("server.querylog.slow_captured").value(), 1u);
  EXPECT_GT(registry.gauge("server.querylog.capture_bytes").value(), 0.0);
}

// Readers and appenders share the ring mutex; this is the pattern the TSan
// lane exercises (scripts/check.sh runs this binary under -fsanitize=thread).
TEST(QueryLogStressTest, ConcurrentAppendAndSnapshot) {
  QueryLog::Options options;
  options.capacity = 16;
  QueryLog log(options);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::atomic<bool> done{false};
  std::thread reader([&log, &done] {
    size_t snapshots = 0;
    while (!done.load(std::memory_order_acquire) || snapshots == 0) {
      const auto records = log.Snapshot();
      EXPECT_LE(records.size(), 16u);
      for (const auto& rec : records) {
        // Records are immutable: a torn read would show a half-filled one.
        EXPECT_EQ(rec->rows_in, 100 * rec->ticket);
      }
      ++snapshots;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        log.Append(MakeRecord(
            static_cast<uint64_t>(w) * kPerWriter + i + 1));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(log.stats().appended,
            static_cast<uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(log.Snapshot().size(), 16u);
}

// --- Histogram quantile/merge (the SLO sketch extensions) -----------------

TEST(HistogramQuantileTest, EmptyReturnsNaN) {
  Histogram h;
  EXPECT_TRUE(std::isnan(h.Quantile(0.5)));
}

TEST(HistogramQuantileTest, QuantilesAreMonotoneAndClamped) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i));
  double prev = h.Quantile(0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = h.Quantile(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_GE(h.Quantile(0.0), h.min());
  EXPECT_LE(h.Quantile(1.0), h.max());
  // p50 of 1..100 lands within the power-of-two bucket around the median.
  const double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 32.0);
  EXPECT_LE(p50, 128.0);
}

TEST(HistogramQuantileTest, SingleValueQuantileIsExact) {
  Histogram h;
  h.Observe(0.25);
  // Clamping to observed min/max makes every quantile exact here.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.25);
}

TEST(HistogramQuantileTest, MergeFromFoldsMassAndExtrema) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 10; ++i) a.Observe(1.0);
  for (int i = 0; i < 10; ++i) b.Observe(64.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 20u);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0 + 640.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 64.0);
  // The median straddles the two populations; p99 sits in the upper one.
  EXPECT_GT(a.Quantile(0.99), 32.0);
  EXPECT_LT(a.Quantile(0.25), 2.0);

  Histogram empty;
  a.MergeFrom(empty);  // no-op
  EXPECT_EQ(a.count(), 20u);

  Histogram into_empty;
  into_empty.MergeFrom(a);
  EXPECT_EQ(into_empty.count(), 20u);
  EXPECT_DOUBLE_EQ(into_empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(into_empty.max(), 64.0);
}

}  // namespace
}  // namespace opd::obs
