// Unit tests for the self-telemetry metrics registry (src/common/metrics.h)
// and the per-query trace contract (src/core/query_trace.h).

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/metrics.h"
#include "src/core/loom.h"
#include "src/core/query_trace.h"

namespace loom {
namespace {

TEST(CounterTest, SingleThreadedIncrements) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_EQ(g.Value(), 1.5);
}

TEST(GaugeTest, ConcurrentAddsSumExactly) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Add(1.0);  // integers up to 200k are exact in double
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(g.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(HistogramTest, BucketsObserveLeSemantics) {
  Histogram h(HistogramOptions::Linear(1.0, 1.0, 3));  // bounds 1, 2, 3
  h.Observe(0.5);  // bucket 0 (le 1)
  h.Observe(1.0);  // bucket 0 (le semantics: boundary belongs to the bucket)
  h.Observe(1.5);  // bucket 1
  h.Observe(9.0);  // overflow
  HistogramSnapshot snap = h.Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 0u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 12.0);
}

TEST(HistogramTest, PercentileOfEmptyIsZero) {
  Histogram h(HistogramOptions::ExponentialSeconds());
  EXPECT_EQ(h.Snapshot().Percentile(50.0), 0.0);
  EXPECT_EQ(h.Snapshot().Mean(), 0.0);
}

TEST(HistogramTest, PercentileSingleBucket) {
  Histogram h(HistogramOptions::Linear(10.0, 10.0, 2));  // bounds 10, 20
  for (int i = 0; i < 100; ++i) {
    h.Observe(5.0);
  }
  HistogramSnapshot snap = h.Snapshot();
  // Everything in [0, 10]: percentiles interpolate within that bucket.
  EXPECT_GT(snap.Percentile(50.0), 0.0);
  EXPECT_LE(snap.Percentile(50.0), 10.0);
  EXPECT_LE(snap.Percentile(99.9), 10.0);
}

TEST(HistogramTest, PercentileOverflowClampsToLastBound) {
  Histogram h(HistogramOptions::Linear(1.0, 1.0, 2));  // bounds 1, 2
  for (int i = 0; i < 10; ++i) {
    h.Observe(100.0);  // all overflow
  }
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(100.0), 2.0);
}

TEST(HistogramTest, PercentileMonotoneAcrossBuckets) {
  Histogram h(HistogramOptions::Exponential(0.001, 2.0, 16));
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(0.001 * i);
  }
  HistogramSnapshot snap = h.Snapshot();
  const double p50 = snap.Percentile(50.0);
  const double p90 = snap.Percentile(90.0);
  const double p99 = snap.Percentile(99.0);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // True p50 is 0.5, p99 is 0.99: bucket interpolation should land within
  // a factor-of-2 bucket of the truth.
  EXPECT_GT(p50, 0.2);
  EXPECT_LT(p50, 1.1);
  EXPECT_GT(p99, 0.5);
}

TEST(HistogramTest, ConcurrentObservesKeepCountAndSum) {
  Histogram h(HistogramOptions::ExponentialSeconds());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(0.5);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 * kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.counts) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(RegistryTest, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter* a = reg.AddCounter("loom_test_ops_total");
  Counter* b = reg.AddCounter("loom_test_ops_total");
  EXPECT_EQ(a, b);
  // Kind mismatch returns null rather than aliasing.
  EXPECT_EQ(reg.AddGauge("loom_test_ops_total"), nullptr);
  EXPECT_EQ(reg.AddHistogram("loom_test_ops_total"), nullptr);
}

TEST(RegistryTest, ConcurrentRegistrationAndUse) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < 1000; ++i) {
        Counter* c = reg.AddCounter("loom_test_shared_total");
        c->Increment();
        Histogram* h = reg.AddHistogram("loom_test_lat_seconds");
        h->Observe(1e-3);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("loom_test_shared_total"), 8000u);
  EXPECT_EQ(snap.histograms.at("loom_test_lat_seconds").count, 8000u);
}

TEST(RegistryTest, CollectionHooksRunOnSnapshotAndCanBeRemoved) {
  MetricsRegistry reg;
  Gauge* g = reg.AddGauge("loom_test_depth");
  int calls = 0;
  const uint64_t id = reg.AddCollectionHook([&] {
    ++calls;
    g->Set(7.0);
  });
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(snap.gauges.at("loom_test_depth"), 7.0);
  reg.RemoveCollectionHook(id);
  (void)reg.Snapshot();
  EXPECT_EQ(calls, 1);
}

TEST(SnapshotTest, MergeFromSumsEverything) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.AddCounter("loom_test_x_total")->Increment(3);
  b.AddCounter("loom_test_x_total")->Increment(4);
  b.AddCounter("loom_test_only_b_total")->Increment(1);
  a.AddGauge("loom_test_g")->Set(1.5);
  b.AddGauge("loom_test_g")->Set(2.0);
  Histogram* ha = a.AddHistogram("loom_test_h_seconds");
  Histogram* hb = b.AddHistogram("loom_test_h_seconds");
  ha->Observe(0.001);
  hb->Observe(0.002);
  hb->Observe(4000.0);  // overflow bucket

  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());
  EXPECT_EQ(merged.counters.at("loom_test_x_total"), 7u);
  EXPECT_EQ(merged.counters.at("loom_test_only_b_total"), 1u);
  EXPECT_EQ(merged.gauges.at("loom_test_g"), 3.5);
  const HistogramSnapshot& h = merged.histograms.at("loom_test_h_seconds");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 0.003 + 4000.0);
  uint64_t bucket_total = 0;
  for (uint64_t c : h.counts) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, 3u);
  EXPECT_EQ(h.counts.back(), 1u);  // the 4000 s observation overflowed
}

TEST(SnapshotTest, RenderPrometheusFormat) {
  MetricsRegistry reg;
  reg.AddCounter("loom_test_ops_total")->Increment(5);
  reg.AddGauge("loom_test_depth")->Set(2.0);
  Histogram* h = reg.AddHistogram("loom_test_lat_seconds", HistogramOptions::Linear(1.0, 1.0, 2));
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(99.0);

  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE loom_test_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("loom_test_ops_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE loom_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE loom_test_lat_seconds histogram"), std::string::npos);
  // Cumulative le buckets: le="1" holds 1, le="2" holds 2, +Inf holds all 3.
  EXPECT_NE(text.find("loom_test_lat_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("loom_test_lat_seconds_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("loom_test_lat_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("loom_test_lat_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("loom_test_lat_seconds_sum"), std::string::npos);
}

TEST(ScopedLatencyTimerTest, NullHistogramIsInert) {
  { ScopedLatencyTimer t(nullptr); }  // must not crash or read the clock
  Histogram h(HistogramOptions::ExponentialSeconds());
  { ScopedLatencyTimer t(&h); }
  EXPECT_EQ(h.Snapshot().count, 1u);
}

TEST(QueryTraceTest, InvariantAndToString) {
  QueryTrace t;
  t.op = "indexed_aggregate";
  t.chunks_considered = 10;
  t.chunks_pruned = 6;
  t.chunks_summary_folded = 2;
  t.chunks_scanned = 4;
  t.records_examined = 100;
  t.records_matched = 40;
  t.bytes_read = 4096;
  // The engine-wide invariant every operator maintains.
  EXPECT_EQ(t.chunks_pruned + t.chunks_scanned, t.chunks_considered);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("indexed_aggregate"), std::string::npos);
  EXPECT_NE(s.find("10"), std::string::npos);
}

TEST(QueryTraceTest, SummaryStageIsAbsorbedAndPrinted) {
  QueryTrace coordinator;
  QueryTrace worker;
  worker.chunks_considered = 5;  // classification stays the coordinator's
  worker.cache_misses = 3;
  worker.summary_reads = 2;
  worker.summary_nanos = 7000;
  coordinator.AbsorbWorker(worker);
  coordinator.AbsorbWorker(worker);
  EXPECT_EQ(coordinator.chunks_considered, 0u);
  EXPECT_EQ(coordinator.cache_misses, 6u);
  EXPECT_EQ(coordinator.summary_reads, 4u);
  EXPECT_EQ(coordinator.summary_nanos, 14000u);
  const std::string s = coordinator.ToString();
  EXPECT_NE(s.find("summary_reads=4"), std::string::npos);
  EXPECT_NE(s.find("summary_us=14"), std::string::npos);
}

// Cache counts are counters fed by deltas, so two engines sharing one
// registry add up instead of overwriting each other, and repeated snapshots
// never count twice. Residency is a level, exported as gauges.
TEST(SummaryCacheMetricsTest, EnginesSharingARegistrySumTheirCounts) {
  TempDir dir;
  MetricsRegistry registry;
  std::vector<std::unique_ptr<Loom>> engines;
  for (int e = 0; e < 2; ++e) {
    LoomOptions opts;
    opts.dir = dir.FilePath("loom" + std::to_string(e));
    opts.chunk_size = 1024;
    opts.record_block_size = 8192;
    opts.metrics = &registry;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    Loom* l = loom->get();
    ASSERT_TRUE(l->DefineSource(1).ok());
    auto idx = l->DefineIndex(
        1, [](std::span<const uint8_t> p) -> std::optional<double> { return p[0]; },
        HistogramSpec::Uniform(0, 256, 8).value());
    ASSERT_TRUE(idx.ok());
    std::vector<uint8_t> payload(48, 0);
    for (int i = 0; i < 2000 * (e + 1); ++i) {
      payload[0] = static_cast<uint8_t>(i);
      ASSERT_TRUE(l->Push(1, payload).ok());
    }
    ASSERT_TRUE(l->Sync(1).ok());
    for (int q = 0; q < 2; ++q) {
      ASSERT_TRUE(l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kSum).ok());
    }
    engines.push_back(std::move(loom.value()));
  }
  (void)registry.Snapshot();  // an earlier scrape must not be counted again
  const MetricsSnapshot snap = registry.Snapshot();
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t entries = 0;
  for (const auto& engine : engines) {
    const SummaryCacheStats s = engine->stats().summary_cache;
    hits += s.hits;
    misses += s.misses;
    entries += s.entries;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(snap.counters.at("loom_cache_hits_total"), hits);
  EXPECT_EQ(snap.counters.at("loom_cache_misses_total"), misses);
  EXPECT_EQ(snap.counters.at("loom_cache_bypassed_total"), 0u);
  for (const char* name : {"loom_cache_evictions_total", "loom_cache_invalidated_total"}) {
    EXPECT_EQ(snap.counters.count(name), 1u) << name;
    EXPECT_EQ(snap.gauges.count(name), 0u) << name;
  }
  EXPECT_EQ(snap.gauges.count("loom_cache_entries"), 1u);
  EXPECT_EQ(snap.gauges.count("loom_cache_used_bytes"), 1u);
  EXPECT_EQ(snap.counters.count("loom_cache_entries_total"), 0u);
  EXPECT_EQ(snap.gauges.count("loom_cache_entries_total"), 0u);
  EXPECT_GT(entries, 0u);
}

}  // namespace
}  // namespace loom
