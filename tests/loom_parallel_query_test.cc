// Golden equivalence suite for the morsel-driven parallel query executor.
//
// Two engines ingest the identical deterministic stream under a ManualClock;
// the only difference is LoomOptions::query_threads (0 = serial reference,
// 4 = parallel). Every query operator must return byte-identical results —
// same values, same delivery order, same aggregate doubles (the executor
// merges per-chunk partials in candidate order precisely so floating-point
// non-associativity cannot leak into results).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/query/drilldown.h"

namespace loom {
namespace {

constexpr uint32_t kSource = 7;
constexpr size_t kNumRecords = 6000;

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(buf.data(), &v, sizeof(double));
  return buf;
}

double PayloadValue(std::span<const uint8_t> payload) {
  double v;
  std::memcpy(&v, payload.data(), sizeof(double));
  return v;
}

Loom::IndexFunc ValueIndexFunc() {
  return [](std::span<const uint8_t> payload) -> std::optional<double> {
    if (payload.size() < sizeof(double)) {
      return std::nullopt;
    }
    return PayloadValue(payload);
  };
}

// One record delivered by a scan, captured for exact comparison.
struct Delivered {
  TimestampNanos ts;
  uint64_t addr;
  double value;  // index value for value scans, payload value otherwise

  bool operator==(const Delivered& o) const {
    return ts == o.ts && addr == o.addr && value == o.value;
  }
};

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serial_ = BuildEngine(dir_.FilePath("serial"), 0, &serial_clock_, &serial_index_);
    parallel_ = BuildEngine(dir_.FilePath("parallel"), 4, &parallel_clock_, &parallel_index_);
  }

  std::unique_ptr<Loom> BuildEngine(const std::string& dir, size_t query_threads,
                                    ManualClock* clock, uint32_t* index_id,
                                    SimdMode simd_mode = SimdMode::kAuto,
                                    size_t prefetch_depth = 4,
                                    size_t summary_cache_bytes = 1 << 20) {
    LoomOptions opts;
    opts.dir = dir;
    opts.chunk_size = 1024;  // ~13 records per chunk -> hundreds of candidates
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.summary_cache_bytes = summary_cache_bytes;
    opts.query_threads = query_threads;
    opts.simd_mode = simd_mode;
    opts.prefetch_depth = prefetch_depth;
    opts.clock = clock;
    auto loom = Loom::Open(opts);
    EXPECT_TRUE(loom.ok()) << loom.status().ToString();
    std::unique_ptr<Loom> engine = std::move(loom.value());
    EXPECT_TRUE(engine->DefineSource(kSource).ok());
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 20);
    EXPECT_TRUE(spec.ok());
    auto idx = engine->DefineIndex(kSource, ValueIndexFunc(), spec.value());
    EXPECT_TRUE(idx.ok()) << idx.status().ToString();
    *index_id = idx.value();

    // Identical deterministic ingest on both engines.
    Rng rng(42);
    clock->SetNanos(1);
    for (size_t i = 0; i < kNumRecords; ++i) {
      clock->AdvanceNanos(1000);
      double v = rng.NextLogNormal(32.0, 1.1);
      EXPECT_TRUE(engine->Push(kSource, ValuePayload(v)).ok());
    }
    // Drain the seal pipeline: engines compared bit for bit must agree on
    // which chunks are summarized, or folded bin sums and scanned values
    // add up in different orders.
    EXPECT_TRUE(engine->Sync(kSource).ok());
    return engine;
  }

  // Ranges exercising full coverage, partial chunks on both ends, a narrow
  // slice, and an empty range past the data.
  std::vector<TimeRange> Ranges() {
    const TimestampNanos last = serial_clock_.NowNanos();
    return {
        TimeRange{0, last + 1},
        TimeRange{1, last},
        TimeRange{last / 4, (3 * last) / 4},
        TimeRange{last / 2, last / 2 + 5000},
        TimeRange{last + 1000, last + 2000},
    };
  }

  TempDir dir_;
  ManualClock serial_clock_{1};
  ManualClock parallel_clock_{1};
  std::unique_ptr<Loom> serial_;
  std::unique_ptr<Loom> parallel_;
  uint32_t serial_index_ = 0;
  uint32_t parallel_index_ = 0;
};

TEST_F(ParallelQueryTest, RawScanMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    QueryTrace ta;
    QueryTrace tb;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, range, collect(&a), &ta).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect(&b), &tb).ok());
    EXPECT_EQ(a, b) << "range [" << range.start << ", " << range.end << "]";
    EXPECT_EQ(ta.records_matched, tb.records_matched);
  }
}

TEST_F(ParallelQueryTest, RawScanEarlyStopMatchesSerial) {
  const TimestampNanos last = serial_clock_.NowNanos();
  for (size_t stop_after : {size_t{1}, size_t{17}, size_t{500}}) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [stop_after](std::vector<Delivered>* out) {
      return [out, stop_after](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return out->size() < stop_after;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, {0, last + 1}, collect(&a)).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, {0, last + 1}, collect(&b)).ok());
    EXPECT_EQ(a.size(), stop_after);
    EXPECT_EQ(a, b);
  }
}

TEST_F(ParallelQueryTest, IndexedScanMatchesSerial) {
  const std::vector<ValueRange> value_ranges = {
      {0.0, 1e9},    // everything
      {20.0, 50.0},  // the body of the distribution
      {200.0, 1e9},  // tail only: most chunks pruned
      {-5.0, -1.0},  // nothing
  };
  for (const TimeRange& range : Ranges()) {
    for (const ValueRange& vr : value_ranges) {
      std::vector<Delivered> a;
      std::vector<Delivered> b;
      QueryTrace ta;
      QueryTrace tb;
      auto collect = [](std::vector<Delivered>* out) {
        return [out](const RecordView& r) {
          out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
          return true;
        };
      };
      ASSERT_TRUE(serial_->IndexedScan(kSource, serial_index_, range, vr, collect(&a), &ta).ok());
      ASSERT_TRUE(
          parallel_->IndexedScan(kSource, parallel_index_, range, vr, collect(&b), &tb).ok());
      EXPECT_EQ(a, b) << "t [" << range.start << ", " << range.end << "] v [" << vr.lo << ", "
                      << vr.hi << "]";
      EXPECT_EQ(ta.records_matched, tb.records_matched);
      EXPECT_EQ(ta.chunks_considered, tb.chunks_considered);
      EXPECT_EQ(ta.chunks_pruned, tb.chunks_pruned);
      EXPECT_EQ(ta.chunks_scanned, tb.chunks_scanned);
    }
  }
}

TEST_F(ParallelQueryTest, IndexedScanValuesMatchesSerialIncludingEarlyStop) {
  const TimestampNanos last = serial_clock_.NowNanos();
  for (size_t stop_after : {size_t{0}, size_t{25}, size_t{3000}}) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [stop_after](std::vector<Delivered>* out) {
      return [out, stop_after](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return stop_after == 0 || out->size() < stop_after;
      };
    };
    ASSERT_TRUE(serial_
                    ->IndexedScanValues(kSource, serial_index_, {0, last + 1}, {10.0, 100.0},
                                        collect(&a))
                    .ok());
    ASSERT_TRUE(parallel_
                    ->IndexedScanValues(kSource, parallel_index_, {0, last + 1}, {10.0, 100.0},
                                        collect(&b))
                    .ok());
    EXPECT_EQ(a, b) << "stop_after=" << stop_after;
  }
}

TEST_F(ParallelQueryTest, AggregatesBitIdenticalToSerial) {
  const std::vector<std::pair<AggregateMethod, double>> methods = {
      {AggregateMethod::kCount, 0.0}, {AggregateMethod::kSum, 0.0},
      {AggregateMethod::kMin, 0.0},   {AggregateMethod::kMax, 0.0},
      {AggregateMethod::kMean, 0.0},  {AggregateMethod::kPercentile, 50.0},
      {AggregateMethod::kPercentile, 99.0},
  };
  for (const TimeRange& range : Ranges()) {
    for (const auto& [method, pct] : methods) {
      auto a = serial_->IndexedAggregate(kSource, serial_index_, range, method, pct);
      auto b = parallel_->IndexedAggregate(kSource, parallel_index_, range, method, pct);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        continue;  // e.g. empty range -> NotFound on both
      }
      // Bit-identical, not just approximately equal: in-order merging must
      // make the parallel sum/mean reduction associate exactly like serial.
      EXPECT_EQ(std::memcmp(&a.value(), &b.value(), sizeof(double)), 0)
          << "method=" << static_cast<int>(method) << " pct=" << pct << " serial=" << a.value()
          << " parallel=" << b.value();
    }
  }
}

TEST_F(ParallelQueryTest, HistogramMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    auto a = serial_->IndexedHistogram(kSource, serial_index_, range);
    auto b = parallel_->IndexedHistogram(kSource, parallel_index_, range);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST_F(ParallelQueryTest, CountRecordsMatchesSerial) {
  for (const TimeRange& range : Ranges()) {
    auto a = serial_->CountRecords(kSource, range);
    auto b = parallel_->CountRecords(kSource, range);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value());
    }
  }
}

TEST_F(ParallelQueryTest, TraceInvariantHoldsAndMorselsAreUsed) {
  const TimestampNanos last = parallel_clock_.NowNanos();
  QueryTrace trace;
  trace.detailed = true;
  auto r = parallel_->IndexedAggregate(kSource, parallel_index_, {0, last + 1},
                                       AggregateMethod::kMean, 0.0, &trace);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  EXPECT_GT(trace.chunks_considered, 0u);
  // The wide query has hundreds of candidate chunks; the pool must have
  // partitioned them into more than one morsel.
  EXPECT_GT(trace.parallel_morsels, 1u);
  EXPECT_GE(trace.parallel_workers, 1u);

  // A narrow query under the morsel threshold stays serial.
  QueryTrace narrow;
  ASSERT_TRUE(parallel_
                  ->IndexedAggregate(kSource, parallel_index_, {1, 2000},
                                     AggregateMethod::kCount, 0.0, &narrow)
                  .ok());
  EXPECT_EQ(narrow.chunks_pruned + narrow.chunks_scanned, narrow.chunks_considered);
}

TEST_F(ParallelQueryTest, ScanTracesSatisfyInvariantInParallel) {
  const TimestampNanos last = parallel_clock_.NowNanos();
  QueryTrace trace;
  std::vector<Delivered> got;
  ASSERT_TRUE(parallel_
                  ->IndexedScanValues(kSource, parallel_index_, {0, last + 1}, {0.0, 1e9},
                                      [&](double value, const RecordView& r) {
                                        got.push_back({r.ts, r.addr, value});
                                        return true;
                                      },
                                      &trace)
                  .ok());
  EXPECT_EQ(got.size(), kNumRecords);
  EXPECT_EQ(trace.records_matched, kNumRecords);
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  EXPECT_GT(trace.parallel_morsels, 1u);
}

// Randomized sweep: many random (time range, value range) pairs, all four
// query classes, serial and parallel must agree exactly on every one.
TEST_F(ParallelQueryTest, RandomizedEquivalenceSweep) {
  Rng rng(2026);
  const TimestampNanos last = serial_clock_.NowNanos();
  for (int iter = 0; iter < 25; ++iter) {
    TimestampNanos t0 = rng.NextBounded(last);
    TimestampNanos t1 = t0 + rng.NextBounded(last - t0) + 1;
    TimeRange range{t0, t1};
    double lo = rng.NextUniform(0.0, 80.0);
    ValueRange vr{lo, lo + rng.NextUniform(1.0, 300.0)};

    auto agg_a = serial_->IndexedAggregate(kSource, serial_index_, range, AggregateMethod::kSum);
    auto agg_b =
        parallel_->IndexedAggregate(kSource, parallel_index_, range, AggregateMethod::kSum);
    ASSERT_EQ(agg_a.ok(), agg_b.ok());
    if (agg_a.ok()) {
      EXPECT_EQ(std::memcmp(&agg_a.value(), &agg_b.value(), sizeof(double)), 0);
    }

    auto hist_a = serial_->IndexedHistogram(kSource, serial_index_, range);
    auto hist_b = parallel_->IndexedHistogram(kSource, parallel_index_, range);
    ASSERT_EQ(hist_a.ok(), hist_b.ok());
    if (hist_a.ok()) {
      EXPECT_EQ(hist_a.value(), hist_b.value());
    }

    std::vector<Delivered> scan_a;
    std::vector<Delivered> scan_b;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return true;
      };
    };
    ASSERT_TRUE(
        serial_->IndexedScanValues(kSource, serial_index_, range, vr, collect(&scan_a)).ok());
    ASSERT_TRUE(
        parallel_->IndexedScanValues(kSource, parallel_index_, range, vr, collect(&scan_b)).ok());
    EXPECT_EQ(scan_a, scan_b) << "iter=" << iter;

    std::vector<Delivered> raw_a;
    std::vector<Delivered> raw_b;
    auto collect_raw = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(serial_->RawScan(kSource, range, collect_raw(&raw_a)).ok());
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect_raw(&raw_b)).ok());
    EXPECT_EQ(raw_a, raw_b) << "iter=" << iter;
  }
}

// A forced-scalar engine with the prefetch ring disabled must return
// bit-identical results to the auto-dispatched engines: the vector kernels
// and the ring are pure performance layers, never allowed to change a byte
// of query output or delivery order.
TEST_F(ParallelQueryTest, ForcedScalarNoPrefetchBitIdentical) {
  ManualClock clock{1};
  uint32_t index_id = 0;
  std::unique_ptr<Loom> scalar = BuildEngine(dir_.FilePath("scalar"), 4, &clock, &index_id,
                                             SimdMode::kScalar, /*prefetch_depth=*/0);
  for (const TimeRange& range : Ranges()) {
    std::vector<Delivered> a;
    std::vector<Delivered> b;
    auto collect = [](std::vector<Delivered>* out) {
      return [out](double value, const RecordView& r) {
        out->push_back({r.ts, r.addr, value});
        return true;
      };
    };
    ASSERT_TRUE(
        parallel_->IndexedScanValues(kSource, parallel_index_, range, {0.0, 1e9}, collect(&a))
            .ok());
    ASSERT_TRUE(scalar->IndexedScanValues(kSource, index_id, range, {0.0, 1e9}, collect(&b))
                    .ok());
    EXPECT_EQ(a, b) << "range [" << range.start << ", " << range.end << "]";

    for (AggregateMethod method : {AggregateMethod::kSum, AggregateMethod::kMean,
                                   AggregateMethod::kCount, AggregateMethod::kPercentile}) {
      const double pct = method == AggregateMethod::kPercentile ? 99.0 : 0.0;
      auto va = parallel_->IndexedAggregate(kSource, parallel_index_, range, method, pct);
      auto vb = scalar->IndexedAggregate(kSource, index_id, range, method, pct);
      ASSERT_EQ(va.ok(), vb.ok());
      if (va.ok()) {
        EXPECT_EQ(std::memcmp(&va.value(), &vb.value(), sizeof(double)), 0)
            << "method=" << static_cast<int>(method);
      }
    }

    std::vector<Delivered> raw_a;
    std::vector<Delivered> raw_b;
    auto collect_raw = [](std::vector<Delivered>* out) {
      return [out](const RecordView& r) {
        out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
        return true;
      };
    };
    ASSERT_TRUE(parallel_->RawScan(kSource, range, collect_raw(&raw_a)).ok());
    ASSERT_TRUE(scalar->RawScan(kSource, range, collect_raw(&raw_b)).ok());
    EXPECT_EQ(raw_a, raw_b);

    auto cnt_a = parallel_->CountRecords(kSource, range);
    auto cnt_b = scalar->CountRecords(kSource, range);
    ASSERT_EQ(cnt_a.ok(), cnt_b.ok());
    if (cnt_a.ok()) {
      EXPECT_EQ(cnt_a.value(), cnt_b.value());
    }
  }

  // The scalar engine reports its dispatch in the metrics registry.
  EXPECT_EQ(scalar->metrics()->Snapshot().gauges.at("loom_query_kernel_mode"), 0.0);
}

// Prefetch ring observability: a scan-heavy query on a prefetch-enabled
// engine must account every issued read as a hit or wasted, and the counters
// must be absent when the ring is disabled.
TEST_F(ParallelQueryTest, PrefetchMetricsAccountIssuedReads) {
  const TimestampNanos last = parallel_clock_.NowNanos();
  // The ring worker races the consumers for scheduler time; on a loaded
  // single-core host one query may finish before the worker runs. Each query
  // submits a fresh job, so repeat until the worker lands a hit (bounded).
  MetricsSnapshot snap;
  for (int attempt = 0; attempt < 50; ++attempt) {
    size_t n = 0;
    ASSERT_TRUE(parallel_
                    ->IndexedScanValues(kSource, parallel_index_, {0, last + 1}, {0.0, 1e9},
                                        [&](double, const RecordView&) {
                                          ++n;
                                          return true;
                                        })
                    .ok());
    EXPECT_EQ(n, kNumRecords);
    snap = parallel_->metrics()->Snapshot();
    if (snap.counters.at("loom_query_prefetch_hits_total") > 0) {
      break;
    }
  }
  const uint64_t issued = snap.counters.at("loom_query_prefetch_issued_total");
  const uint64_t hits = snap.counters.at("loom_query_prefetch_hits_total");
  const uint64_t wasted = snap.counters.at("loom_query_prefetch_wasted_total");
  EXPECT_GT(issued, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(snap.gauges.at("loom_query_prefetch_ring_depth"), 4.0);
  // Conservation: every read the worker completed was either consumed or
  // retired as wasted; it cannot exceed what was issued.
  EXPECT_LE(hits + wasted, issued);

  ManualClock clock{1};
  uint32_t index_id = 0;
  std::unique_ptr<Loom> off =
      BuildEngine(dir_.FilePath("off"), 4, &clock, &index_id, SimdMode::kAuto,
                  /*prefetch_depth=*/0);
  EXPECT_EQ(off->metrics()->Snapshot().counters.count("loom_query_prefetch_issued_total"), 0u);
}

// query_threads=1 still goes through the pool with one worker; it must be
// just as equivalent as the 4-thread configuration.
TEST_F(ParallelQueryTest, SingleWorkerPoolMatchesSerial) {
  ManualClock clock{1};
  uint32_t index_id = 0;
  std::unique_ptr<Loom> one = BuildEngine(dir_.FilePath("one"), 1, &clock, &index_id);
  const TimestampNanos last = clock.NowNanos();
  auto a = serial_->IndexedAggregate(kSource, serial_index_, {0, last + 1},
                                     AggregateMethod::kMean);
  auto b = one->IndexedAggregate(kSource, index_id, {0, last + 1}, AggregateMethod::kMean);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(std::memcmp(&a.value(), &b.value(), sizeof(double)), 0);
}

// Batched summary loading serves every cache budget the same answers: the
// cache disabled, a budget below one query's candidate span (the query
// bypasses the cache), the default, and one larger than the whole chunk
// index. Each engine runs every operator twice (cold, then warm), serially
// and on a pool, and must match the serial reference bit for bit.
TEST_F(ParallelQueryTest, AnswersBitIdenticalAcrossCacheBudgets) {
  const TimestampNanos last = serial_clock_.NowNanos();
  const std::vector<std::pair<AggregateMethod, double>> methods = {
      {AggregateMethod::kCount, 0.0}, {AggregateMethod::kSum, 0.0},
      {AggregateMethod::kMin, 0.0},   {AggregateMethod::kMax, 0.0},
      {AggregateMethod::kMean, 0.0},  {AggregateMethod::kPercentile, 99.0},
  };
  auto collect = [](std::vector<Delivered>* out) {
    return [out](const RecordView& r) {
      out->push_back({r.ts, r.addr, PayloadValue(r.payload)});
      return true;
    };
  };
  auto topk = [&](const Loom* engine, uint32_t index_id) {
    auto hits = DrillDown(engine).TopK(kSource, index_id, {0, last + 1}, 10);
    EXPECT_TRUE(hits.ok());
    std::vector<Delivered> out;
    for (const RecordHit& h : hits.value()) {
      out.push_back({h.ts, h.addr, h.value});
    }
    return out;
  };
  const std::vector<Delivered> want_topk = topk(serial_.get(), serial_index_);
  const size_t budgets[] = {0, 64 << 10, LoomOptions{}.summary_cache_bytes, 64 << 20};
  for (size_t budget : budgets) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      SCOPED_TRACE("budget=" + std::to_string(budget) + " threads=" + std::to_string(threads));
      ManualClock clock{1};
      uint32_t index_id = 0;
      std::unique_ptr<Loom> engine =
          BuildEngine(dir_.FilePath("b" + std::to_string(budget) + "t" + std::to_string(threads)),
                      threads, &clock, &index_id, SimdMode::kAuto, 4, budget);
      for (int pass = 0; pass < 2; ++pass) {
        for (const TimeRange& range : Ranges()) {
          std::vector<Delivered> a;
          std::vector<Delivered> b;
          ASSERT_TRUE(serial_->RawScan(kSource, range, collect(&a)).ok());
          ASSERT_TRUE(engine->RawScan(kSource, range, collect(&b)).ok());
          EXPECT_EQ(a, b);
          a.clear();
          b.clear();
          ASSERT_TRUE(
              serial_->IndexedScan(kSource, serial_index_, range, {20.0, 50.0}, collect(&a)).ok());
          ASSERT_TRUE(engine->IndexedScan(kSource, index_id, range, {20.0, 50.0}, collect(&b)).ok());
          EXPECT_EQ(a, b);
          auto count_a = serial_->CountRecords(kSource, range);
          auto count_b = engine->CountRecords(kSource, range);
          ASSERT_TRUE(count_a.ok() && count_b.ok());
          EXPECT_EQ(count_a.value(), count_b.value());
          for (const auto& [method, pct] : methods) {
            auto x = serial_->IndexedAggregate(kSource, serial_index_, range, method, pct);
            auto y = engine->IndexedAggregate(kSource, index_id, range, method, pct);
            ASSERT_EQ(x.ok(), y.ok());
            if (x.ok()) {
              EXPECT_EQ(std::memcmp(&x.value(), &y.value(), sizeof(double)), 0);
            }
          }
        }
        EXPECT_EQ(topk(engine.get(), index_id), want_topk);
      }
      const SummaryCacheStats cache = engine->stats().summary_cache;
      EXPECT_LE(cache.bytes_used, budget);
      if (budget == (64 << 10)) {
        EXPECT_GT(cache.bypassed, 0u);  // the whole-range plans skip the cache
      }
      if (budget == (64 << 20)) {
        EXPECT_EQ(cache.bypassed, 0u);  // every plan fits
        EXPECT_EQ(cache.evictions, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace loom
