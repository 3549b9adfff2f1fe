#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"

namespace loom {
namespace {

// Simple fixed-layout payload used by tests: a single double value.
std::vector<uint8_t> ValuePayload(double v, size_t pad_to = 48) {
  std::vector<uint8_t> buf(std::max(pad_to, sizeof(double)), 0);
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

class LoomEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen(bool chunk_index = true, bool ts_index = true) {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.chunk_size = 1024;  // ~13 records of 48 B payload per chunk
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4096;
    opts.ts_index_block_size = 4096;
    opts.ts_marker_period = 8;
    opts.enable_chunk_index = chunk_index;
    opts.enable_timestamp_index = ts_index;
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok()) << loom.status().ToString();
    loom_ = std::move(loom.value());
  }

  // Pushes `n` records with the given values, advancing the clock by
  // `step_ns` before each push. Returns the (ts, value) ground truth.
  std::vector<std::pair<TimestampNanos, double>> PushValues(uint32_t source,
                                                            const std::vector<double>& values,
                                                            TimestampNanos step_ns = 1000) {
    std::vector<std::pair<TimestampNanos, double>> truth;
    for (double v : values) {
      clock_.AdvanceNanos(step_ns);
      EXPECT_TRUE(loom_->Push(source, ValuePayload(v)).ok());
      truth.emplace_back(clock_.NowNanos(), v);
    }
    return truth;
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
};

// --- Schema ---------------------------------------------------------------

TEST_F(LoomEngineTest, DefineSourceTwiceFails) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  EXPECT_EQ(loom_->DefineSource(1).code(), StatusCode::kAlreadyExists);
}

TEST_F(LoomEngineTest, ReservedSourceIdRejected) {
  EXPECT_EQ(loom_->DefineSource(0xFFFFFFFFu).code(), StatusCode::kInvalidArgument);
}

TEST_F(LoomEngineTest, PushToUnknownSourceFails) {
  EXPECT_EQ(loom_->Push(9, ValuePayload(1.0)).code(), StatusCode::kNotFound);
}

TEST_F(LoomEngineTest, CloseSourceStopsIngest) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(1.0)).ok());
  ASSERT_TRUE(loom_->CloseSource(1).ok());
  EXPECT_FALSE(loom_->Push(1, ValuePayload(2.0)).ok());
  // Historical data remains queryable.
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(LoomEngineTest, ReopenClosedSourceContinuesChain) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(1.0)).ok());
  ASSERT_TRUE(loom_->CloseSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->Push(1, ValuePayload(2.0)).ok());
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(LoomEngineTest, DefineIndexOnUnknownSourceFails) {
  auto spec = HistogramSpec::Uniform(0, 100, 4).value();
  EXPECT_FALSE(loom_->DefineIndex(1, ValueIndexFunc(), spec).ok());
}

TEST_F(LoomEngineTest, CloseIndexRemovesIt) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 4).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(loom_->CloseIndex(idx.value()).ok());
  EXPECT_EQ(loom_->CloseIndex(idx.value()).code(), StatusCode::kNotFound);
  EXPECT_FALSE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                  [](const RecordView&) { return true; })
                   .ok());
}

TEST_F(LoomEngineTest, RecordLargerThanChunkRejected) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  std::vector<uint8_t> big(2048, 0);
  EXPECT_EQ(loom_->Push(1, big).code(), StatusCode::kInvalidArgument);
}

// --- RawScan ------------------------------------------------------------------

TEST_F(LoomEngineTest, RawScanReturnsNewestFirst) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, {1, 2, 3, 4, 5});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  EXPECT_EQ(seen, (std::vector<double>{5, 4, 3, 2, 1}));
}

TEST_F(LoomEngineTest, RawScanRespectsTimeRange) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto truth = PushValues(1, {10, 20, 30, 40, 50});
  // Select the middle three by time.
  TimeRange range{truth[1].first, truth[3].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  EXPECT_EQ(seen, (std::vector<double>{40, 30, 20}));
}

TEST_F(LoomEngineTest, RawScanFiltersOtherSources) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  ASSERT_TRUE(loom_->DefineSource(2).ok());
  for (int i = 0; i < 20; ++i) {
    clock_.AdvanceNanos(10);
    ASSERT_TRUE(loom_->Push(i % 2 == 0 ? 1 : 2, ValuePayload(i)).ok());
  }
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(2, {0, ~0ULL}, [&](const RecordView& r) {
                EXPECT_EQ(r.source_id, 2u);
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 10);
}

TEST_F(LoomEngineTest, RawScanEarlyStop) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, std::vector<double>(100, 1.0));
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return count < 5;
              }).ok());
  EXPECT_EQ(count, 5);
}

TEST_F(LoomEngineTest, RawScanEmptySource) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  int count = 0;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL}, [&](const RecordView&) {
                ++count;
                return true;
              }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(LoomEngineTest, RawScanCrossesManyChunksAndBlocks) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    values.push_back(i);
  }
  auto truth = PushValues(1, values);
  // Window covering records 500..1499.
  TimeRange range{truth[500].first, truth[1499].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView& r) {
                seen.push_back(PayloadValue(r.payload));
                return true;
              }).ok());
  ASSERT_EQ(seen.size(), 1000u);
  EXPECT_EQ(seen.front(), 1499.0);
  EXPECT_EQ(seen.back(), 500.0);
}

// --- IndexedScan -----------------------------------------------------------------

TEST_F(LoomEngineTest, IndexedScanFiltersByValue) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(i % 100);
  }
  PushValues(1, values);
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {90, 95},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen.size(), 30u);  // values 90..95 occur 5x each
  for (double v : seen) {
    EXPECT_GE(v, 90.0);
    EXPECT_LE(v, 95.0);
  }
}

TEST_F(LoomEngineTest, IndexedScanOldestFirstOrder) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  PushValues(1, {50, 51, 52, 53, 54});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<double>{50, 51, 52, 53, 54}));
}

TEST_F(LoomEngineTest, IndexedScanTimeAndValueCombined) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(i);
  }
  auto truth = PushValues(1, values);
  TimeRange range{truth[200].first, truth[799].first};
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), range, {500, 600},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  ASSERT_EQ(seen.size(), 101u);
  EXPECT_EQ(seen.front(), 500.0);
  EXPECT_EQ(seen.back(), 600.0);
}

TEST_F(LoomEngineTest, IndexedScanFindsOutliers) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  // User bins only cover [0, 10); outliers land in the overflow bin.
  auto spec = HistogramSpec::Uniform(0, 10, 5).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values(500, 5.0);
  values[123] = 1e9;  // one extreme outlier
  PushValues(1, values);
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {1e6, 1e12},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, std::vector<double>{1e9});
}

TEST_F(LoomEngineTest, IndexedScanSeesUnindexedHistory) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  // Push data *before* defining the index: presence entries must route the
  // scan through the old chunks (§5.3).
  PushValues(1, {7, 8, 9});
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  PushValues(1, {10, 11});
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 100},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen, (std::vector<double>{7, 8, 9, 10, 11}));
}

// --- IndexedAggregate --------------------------------------------------------------

class LoomAggregateTest : public LoomEngineTest {
 protected:
  void SetUpSourceWithData(size_t n, uint64_t seed) {
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 16).value();
    auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      values.push_back(rng.NextLogNormal(100.0, 1.0));
    }
    truth_ = PushValues(1, values);
  }

  double ReferenceAggregate(TimeRange range, AggregateMethod method, double pct = 0) const {
    std::vector<double> in_range;
    for (const auto& [ts, v] : truth_) {
      if (range.Contains(ts)) {
        in_range.push_back(v);
      }
    }
    switch (method) {
      case AggregateMethod::kCount:
        return static_cast<double>(in_range.size());
      case AggregateMethod::kSum:
        return std::accumulate(in_range.begin(), in_range.end(), 0.0);
      case AggregateMethod::kMin:
        return *std::min_element(in_range.begin(), in_range.end());
      case AggregateMethod::kMax:
        return *std::max_element(in_range.begin(), in_range.end());
      case AggregateMethod::kMean:
        return std::accumulate(in_range.begin(), in_range.end(), 0.0) / in_range.size();
      case AggregateMethod::kPercentile: {
        std::sort(in_range.begin(), in_range.end());
        size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * in_range.size()));
        rank = std::max<size_t>(1, std::min(rank, in_range.size()));
        return in_range[rank - 1];
      }
    }
    return 0;
  }

  uint32_t index_id_ = 0;
  std::vector<std::pair<TimestampNanos, double>> truth_;
};

TEST_F(LoomAggregateTest, CountMatchesReference) {
  SetUpSourceWithData(1000, 1);
  TimeRange range{truth_[100].first, truth_[899].first};
  auto got = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kCount);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), 800.0);
}

TEST_F(LoomAggregateTest, MinMaxMatchReference) {
  SetUpSourceWithData(1000, 2);
  TimeRange range{truth_[50].first, truth_[949].first};
  auto max = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_DOUBLE_EQ(max.value(), ReferenceAggregate(range, AggregateMethod::kMax));
  auto min = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMin);
  ASSERT_TRUE(min.ok());
  EXPECT_DOUBLE_EQ(min.value(), ReferenceAggregate(range, AggregateMethod::kMin));
}

TEST_F(LoomAggregateTest, SumAndMeanMatchReference) {
  SetUpSourceWithData(500, 3);
  TimeRange range{0, ~0ULL};
  auto sum = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum.value(), ReferenceAggregate(range, AggregateMethod::kSum), 1e-6);
  auto mean = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kMean);
  ASSERT_TRUE(mean.ok());
  EXPECT_NEAR(mean.value(), ReferenceAggregate(range, AggregateMethod::kMean), 1e-9);
}

TEST_F(LoomAggregateTest, PercentilesMatchReferenceExactly) {
  SetUpSourceWithData(2000, 4);
  TimeRange range{truth_[100].first, truth_[1899].first};
  for (double pct : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    auto got = loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kPercentile, pct);
    ASSERT_TRUE(got.ok()) << "pct=" << pct << ": " << got.status().ToString();
    EXPECT_DOUBLE_EQ(got.value(), ReferenceAggregate(range, AggregateMethod::kPercentile, pct))
        << "pct=" << pct;
  }
}

TEST_F(LoomAggregateTest, EmptyRangeReturnsNotFound) {
  SetUpSourceWithData(100, 5);
  auto got = loom_->IndexedAggregate(1, index_id_, {1, 2}, AggregateMethod::kMax);
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  auto count = loom_->IndexedAggregate(1, index_id_, {1, 2}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 0.0);
}

TEST_F(LoomAggregateTest, InvalidPercentileRejected) {
  SetUpSourceWithData(10, 6);
  EXPECT_FALSE(
      loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile, 101).ok());
  EXPECT_FALSE(
      loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kPercentile, -1).ok());
}

// --- Ablation modes (Fig. 16 machinery) -----------------------------------------

class LoomAblationTest : public LoomEngineTest,
                         public ::testing::WithParamInterface<std::tuple<bool, bool>> {};

TEST_P(LoomAblationTest, QueriesCorrectInAllIndexModes) {
  const auto [chunk_index, ts_index] = GetParam();
  Reopen(chunk_index, ts_index);
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 100, 10).value();
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), spec);
  ASSERT_TRUE(idx.ok());
  std::vector<double> values;
  for (int i = 0; i < 600; ++i) {
    values.push_back(i % 100);
  }
  auto truth = PushValues(1, values);
  TimeRange range{truth[100].first, truth[499].first};

  // Raw scan count.
  int raw = 0;
  ASSERT_TRUE(loom_->RawScan(1, range, [&](const RecordView&) {
                ++raw;
                return true;
              }).ok());
  EXPECT_EQ(raw, 400);

  // Indexed scan matches regardless of enabled index layers.
  std::vector<double> seen;
  ASSERT_TRUE(loom_->IndexedScan(1, idx.value(), range, {95, 99},
                                 [&](const RecordView& r) {
                                   seen.push_back(PayloadValue(r.payload));
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(seen.size(), 20u);  // 4 full centuries in range * 5 values

  // Aggregate.
  auto count = loom_->IndexedAggregate(1, idx.value(), range, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 400.0);
  // rank = ceil(0.99 * 400) = 396; each value occurs 4x, so the 396th
  // smallest of 0..99 repeated is 98.
  auto p99 = loom_->IndexedAggregate(1, idx.value(), range, AggregateMethod::kPercentile, 99);
  ASSERT_TRUE(p99.ok());
  EXPECT_EQ(p99.value(), 98.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, LoomAblationTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

// --- Randomized differential test against a reference model ------------------------

struct RefRecord {
  TimestampNanos ts;
  double value;
};

class LoomDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Pushes a random multi-source workload, then checks random raw scans,
// indexed scans, and aggregates against a brute-force in-memory model.
TEST_P(LoomDifferentialTest, MatchesReferenceModel) {
  TempDir dir;
  ManualClock clock(1);
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.chunk_size = 512;
  opts.record_block_size = 4096;
  opts.chunk_index_block_size = 4096;
  opts.ts_index_block_size = 2048;
  opts.ts_marker_period = 5;
  opts.clock = &clock;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());

  Rng rng(GetParam());
  constexpr int kSources = 3;
  std::map<uint32_t, std::vector<RefRecord>> model;
  std::map<uint32_t, uint32_t> index_ids;
  auto spec = HistogramSpec::Uniform(0, 1000, 8).value();
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE((*loom)->DefineSource(s).ok());
    auto idx = (*loom)->DefineIndex(
        s,
        [](std::span<const uint8_t> p) -> std::optional<double> {
          double v;
          std::memcpy(&v, p.data(), sizeof(v));
          return v;
        },
        spec);
    ASSERT_TRUE(idx.ok());
    index_ids[s] = idx.value();
  }

  constexpr int kRecords = 3000;
  for (int i = 0; i < kRecords; ++i) {
    clock.AdvanceNanos(1 + rng.NextBounded(100));
    uint32_t s = 1 + static_cast<uint32_t>(rng.NextBounded(kSources));
    double v = rng.NextUniform(-100, 1100);  // exercises outlier bins
    ASSERT_TRUE((*loom)->Push(s, ValuePayload(v)).ok());
    model[s].push_back({clock.NowNanos(), v});
  }
  const TimestampNanos t_max = clock.NowNanos();

  for (int probe = 0; probe < 30; ++probe) {
    uint32_t s = 1 + static_cast<uint32_t>(rng.NextBounded(kSources));
    TimestampNanos a = rng.NextBounded(t_max + 10);
    TimestampNanos b = rng.NextBounded(t_max + 10);
    TimeRange range{std::min(a, b), std::max(a, b)};

    // Reference.
    std::vector<double> ref;
    for (const RefRecord& r : model[s]) {
      if (range.Contains(r.ts)) {
        ref.push_back(r.value);
      }
    }

    // Raw scan (newest first) -> compare as multiset.
    std::vector<double> raw;
    ASSERT_TRUE((*loom)->RawScan(s, range, [&](const RecordView& r) {
                  raw.push_back(PayloadValue(r.payload));
                  return true;
                }).ok());
    std::vector<double> ref_sorted = ref;
    std::sort(ref_sorted.begin(), ref_sorted.end());
    std::sort(raw.begin(), raw.end());
    EXPECT_EQ(raw, ref_sorted) << "source " << s << " probe " << probe;

    // Indexed scan over a random value range.
    double v1 = rng.NextUniform(-200, 1200);
    double v2 = rng.NextUniform(-200, 1200);
    ValueRange vr{std::min(v1, v2), std::max(v1, v2)};
    std::vector<double> indexed;
    ASSERT_TRUE((*loom)->IndexedScan(s, index_ids[s], range, vr,
                                     [&](const RecordView& r) {
                                       indexed.push_back(PayloadValue(r.payload));
                                       return true;
                                     })
                    .ok());
    std::vector<double> ref_filtered;
    for (double v : ref) {
      if (vr.Contains(v)) {
        ref_filtered.push_back(v);
      }
    }
    std::sort(indexed.begin(), indexed.end());
    std::sort(ref_filtered.begin(), ref_filtered.end());
    EXPECT_EQ(indexed, ref_filtered) << "source " << s << " probe " << probe;

    // Aggregates.
    auto count = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), static_cast<double>(ref.size()));
    if (!ref.empty()) {
      auto max = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kMax);
      ASSERT_TRUE(max.ok());
      EXPECT_DOUBLE_EQ(max.value(), *std::max_element(ref.begin(), ref.end()));
      double pct = rng.NextUniform(0, 100);
      auto p = (*loom)->IndexedAggregate(s, index_ids[s], range, AggregateMethod::kPercentile,
                                         pct);
      ASSERT_TRUE(p.ok());
      std::sort(ref.begin(), ref.end());
      size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * ref.size()));
      rank = std::max<size_t>(1, std::min(rank, ref.size()));
      EXPECT_DOUBLE_EQ(p.value(), ref[rank - 1]) << "pct=" << pct;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoomDifferentialTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- Stats ------------------------------------------------------------------------

TEST_F(LoomEngineTest, StatsReflectIngest) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  PushValues(1, std::vector<double>(100, 1.0));
  LoomStats stats = loom_->stats();
  EXPECT_EQ(stats.records_ingested, 100u);
  EXPECT_EQ(stats.bytes_ingested, 100u * 48);
  EXPECT_GT(stats.chunks_finalized, 0u);
  EXPECT_GT(stats.ts_entries, 0u);
}

// --- Summary cache (engine level) -------------------------------------------------

TEST_F(LoomEngineTest, RepeatedAggregatesHitSummaryCache) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());
  std::vector<double> values(500);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 100);
  }
  PushValues(1, values);
  // Drain the seal pipeline so the finalized-chunk set is frozen: a chunk
  // sealing between the cold and warm queries would add fresh cold misses.
  ASSERT_TRUE(loom_->Sync(1).ok());

  // First query decodes summaries cold and populates the cache.
  auto first = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(first.ok());
  const SummaryCacheStats after_cold = loom_->stats().summary_cache;
  EXPECT_GT(after_cold.misses, 0u);
  EXPECT_GT(after_cold.entries, 0u);

  // Repeats are served from the cache and agree with the cold result.
  for (int i = 0; i < 3; ++i) {
    auto warm = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm.value(), first.value());
  }
  const SummaryCacheStats after_warm = loom_->stats().summary_cache;
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
}

TEST_F(LoomEngineTest, SummaryCacheDisabledByZeroBudget) {
  LoomOptions opts;
  opts.dir = dir_.FilePath("loom-nocache");
  opts.chunk_size = 1024;
  opts.record_block_size = 8192;
  opts.summary_cache_bytes = 0;
  opts.clock = &clock_;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  ASSERT_TRUE((*loom)->DefineSource(1).ok());
  auto idx =
      (*loom)->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 300; ++i) {
    clock_.AdvanceNanos(1000);
    ASSERT_TRUE((*loom)->Push(1, ValuePayload(i % 100)).ok());
  }

  // Queries stay correct with the cache off, and the counters stay zero.
  for (int i = 0; i < 2; ++i) {
    auto count = (*loom)->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 300.0);
  }
  const SummaryCacheStats cache = (*loom)->stats().summary_cache;
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.entries, 0u);
}

// --- Batched summary loading ------------------------------------------------------

// An engine holding more than a thousand finalized chunks of one indexed
// source. The chunk index fits one chunk-index block, so the log's per-block
// read counters count HybridLog::Read calls.
class SummaryLoadingTest : public ::testing::Test {
 protected:
  static constexpr int kRecords = 15000;  // ~13 records per 1 KiB chunk

  void Open(size_t summary_cache_bytes) {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.chunk_size = 1024;
    opts.record_block_size = 8192;
    opts.chunk_index_block_size = 4 << 20;
    opts.summary_cache_bytes = summary_cache_bytes;
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok()) << loom.status().ToString();
    loom_ = std::move(loom.value());
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    auto idx = loom_->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
    for (int i = 0; i < kRecords; ++i) {
      clock_.AdvanceNanos(1000);
      ASSERT_TRUE(loom_->Push(1, ValuePayload(i % 100)).ok());
    }
    ASSERT_TRUE(loom_->Sync(1).ok());  // freeze the finalized-chunk set
  }

  // Arrival time of the i-th pushed record.
  static TimestampNanos Ts(int i) { return 1 + 1000 * static_cast<TimestampNanos>(i + 1); }

  static uint64_t Reads(const HybridLogStats& s) { return s.disk_reads + s.memory_reads; }

  Result<double> Count(TimeRange range, QueryTrace* trace) {
    return loom_->IndexedAggregate(1, index_id_, range, AggregateMethod::kCount, 0.0, trace);
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  uint32_t index_id_ = 0;
};

TEST_F(SummaryLoadingTest, ColdQueryReadsTheChunkIndexInBufferSizedRuns) {
  Open(LoomOptions{}.summary_cache_bytes);
  const LoomStats before = loom_->stats();
  QueryTrace cold;
  auto count = Count({0, ~0ULL}, &cold);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), static_cast<double>(kRecords));
  ASSERT_GE(cold.chunks_considered, 1000u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GE(cold.cache_misses, cold.chunks_considered);

  // The index size bounds the plan's chunk-index span.
  const LoomStats after = loom_->stats();
  const uint64_t index_reads = Reads(after.chunk_index_log) - Reads(before.chunk_index_log);
  const uint64_t span = after.chunk_index_log.bytes_appended;
  EXPECT_LE(index_reads, (span + kSummaryBatchBytes - 1) / kSummaryBatchBytes + 2);
  EXPECT_GE(cold.summary_reads, 1u);
  EXPECT_LE(cold.summary_reads, index_reads);
  EXPECT_GT(cold.summary_nanos, 0u);

  // The plan fits the default budget, so the repeat is served from memory.
  QueryTrace warm;
  auto again = Count({0, ~0ULL}, &warm);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), count.value());
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.summary_reads, 0u);
  EXPECT_EQ(loom_->stats().summary_cache.bypassed, 0u);
}

TEST_F(SummaryLoadingTest, PlansWiderThanTheCacheBudgetBypassIt) {
  Open(64 << 10);
  // A narrow window spans a few frames: it fills the cache as before.
  const TimeRange narrow{Ts(1000), Ts(1060)};
  QueryTrace first;
  auto narrow_count = Count(narrow, &first);
  ASSERT_TRUE(narrow_count.ok());
  EXPECT_EQ(narrow_count.value(), 61.0);
  const SummaryCacheStats filled = loom_->stats().summary_cache;
  EXPECT_GT(filled.entries, 0u);
  EXPECT_EQ(filled.bypassed, 0u);

  // The whole range spans far more chunk-index bytes than the budget: its
  // decoded summaries are used without being inserted, so the cache keeps
  // what it held.
  QueryTrace wide;
  auto wide_count = Count({0, ~0ULL}, &wide);
  ASSERT_TRUE(wide_count.ok());
  EXPECT_EQ(wide_count.value(), static_cast<double>(kRecords));
  const SummaryCacheStats after_wide = loom_->stats().summary_cache;
  EXPECT_EQ(after_wide.entries, filled.entries);
  EXPECT_EQ(after_wide.evictions, filled.evictions);
  EXPECT_EQ(after_wide.bypassed, filled.bypassed + wide.cache_misses);
  EXPECT_GT(wide.cache_hits, 0u);  // it still reads what the cache holds

  // The narrow window is still resident.
  QueryTrace repeat;
  ASSERT_TRUE(Count(narrow, &repeat).ok());
  EXPECT_EQ(repeat.cache_misses, 0u);
  EXPECT_GT(repeat.cache_hits, 0u);
}

TEST_F(LoomEngineTest, PushBatchMatchesPushResults) {
  ASSERT_TRUE(loom_->DefineSource(1).ok());
  auto idx = loom_->DefineIndex(1, ValueIndexFunc(), HistogramSpec::Uniform(0, 100, 8).value());
  ASSERT_TRUE(idx.ok());

  // Push 200 records through batches of 16; one clock tick per batch.
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<std::span<const uint8_t>> spans;
  uint64_t pushed = 0;
  while (pushed < 200) {
    payloads.clear();
    spans.clear();
    for (int i = 0; i < 16 && pushed < 200; ++i) {
      payloads.push_back(ValuePayload(static_cast<double>(pushed % 100)));
      ++pushed;
    }
    for (const auto& p : payloads) {
      spans.emplace_back(p);
    }
    clock_.AdvanceNanos(1000);
    ASSERT_TRUE(loom_->PushBatch(1, std::span<const std::span<const uint8_t>>(spans)).ok());
  }

  auto count = loom_->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 200.0);
  auto counted = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), 200u);

  // Records of one batch share an arrival timestamp; raw order is preserved.
  std::vector<TimestampNanos> stamps;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL},
                             [&](const RecordView& r) {
                               stamps.push_back(r.ts);
                               return true;
                             })
                  .ok());
  ASSERT_EQ(stamps.size(), 200u);
  for (size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GE(stamps[i - 1], stamps[i]);  // newest-first, non-increasing
  }
  EXPECT_EQ(stamps.front(), stamps[7]);  // final batch of 8 shares one timestamp
}

TEST_F(LoomEngineTest, PushBatchToUnknownSourceFails) {
  std::vector<uint8_t> payload = ValuePayload(1.0);
  std::array<std::span<const uint8_t>, 1> spans = {std::span<const uint8_t>(payload)};
  EXPECT_EQ(loom_->PushBatch(9, std::span<const std::span<const uint8_t>>(spans)).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace loom
