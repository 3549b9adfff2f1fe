// Retention: bounded disk footprint for the record log. Old blocks are
// dropped (and hole-punched where supported); queries cleanly return the
// retained suffix of the data.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/file.h"
#include "src/core/loom.h"
#include "src/hybridlog/hybrid_log.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(&buf[0], &v, sizeof(v));
  return buf;
}

TEST(HybridLogRetentionTest, FloorAdvancesAndOldReadsFail) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 1024;
  opts.retain_bytes = 4096;  // rounded up to >= (num_blocks+1)*block = 3072
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> cell(256, 0xAB);
  // Write 64 KiB: far more than the retained window.
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE((*log)->Append(cell).ok());
  }
  (*log)->Publish();
  // Wait for the flusher to flush the full blocks and retire the old ones.
  (*log)->Drain();
  const uint64_t floor = (*log)->retained_floor();
  EXPECT_GT(floor, 0u);
  EXPECT_EQ(floor % opts.block_size, 0u);  // block-aligned

  std::vector<uint8_t> out(256);
  EXPECT_EQ((*log)->Read(0, out).code(), StatusCode::kOutOfRange);
  // Retained data still reads fine.
  ASSERT_TRUE((*log)->Read(floor, out).ok());
  EXPECT_EQ(out, cell);
  // Tail is always retained.
  ASSERT_TRUE((*log)->Read((*log)->queryable_tail() - 256, out).ok());
  EXPECT_EQ(out, cell);
}

TEST(HybridLogRetentionTest, DisabledByDefault) {
  TempDir dir;
  HybridLogOptions opts;
  opts.block_size = 512;
  auto log = HybridLog::Create(dir.FilePath("log"), opts);
  ASSERT_TRUE(log.ok());
  std::vector<uint8_t> cell(128, 1);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*log)->Append(cell).ok());
  }
  (*log)->Publish();
  EXPECT_EQ((*log)->retained_floor(), 0u);
  std::vector<uint8_t> out(128);
  EXPECT_TRUE((*log)->Read(0, out).ok());
}

class LoomRetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.chunk_size = 1024;
    opts.record_block_size = 4096;
    opts.record_retain_bytes = 32 << 10;  // keep the newest ~32 KiB of records
    opts.clock = &clock_;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    loom_ = std::move(loom.value());
    ASSERT_TRUE(loom_->DefineSource(1).ok());
    auto spec = HistogramSpec::Uniform(0, 100000, 16).value();
    auto idx = loom_->DefineIndex(
        1,
        [](std::span<const uint8_t> p) -> std::optional<double> {
          if (p.size() < sizeof(double)) {
            return std::nullopt;
          }
          double v;
          std::memcpy(&v, p.data(), sizeof(v));
          return v;
        },
        spec);
    ASSERT_TRUE(idx.ok());
    index_id_ = idx.value();
  }

  TempDir dir_;
  ManualClock clock_{1};
  std::unique_ptr<Loom> loom_;
  uint32_t index_id_ = 0;
};

TEST_F(LoomRetentionTest, QueriesReturnRetainedSuffix) {
  constexpr int kRecords = 10000;  // ~720 KiB of records, >> 32 KiB retained
  for (int i = 0; i < kRecords; ++i) {
    clock_.AdvanceNanos(100);
    ASSERT_TRUE(loom_->Push(1, ValuePayload(i)).ok());
  }
  // Let the flusher fully quiesce: the queries below each take their own
  // snapshot, so retention must not advance between the raw scan and the
  // aggregates it is compared against. Ingest is done, so the flusher owes
  // exactly one flush per full block (the active partial block stays in
  // memory); once blocks_flushed reaches that count, no further retention
  // movement is possible. One extra sleep covers the instant between the
  // final flush being counted and its floor advance landing.
  const uint64_t full_blocks = loom_->stats().record_log.bytes_appended / 4096;
  ASSERT_GE(full_blocks, 150u);  // >> the 8-block retained window
  for (int spin = 0; spin < 2000 && loom_->stats().record_log.blocks_flushed < full_blocks;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(loom_->stats().record_log.blocks_flushed, full_blocks);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  // Raw scan over all time returns a dense suffix ending at the newest
  // record; the oldest records are gone.
  std::vector<double> seen;
  ASSERT_TRUE(loom_->RawScan(1, {0, ~0ULL},
                             [&](const RecordView& r) {
                               double v;
                               std::memcpy(&v, r.payload.data(), sizeof(v));
                               seen.push_back(v);
                               return true;
                             })
                  .ok());
  ASSERT_FALSE(seen.empty());
  EXPECT_LT(seen.size(), static_cast<size_t>(kRecords));  // retention dropped data
  EXPECT_EQ(seen.front(), kRecords - 1.0);                // newest first
  // Dense: consecutive descending values.
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] - 1.0);
  }

  // Indexed queries agree with the raw suffix.
  auto count = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), static_cast<double>(seen.size()));
  auto max = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value(), kRecords - 1.0);
  auto min = loom_->IndexedAggregate(1, index_id_, {0, ~0ULL}, AggregateMethod::kMin);
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min.value(), seen.back());

  auto counted = loom_->CountRecords(1, {0, ~0ULL});
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), seen.size());
}

TEST_F(LoomRetentionTest, RecentWindowUnaffectedByRetention) {
  std::vector<TimestampNanos> stamps;
  for (int i = 0; i < 10000; ++i) {
    clock_.AdvanceNanos(100);
    ASSERT_TRUE(loom_->Push(1, ValuePayload(i)).ok());
    stamps.push_back(clock_.NowNanos());
  }
  // A query over the newest 200 records is entirely inside the retained
  // window and must be complete.
  const TimeRange recent{stamps[9800], stamps[9999]};
  uint64_t raw = 0;
  ASSERT_TRUE(loom_->RawScan(1, recent, [&](const RecordView&) {
                ++raw;
                return true;
              }).ok());
  EXPECT_EQ(raw, 200u);
  std::vector<double> values;
  ASSERT_TRUE(loom_->IndexedScan(1, index_id_, recent, {9900, 9949},
                                 [&](const RecordView& r) {
                                   double v;
                                   std::memcpy(&v, r.payload.data(), sizeof(v));
                                   values.push_back(v);
                                   return true;
                                 })
                  .ok());
  EXPECT_EQ(values.size(), 50u);
}

}  // namespace
}  // namespace loom
