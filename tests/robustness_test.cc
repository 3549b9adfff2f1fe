// Corruption robustness: every decoder that consumes persisted bytes must
// reject malformed input with a clean status — random bytes, truncations,
// and bit flips must never crash or hang.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>

#include "src/common/file.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/export/codec.h"
#include "src/export/exporter.h"
#include "src/index/chunk_summary.h"

namespace loom {
namespace {

class RandomBytesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomBytesTest, ChunkSummaryDecodeNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(200));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    // Must either decode (if it happens to be well-formed) or fail cleanly.
    auto result = ChunkSummary::Decode(bytes);
    if (result.ok()) {
      EXPECT_LE(result->entries.size(), bytes.size());
    }
  }
}

TEST_P(RandomBytesTest, RleDecompressNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(500));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    std::vector<uint8_t> out;
    // Bounded output, clean error or success.
    (void)RleDecompress(bytes, out);
  }
}

TEST_P(RandomBytesTest, VarintNeverCrashes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> bytes(rng.NextBounded(12));
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.Next64());
    }
    size_t offset = 0;
    (void)GetVarint(bytes, &offset);
    EXPECT_LE(offset, bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesTest, ::testing::Values(1u, 7u, 13u));

class ArchiveCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Build a valid archive to corrupt.
    ManualClock clock(1);
    LoomOptions opts;
    opts.dir = dir_.FilePath("loom");
    opts.clock = &clock;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    ASSERT_TRUE((*loom)->DefineSource(1).ok());
    for (int i = 0; i < 2000; ++i) {
      clock.AdvanceNanos(10);
      std::vector<uint8_t> payload(32, static_cast<uint8_t>(i));
      ASSERT_TRUE((*loom)->Push(1, payload).ok());
    }
    path_ = dir_.FilePath("good.loomexp");
    auto stats = ExportTimeRange(**loom, {1}, {0, ~0ULL}, path_);
    ASSERT_TRUE(stats.ok());
    auto file = File::OpenReadOnly(path_);
    ASSERT_TRUE(file.ok());
    auto size = file->Size();
    ASSERT_TRUE(size.ok());
    bytes_.resize(size.value());
    ASSERT_TRUE(file->PReadAll(0, bytes_).ok());
  }

  // Writes `bytes` to a fresh file and scans it; must not crash.
  void TryScan(const std::vector<uint8_t>& bytes, const std::string& name) {
    const std::string path = dir_.FilePath(name);
    auto file = File::CreateTruncate(path);
    ASSERT_TRUE(file.ok());
    if (!bytes.empty()) {
      ASSERT_TRUE(file->PWriteAll(0, bytes).ok());
    }
    auto reader = ArchiveReader::Open(path);
    if (!reader.ok()) {
      return;  // rejected at open: fine
    }
    uint64_t scanned = 0;
    Status st = reader->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
      ++scanned;
      return true;
    });
    (void)st;  // either a clean error or a (possibly partial) scan
  }

  TempDir dir_;
  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(ArchiveCorruptionTest, TruncationsFailCleanly) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t cut = rng.NextBounded(bytes_.size());
    TryScan(std::vector<uint8_t>(bytes_.begin(), bytes_.begin() + static_cast<long>(cut)),
            "trunc" + std::to_string(trial));
  }
}

TEST_F(ArchiveCorruptionTest, BitFlipsFailCleanly) {
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> mutated = bytes_;
    for (int flips = 0; flips < 8; ++flips) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
    }
    TryScan(mutated, "flip" + std::to_string(trial));
  }
}

TEST_F(ArchiveCorruptionTest, IntactArchiveStillScans) {
  auto reader = ArchiveReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  uint64_t scanned = 0;
  ASSERT_TRUE(reader->Scan([&](uint32_t, TimestampNanos, std::span<const uint8_t>) {
                ++scanned;
                return true;
              }).ok());
  EXPECT_EQ(scanned, 2000u);
}

// --- Chunk-index frames on the batched load path -----------------------------

// A summary frame whose length prefix is corrupt in the middle of a run that
// the loader reads with one chunk-index read must still fail the query with
// DataLoss, exactly as a frame read on its own does.
TEST(SummaryFrameCorruptionTest, CorruptLengthInsideABatchedRunIsDataLoss) {
  TempDir dir;
  LoomOptions opts;
  opts.dir = dir.FilePath("loom");
  opts.chunk_size = 1024;
  opts.record_block_size = 8192;
  opts.chunk_index_block_size = 4096;  // most of the index is flushed to the file
  opts.summary_cache_bytes = 0;        // every query loads its summaries cold
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  Loom* l = loom->get();
  ASSERT_TRUE(l->DefineSource(1).ok());
  auto idx = l->DefineIndex(
      1,
      [](std::span<const uint8_t> p) -> std::optional<double> {
        return static_cast<double>(p[0]);
      },
      HistogramSpec::Uniform(0, 256, 8).value());
  ASSERT_TRUE(idx.ok());
  std::vector<uint8_t> payload(48, 0);
  for (int i = 0; i < 6000; ++i) {
    payload[0] = static_cast<uint8_t>(i);
    ASSERT_TRUE(l->Push(1, payload).ok());
  }
  ASSERT_TRUE(l->Sync(1).ok());
  auto intact = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kSum);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();

  // Walk the flushed prefix of chunk.idx: u32 length + body per frame, with
  // 0xFFFFFFFF padding to the end of a block.
  const std::string path = opts.dir + "/chunk.idx";
  const uint64_t flushed = l->stats().chunk_index_log.blocks_flushed * 4096;
  ASSERT_GT(flushed, 0u);
  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> bytes(flushed);
  ASSERT_EQ(::pread(fd, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));
  std::vector<uint64_t> frames;
  for (uint64_t addr = 0; addr + 4 <= flushed;) {
    uint32_t len;
    std::memcpy(&len, bytes.data() + addr, 4);
    if (len == 0xFFFFFFFFu) {
      addr = (addr / 4096 + 1) * 4096;
      continue;
    }
    if (addr + 4 + len > flushed) {
      break;
    }
    frames.push_back(addr);
    addr += 4 + len;
  }
  ASSERT_GE(frames.size(), 100u);
  const uint64_t victim = frames[frames.size() / 2];
  ASSERT_LT(victim, kSummaryBatchBytes);  // inside the first batched run
  const uint32_t bad_len = 0x7FFFFFF0u;   // reaches past the snapshot tail
  ASSERT_EQ(::pwrite(fd, &bad_len, 4, static_cast<off_t>(victim)), 4);
  ::close(fd);

  auto sum = l->IndexedAggregate(1, idx.value(), {0, ~0ULL}, AggregateMethod::kSum);
  EXPECT_EQ(sum.status().code(), StatusCode::kDataLoss);
  auto count = l->CountRecords(1, {0, ~0ULL});
  EXPECT_EQ(count.status().code(), StatusCode::kDataLoss);
  Status scan = l->IndexedScan(1, idx.value(), {0, ~0ULL}, {0, 256},
                               [](const RecordView&) { return true; });
  EXPECT_EQ(scan.code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace loom
