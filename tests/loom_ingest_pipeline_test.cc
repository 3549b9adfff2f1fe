// The ingest pipeline (one sealing thread + staged summary construction):
// golden log bytes and query answers, drain semantics, sticky sealing
// errors, clean shutdown with in-flight work, and reader visibility under
// concurrent ingest.
//
// The whole suite is registered twice in CMake: once normally and once with
// LOOM_IO=sync forced, pinning the synchronous flush backend.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/file.h"
#include "src/core/loom.h"

namespace loom {
namespace {

std::vector<uint8_t> ValuePayload(double v) {
  std::vector<uint8_t> buf(48, 0);
  std::memcpy(&buf[0], &v, sizeof(v));
  return buf;
}

std::optional<double> ValueIndex(std::span<const uint8_t> p) {
  if (p.size() < sizeof(double)) {
    return std::nullopt;
  }
  double v;
  std::memcpy(&v, p.data(), sizeof(v));
  return v;
}

double WorkloadValue(int i) { return static_cast<double>((i * 37) % 1000) + 0.25; }

// Ingests `n` deterministic records into source 1, advancing `clock` 1ms per
// record, so two engines fed by this helper see identical timestamp streams.
void IngestWorkload(Loom* loom, ManualClock* clock, int n) {
  for (int i = 0; i < n; ++i) {
    clock->AdvanceNanos(1'000'000);
    ASSERT_TRUE(loom->Push(1, ValuePayload(WorkloadValue(i))).ok());
  }
  ASSERT_TRUE(loom->Sync(1).ok());
}

struct QueryFingerprint {
  uint64_t count = 0;
  double sum = 0, min = 0, max = 0, mean = 0, p50 = 0, p99 = 0;
  std::vector<uint64_t> histogram;
  std::vector<std::pair<uint64_t, double>> scan;  // (addr, value), log order

  bool operator==(const QueryFingerprint& o) const {
    return count == o.count && sum == o.sum && min == o.min && max == o.max && mean == o.mean &&
           p50 == o.p50 && p99 == o.p99 && histogram == o.histogram && scan == o.scan;
  }
};

QueryFingerprint Fingerprint(Loom* loom, uint32_t index_id, TimestampNanos end) {
  QueryFingerprint fp;
  const TimeRange all{0, end};
  QueryTrace trace;
  auto count = loom->CountRecords(1, all, &trace);
  EXPECT_TRUE(count.ok());
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
  fp.count = count.value();
  fp.sum = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kSum).value();
  fp.min = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMin).value();
  fp.max = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMax).value();
  fp.mean = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kMean).value();
  fp.p50 = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kPercentile, 50).value();
  fp.p99 = loom->IndexedAggregate(1, index_id, all, AggregateMethod::kPercentile, 99).value();
  fp.histogram = loom->IndexedHistogram(1, index_id, all).value();
  EXPECT_TRUE(loom->IndexedScanValues(1, index_id, all, ValueRange{0, 1000},
                                      [&fp](double v, const RecordView& r) {
                                        fp.scan.emplace_back(r.addr, v);
                                        return true;
                                      })
                  .ok());
  return fp;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

LoomOptions SmallOptions(const std::string& dir, ManualClock* clock) {
  LoomOptions opts;
  opts.dir = dir;
  opts.chunk_size = 1024;
  opts.record_block_size = 4096;
  opts.clock = clock;
  return opts;
}

uint32_t DefineValueIndex(Loom* loom) {
  EXPECT_TRUE(loom->DefineSource(1).ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 32).value();
  auto idx = loom->DefineIndex(1, ValueIndex, spec);
  EXPECT_TRUE(idx.ok());
  return idx.value();
}

// --- Multi-source workload ---------------------------------------------------

constexpr uint32_t kSources = 4;  // source ids 1..kSources

double MultiSourceValue(uint32_t source, int i) {
  return static_cast<double>((i * 37 + source * 101) % 1000) + 0.25;
}

LoomOptions MultiSourceOptions(const std::string& dir, ManualClock* clock) {
  LoomOptions opts = SmallOptions(dir, clock);
  opts.ts_marker_period = 8;
  return opts;
}

// Defines sources 1..kSources, each with a 32-bin uniform value index.
// Returns index ids keyed by source.
std::map<uint32_t, uint32_t> DefineSources(Loom* loom) {
  std::map<uint32_t, uint32_t> ids;
  auto spec = HistogramSpec::Uniform(0, 1000, 32).value();
  for (uint32_t s = 1; s <= kSources; ++s) {
    EXPECT_TRUE(loom->DefineSource(s).ok());
    auto idx = loom->DefineIndex(s, ValueIndex, spec);
    EXPECT_TRUE(idx.ok());
    ids[s] = idx.value();
  }
  return ids;
}

// Interleaved workload: record i goes to source (i % kSources) + 1, 1ms apart.
void IngestMultiSource(Loom* loom, ManualClock* clock, int n) {
  for (int i = 0; i < n; ++i) {
    clock->AdvanceNanos(1'000'000);
    const uint32_t source = static_cast<uint32_t>(i % kSources) + 1;
    ASSERT_TRUE(loom->Push(source, ValuePayload(MultiSourceValue(source, i))).ok());
  }
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE(loom->Sync(s).ok());
  }
}

// 64-bit FNV-1a, folded incrementally over bytes and fixed-width values.
struct Fnv1a {
  uint64_t h = 14695981039346656037ull;
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
};

uint64_t HashFile(const std::string& path) {
  const std::vector<char> bytes = ReadFileBytes(path);
  EXPECT_FALSE(bytes.empty()) << path;
  Fnv1a f;
  f.Bytes(bytes.data(), bytes.size());
  return f.h;
}

// Hash of every query answer over every source: count, sum, min, max, p50,
// histogram, and the full (addr, value) scan in log order.
uint64_t MultiSourceQueryHash(Loom* loom, const std::map<uint32_t, uint32_t>& ids,
                              TimestampNanos end) {
  Fnv1a f;
  const TimeRange all{0, end};
  for (const auto& [source, index_id] : ids) {
    f.U64(loom->CountRecords(source, all).value());
    for (AggregateMethod m :
         {AggregateMethod::kSum, AggregateMethod::kMin, AggregateMethod::kMax}) {
      f.F64(loom->IndexedAggregate(source, index_id, all, m).value());
    }
    f.F64(loom->IndexedAggregate(source, index_id, all, AggregateMethod::kPercentile, 50)
              .value());
    const std::vector<uint64_t> hist = loom->IndexedHistogram(source, index_id, all).value();
    f.U64(hist.size());
    for (uint64_t b : hist) {
      f.U64(b);
    }
    EXPECT_TRUE(loom->IndexedScanValues(source, index_id, all, ValueRange{0, 1000},
                                        [&f](double v, const RecordView& r) {
                                          f.U64(r.addr);
                                          f.F64(v);
                                          return true;
                                        })
                    .ok());
  }
  return f.h;
}

// Golden bytes: a 4-source interleaved workload must reproduce these FNV-1a
// hashes of the three logs and of every query answer. When the engine could
// still seal on the ingest thread or on 2 or 4 parallel sealing workers,
// every one of those write paths produced exactly these bytes, so they pin
// the single sealing thread to the same output.
TEST(IngestPipelineTest, GoldenBytesMultiSource) {
  constexpr uint64_t kRecordLogHash = 0x79f1085ac35f9254;
  constexpr uint64_t kChunkIdxHash = 0xf6d102090983c8fd;
  constexpr uint64_t kTsIdxHash = 0xb19e0b3db7634a52;
  constexpr uint64_t kQueryHash = 0x49482f91b031c85a;
  constexpr int kRecords = 4000;
  TempDir dir;
  uint64_t query_hash = 0;
  {
    ManualClock clock{1};
    auto loom = Loom::Open(MultiSourceOptions(dir.FilePath("loom"), &clock));
    ASSERT_TRUE(loom.ok());
    const auto ids = DefineSources(loom->get());
    IngestMultiSource(loom->get(), &clock, kRecords);
    EXPECT_EQ((*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()}).value(),
              static_cast<uint64_t>(kRecords / kSources));
    query_hash = MultiSourceQueryHash(loom->get(), ids, clock.NowNanos());
  }
  // Engine closed: the logs are complete on disk.
  const std::string base = dir.FilePath("loom");
  const uint64_t rec = HashFile(base + "/record.log");
  const uint64_t chunk = HashFile(base + "/chunk.idx");
  const uint64_t ts = HashFile(base + "/ts.idx");
  EXPECT_EQ(rec, kRecordLogHash) << std::hex << rec;
  EXPECT_EQ(chunk, kChunkIdxHash) << std::hex << chunk;
  EXPECT_EQ(ts, kTsIdxHash) << std::hex << ts;
  EXPECT_EQ(query_hash, kQueryHash) << std::hex << query_hash;
}

// Sync() drains the sealing queue for every source: right after it returns,
// all sealed chunks are indexed, so a full-range query considers exactly the
// finalized set.
TEST(IngestPipelineTest, SyncDrainsMultiSourceSeals) {
  TempDir dir;
  ManualClock clock{1};
  auto loom = Loom::Open(MultiSourceOptions(dir.FilePath("loom"), &clock));
  ASSERT_TRUE(loom.ok());
  auto ids = DefineSources(loom->get());
  IngestMultiSource(loom->get(), &clock, 4000);
  const uint64_t finalized = (*loom)->stats().chunks_finalized;
  EXPECT_GT(finalized, 10u);
  QueryTrace trace;
  auto agg = (*loom)->IndexedAggregate(1, ids[1], TimeRange{0, clock.NowNanos()},
                                       AggregateMethod::kCount, 0.0, &trace);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value(), 1000.0);
  EXPECT_EQ(trace.chunks_considered, finalized);
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
}

// An append failure on the sealing thread (chunk frame larger than the
// index log's block) surfaces a sticky error naming the sealing thread;
// later pushes fail fast and nothing deadlocks.
TEST(IngestPipelineTest, StickySealErrorSurfaces) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = MultiSourceOptions(dir.FilePath("loom"), &clock);
  opts.chunk_index_block_size = 128;  // every summary frame overflows this
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineSources(loom->get());
  Status last = Status::Ok();
  for (int i = 0; i < 5000 && last.ok(); ++i) {
    clock.AdvanceNanos(1'000'000);
    const uint32_t source = static_cast<uint32_t>(i % kSources) + 1;
    last = (*loom)->Push(source, ValuePayload(MultiSourceValue(source, i)));
    if (last.ok()) {
      last = (*loom)->Sync(source);  // surfaces the async failure promptly
    }
  }
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kInvalidArgument) << last.ToString();
  EXPECT_NE(last.message().find("sealing thread: "), std::string::npos) << last.ToString();
  // Sticky: the same annotated error, immediately, with no new appends.
  Status again = (*loom)->Push(1, ValuePayload(1.0));
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.message(), last.message());
}

// Concurrent multi-source ingest + queries: snapshot isolation holds (counts
// are monotone, trace accounting balances) while the sealing thread applies
// chunk seals and every source's ts markers. Part of the TSan smoke.
TEST(IngestPipelineTest, ConcurrentMultiSourceIngestAndQueries) {
  TempDir dir;
  ManualClock clock{1};
  auto loom = Loom::Open(MultiSourceOptions(dir.FilePath("loom"), &clock));
  ASSERT_TRUE(loom.ok());
  auto ids = DefineSources(loom->get());
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int i = 0; i < 12000; ++i) {
      clock.AdvanceNanos(100'000);
      const uint32_t source = static_cast<uint32_t>(i % kSources) + 1;
      ASSERT_TRUE((*loom)->Push(source, ValuePayload(MultiSourceValue(source, i))).ok());
    }
    done.store(true);
  });
  std::vector<uint64_t> last(kSources + 1, 0);
  uint64_t rounds = 0;
  while (!done.load()) {
    for (uint32_t s = 1; s <= kSources; ++s) {
      const TimeRange all{0, clock.NowNanos()};
      auto count = (*loom)->CountRecords(s, all);
      ASSERT_TRUE(count.ok());
      EXPECT_GE(count.value(), last[s]);
      last[s] = count.value();
      QueryTrace trace;
      auto sum = (*loom)->IndexedAggregate(s, ids[s], all, AggregateMethod::kSum, 0.0, &trace);
      ASSERT_TRUE(sum.ok());
      EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
    }
    ++rounds;
  }
  ingest.join();
  EXPECT_GT(rounds, 0u);
  for (uint32_t s = 1; s <= kSources; ++s) {
    ASSERT_TRUE((*loom)->Sync(s).ok());
    auto count = (*loom)->CountRecords(s, TimeRange{0, clock.NowNanos()});
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.value(), 3000u);
  }
}

// Staged (batch-classified) summary construction vs the scalar per-record
// path: same chunk index bytes. A tiny stage forces many mid-chunk flushes.
TEST(IngestPipelineTest, StagedSummariesMatchScalar) {
  constexpr int kRecords = 1500;
  TempDir dir;
  QueryFingerprint fps[2];
  for (int mode = 0; mode < 2; ++mode) {
    ManualClock clock{1};
    LoomOptions opts = SmallOptions(dir.FilePath(mode == 0 ? "scalar" : "staged"), &clock);
    opts.summary_stage_records = mode == 0 ? 0 : 5;
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    const uint32_t idx = DefineValueIndex(loom->get());
    IngestWorkload(loom->get(), &clock, kRecords);
    fps[mode] = Fingerprint(loom->get(), idx, clock.NowNanos());
  }
  EXPECT_TRUE(fps[0] == fps[1]);
  const auto a = ReadFileBytes(dir.FilePath("scalar") + "/chunk.idx");
  const auto b = ReadFileBytes(dir.FilePath("staged") + "/chunk.idx");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// Sync() drains the sealing queue: right after it returns, every sealed
// chunk is indexed and queries prune instead of falling back to raw scans.
TEST(IngestPipelineTest, SyncDrainsFinalizeQueue) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  IngestWorkload(loom->get(), &clock, 1000);
  const uint64_t finalized = (*loom)->stats().chunks_finalized;
  EXPECT_GT(finalized, 10u);
  QueryTrace trace;
  auto agg = (*loom)->IndexedAggregate(1, idx, TimeRange{0, clock.NowNanos()},
                                       AggregateMethod::kCount, 0.0, &trace);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value(), 1000.0);
  // Drained pipeline == fully indexed prefix: every sealed chunk is a
  // candidate, none are lost to a lagging watermark.
  EXPECT_EQ(trace.chunks_considered, finalized);
  EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
}

// Destroying the engine with sealed-but-unapplied chunks must drain (not
// drop) them: the chunk index on disk covers every sealed chunk.
TEST(IngestPipelineTest, DestructorDrainsPendingFinalize) {
  TempDir dir;
  ManualClock clock{1};
  uint64_t finalized = 0;
  {
    LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
    auto loom = Loom::Open(opts);
    ASSERT_TRUE(loom.ok());
    DefineValueIndex(loom->get());
    for (int i = 0; i < 1200; ++i) {
      clock.AdvanceNanos(1'000'000);
      ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
    }
    finalized = (*loom)->stats().chunks_finalized;
    // No Sync: the destructor must stop the pipeline cleanly itself.
  }
  EXPECT_GT(finalized, 0u);
  const auto chunk_idx = ReadFileBytes(dir.FilePath("loom") + "/chunk.idx");
  EXPECT_FALSE(chunk_idx.empty());
  // Each summary frame is at least its 32-byte header + 4-byte length.
  EXPECT_GE(chunk_idx.size(), finalized * 36);
}

// Readers racing ingest (plus retention reclaiming old chunks)
// never observe data past the published watermarks: every query either
// succeeds with consistent trace accounting or hits nothing worse than the
// retained suffix.
TEST(IngestPipelineTest, ConcurrentQueriesSeeConsistentWatermarks) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.record_retain_bytes = 64 << 10;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int i = 0; i < 20000; ++i) {
      clock.AdvanceNanos(100'000);
      ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
    }
    done.store(true);
  });
  uint64_t queries = 0;
  while (!done.load()) {
    const TimeRange all{0, clock.NowNanos()};
    QueryTrace trace;
    auto count = (*loom)->CountRecords(1, all, &trace);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(trace.chunks_pruned + trace.chunks_scanned, trace.chunks_considered);
    QueryTrace agg_trace;
    auto sum =
        (*loom)->IndexedAggregate(1, idx, all, AggregateMethod::kSum, 0.0, &agg_trace);
    ASSERT_TRUE(sum.ok());
    EXPECT_EQ(agg_trace.chunks_pruned + agg_trace.chunks_scanned, agg_trace.chunks_considered);
    uint64_t raw_seen = 0;
    ASSERT_TRUE((*loom)
                    ->RawScan(1, all,
                              [&raw_seen](const RecordView&) {
                                ++raw_seen;
                                return raw_seen < 50;  // bounded walk per round
                              })
                    .ok());
    ++queries;
  }
  ingest.join();
  EXPECT_GT(queries, 0u);
  ASSERT_TRUE((*loom)->Sync(1).ok());
  auto final_count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
  ASSERT_TRUE(final_count.ok());
  EXPECT_LE(final_count.value(), 20000u);  // retention dropped the old prefix
  EXPECT_GT(final_count.value(), 0u);
}

// Without retention, the post-Sync count is exact under the same race.
TEST(IngestPipelineTest, ConcurrentIngestExactCountAfterDrain) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineValueIndex(loom->get());
  std::atomic<bool> done{false};
  std::thread ingest([&] {
    for (int i = 0; i < 8000; ++i) {
      clock.AdvanceNanos(100'000);
      ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
    }
    done.store(true);
  });
  uint64_t last = 0;
  while (!done.load()) {
    auto count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
    ASSERT_TRUE(count.ok());
    EXPECT_GE(count.value(), last);  // monotone under a snapshot-isolated race
    last = count.value();
  }
  ingest.join();
  ASSERT_TRUE((*loom)->Sync(1).ok());
  auto count = (*loom)->CountRecords(1, TimeRange{0, clock.NowNanos()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 8000u);
}

// Closing an index mid-chunk folds its staged values into the builder before
// the slot unregisters; later chunks and queries are unaffected.
TEST(IngestPipelineTest, CloseIndexMidChunkFlushesStage) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.summary_stage_records = 64;  // larger than a chunk's record count
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  auto spec = HistogramSpec::Uniform(0, 1000, 8).value();
  auto idx2 = (*loom)->DefineIndex(1, ValueIndex, spec);
  ASSERT_TRUE(idx2.ok());
  for (int i = 0; i < 5; ++i) {
    clock.AdvanceNanos(1'000'000);
    ASSERT_TRUE((*loom)->Push(1, ValuePayload(WorkloadValue(i))).ok());
  }
  ASSERT_TRUE((*loom)->CloseIndex(idx2.value()).ok());  // stage must flush here
  IngestWorkload(loom->get(), &clock, 500);
  auto count = (*loom)->IndexedAggregate(1, idx, TimeRange{0, clock.NowNanos()},
                                         AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 505.0);
}

// The pipeline composes with the chunk-index ablation: no chunk seals ever
// flow, the watermark advances on the ingest thread, and queries fall back
// to scans.
TEST(IngestPipelineTest, PipelinedWithChunkIndexDisabled) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  opts.enable_chunk_index = false;
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  const uint32_t idx = DefineValueIndex(loom->get());
  IngestWorkload(loom->get(), &clock, 600);
  auto count = (*loom)->IndexedAggregate(1, idx, TimeRange{0, clock.NowNanos()},
                                         AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 600.0);
}

// The ingest metrics family is registered and carries data after a run
// (sealed counter, queue depth gauges, io-backend mode).
TEST(IngestPipelineTest, IngestMetricsRegisteredAndPopulated) {
  TempDir dir;
  ManualClock clock{1};
  LoomOptions opts = SmallOptions(dir.FilePath("loom"), &clock);
  auto loom = Loom::Open(opts);
  ASSERT_TRUE(loom.ok());
  DefineValueIndex(loom->get());
  IngestWorkload(loom->get(), &clock, 800);
  const std::string text = (*loom)->metrics()->RenderPrometheus();
  EXPECT_NE(text.find("loom_ingest_chunks_sealed_total"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_flush_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_finalize_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_finalize_lag_chunks"), std::string::npos);
  EXPECT_NE(text.find("loom_ingest_io_backend_mode"), std::string::npos);
  const uint64_t sealed = (*loom)->stats().chunks_finalized;
  EXPECT_GT(sealed, 0u);
}

}  // namespace
}  // namespace loom
