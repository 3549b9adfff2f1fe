// Sharded LRU cache of decoded chunk summaries.
//
// Every indexed query operator (IndexedScan / IndexedAggregate / CountRecords
// / IndexedHistogram) walks the timestamp-index chunk-event chain and reads
// candidate `ChunkSummary` frames from the chunk-index log. Summaries are
// immutable once finalized and are addressed by their stable chunk-log
// offset, which makes them ideal cache citizens: repeated queries over
// overlapping time ranges (dashboards, drill-downs, the two-phase percentile)
// re-read the same summaries over and over, paying two `HybridLog::Read`
// calls plus a full decode (one heap allocation per summary) each time.
//
// This cache holds decoded summaries behind `shared_ptr<const ChunkSummary>`
// so queries can fold bins straight out of the cache with zero copies. It is
// N-way sharded by chunk-log address with per-shard LRU lists under a byte
// budget.
//
// Threading contract (§4.4: readers never block the ingest thread):
//   * The ingest thread NEVER touches the cache — summaries are inserted and
//     invalidated only from query threads. There is no lock the writer could
//     block on.
//   * Query threads use `try_lock` on the shard mutex for both lookups and
//     inserts. Contention (another reader holding the shard) is counted and
//     treated as a miss; the caller falls through to a direct log read, so a
//     slow reader can never serialize other readers behind it.
//   * Cached summaries are immutable and reference-counted: an entry may be
//     evicted while another query still folds its bins; the shared_ptr keeps
//     the object alive.
//
// Snapshot consistency: a summary frame is published atomically (the whole
// frame is appended before the engine's publish fence), so an entry cached at
// address A is byte-identical to what any snapshot with chunk_tail > A would
// read from the log. Callers still bound visibility with their snapshot tail
// (`frame_len` is stored for that check), so a query can never observe a
// summary past its own snapshot.
//
// Retention: when the record log drops chunks below the retained floor, their
// summaries describe data that no longer exists. Queries already filter
// candidates by `chunk_addr >= floor`, so stale entries are harmless for
// correctness; `InvalidateBelowRecordFloor` reclaims their memory (best
// effort, try-lock, called from query threads when the floor advances).
//
// Scan resistance: the engine decides per query whether decoded misses are
// inserted at all (see Loom::SummaryLoader). A query whose candidate frames
// span more chunk-index bytes than the cache budget would evict everything
// it inserted before reusing any of it, so it reads past the cache and the
// misses it decoded count as `bypassed`.

#ifndef SRC_INDEX_SUMMARY_CACHE_H_
#define SRC_INDEX_SUMMARY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/index/chunk_summary.h"

namespace loom {

struct SummaryCacheOptions {
  // Total decoded-summary byte budget across all shards. 0 disables caching
  // (Lookup always misses, Insert is a no-op).
  size_t capacity_bytes = 8 << 20;

  // Number of LRU shards; rounded up to a power of two, minimum 1. More
  // shards lower try-lock contention between concurrent query threads.
  size_t shards = 8;
};

struct SummaryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;            // entries dropped by the LRU byte budget
  uint64_t invalidated = 0;          // entries dropped by retention
  uint64_t bypassed = 0;             // decoded misses a scan-sized query kept out
  uint64_t contention_fallbacks = 0; // try_lock failures (lookup or insert)
  uint64_t bytes_used = 0;
  uint64_t entries = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class SummaryCache {
 public:
  explicit SummaryCache(const SummaryCacheOptions& options);

  SummaryCache(const SummaryCache&) = delete;
  SummaryCache& operator=(const SummaryCache&) = delete;

  // Returns the cached summary at chunk-log address `addr`, or nullptr on
  // miss / shard contention. On a hit `*frame_len_out` receives the encoded
  // frame length (without the 4-byte length prefix) so the caller can check
  // the entry against its snapshot tail.
  std::shared_ptr<const ChunkSummary> Lookup(uint64_t addr, uint32_t* frame_len_out);

  // Inserts a freshly decoded summary. Best effort: dropped silently on shard
  // contention or when the cache is disabled. `frame_len` is the encoded
  // length of the summary frame body (as read from the log's length prefix).
  void Insert(uint64_t addr, uint32_t frame_len, std::shared_ptr<const ChunkSummary> summary);

  // Counts `n` decoded summaries that were used without being inserted: the
  // engine keeps a query whose candidate span exceeds the cache budget from
  // flooding the cache, so it serves such plans past it.
  void NoteBypassed(uint64_t n) { bypassed_.fetch_add(n, std::memory_order_relaxed); }

  // Drops entries whose chunk data lies entirely below the record log's
  // retained floor. Best effort (try-lock per shard): a skipped shard is
  // retried the next time the floor advances past it.
  void InvalidateBelowRecordFloor(uint64_t record_floor);

  // Drops everything (blocking; test/teardown use).
  void Clear();

  SummaryCacheStats stats() const;

  size_t capacity_bytes() const { return capacity_per_shard_ * shards_.size(); }
  size_t shard_count() const { return shards_.size(); }

  // Approximate resident bytes for one cached summary: decoded object plus
  // bookkeeping (LRU node, hash-map node).
  static size_t EntryFootprint(const ChunkSummary& summary);

 private:
  struct Entry {
    uint64_t addr = 0;
    uint32_t frame_len = 0;
    size_t bytes = 0;
    std::shared_ptr<const ChunkSummary> summary;
  };

  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
    size_t bytes = 0;
    // Floor already applied by InvalidateBelowRecordFloor.
    uint64_t applied_floor = 0;
  };

  Shard& ShardFor(uint64_t addr) {
    // Chunk-log addresses of consecutive summaries differ by the frame size;
    // mix the bits so neighbouring frames spread across shards.
    uint64_t h = addr;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return *shards_[h & shard_mask_];
  }

  // Evicts from the LRU tail until the shard fits its budget. Caller holds
  // `shard.mu`.
  void EvictToFit(Shard& shard);

  size_t capacity_per_shard_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> bypassed_{0};
  mutable std::atomic<uint64_t> contention_fallbacks_{0};
  std::atomic<uint64_t> bytes_used_{0};
  std::atomic<uint64_t> entries_{0};
};

}  // namespace loom

#endif  // SRC_INDEX_SUMMARY_CACHE_H_
