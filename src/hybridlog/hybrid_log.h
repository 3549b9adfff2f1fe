// Hybrid log: an append-only log spanning main memory and persistent storage.
//
// This is the storage substrate from §4.1 of the paper. A single writer
// appends into a fixed-size in-memory block; when the block fills, it is
// handed to a background flusher thread over an SPSC queue and the writer
// switches to the next block (double buffering by default). Every byte has a
// stable 64-bit address equal to its physical offset in the backing file, so
// record lookup is O(1) and the whole log can be read back from disk after the
// in-memory blocks are recycled.
//
// Concurrency model (§4.4 / §5.5):
//   * Exactly one writer thread calls Append/Publish/Close.
//   * Any number of reader threads call Read concurrently with the writer.
//   * Readers never block the writer. In-memory reads are validated with a
//     per-slot version (seqlock style): if the block was recycled during the
//     copy, the reader falls back to the persisted file, which is guaranteed
//     to contain the block by the time its slot version changes.
//   * Readers may only read below the published watermark (`queryable_tail`),
//     which the writer advances with Publish() (a release store).
//
// Appends never span blocks: if a record does not fit in the active block's
// remainder, the remainder is filled with 0xFF padding and the append lands at
// the start of the next block. Callers that scan ranges sequentially skip
// padding via their own framing (see record/index codecs).

#ifndef SRC_HYBRIDLOG_HYBRID_LOG_H_
#define SRC_HYBRIDLOG_HYBRID_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file.h"
#include "src/common/io_backend.h"
#include "src/common/metrics.h"
#include "src/common/spsc_queue.h"
#include "src/common/status.h"

namespace loom {

// Address value meaning "no such address" (end of a back-pointer chain).
inline constexpr uint64_t kNullAddr = ~0ULL;

// When flushed bytes become *durable* (fdatasync), between the two historical
// endpoints (§4.5: nothing until Close vs sync_on_flush on every block):
//   kNone       durability only at Close(); data-at-risk = everything since
//               open (the paper's default — bounded by design, not by fsync).
//   kGroup      group commit: the flusher batches fdatasync across block
//               flushes and issues one when either `group_commit_bytes` of
//               unsynced data accumulate or `group_commit_interval_ms` passed
//               since the oldest unsynced byte (checked on flush and on idle
//               ticks, so a stalled ingest still drains to disk). Data-at-risk
//               is bounded by the configured window at a small fraction of
//               every-block cost.
//   kEveryBlock fdatasync after every flush submission; minimum risk, maximum
//               write amplification.
enum class SyncPolicy : uint8_t { kNone, kGroup, kEveryBlock };

// Parses "none" / "group" / "every_block" (exact, lower-case) — nullopt
// otherwise — and the lower-case name of a policy, for config and bench JSON.
std::optional<SyncPolicy> ParseSyncPolicy(std::string_view s);
const char* SyncPolicyName(SyncPolicy policy);

struct HybridLogOptions {
  // Size of each in-memory staging block. The paper uses 64 MiB; tests use
  // much smaller blocks to exercise flush/recycle paths cheaply.
  size_t block_size = 1 << 20;
  // Number of in-memory blocks (>= 2). Two gives the paper's double buffering.
  size_t num_blocks = 2;
  // fdatasync after each block flush. Off by default (§4.5: durability is
  // bounded by the in-memory blocks by design). Legacy alias: true is folded
  // into sync_policy = kEveryBlock by Create.
  bool sync_on_flush = false;
  // Durability policy for flushed bytes (see SyncPolicy above). The group
  // thresholds apply only under kGroup.
  SyncPolicy sync_policy = SyncPolicy::kNone;
  uint64_t group_commit_bytes = 1 << 20;
  uint64_t group_commit_interval_ms = 50;
  // Register the in-memory block slots with the I/O backend as fixed buffers
  // (io_uring WRITE_FIXED). Purely a submission-path optimization: when the
  // runtime probe fails (no io_uring, locked-memory limits, seccomp) the
  // flusher keeps the plain vectored path. The engine enables this for the
  // record log only; index logs flush too rarely to matter.
  bool register_buffers = false;
  // Retention: keep at most this many bytes of log addressable; older data
  // is dropped (the file range is hole-punched where the filesystem supports
  // it, so disk space is reclaimed). 0 = retain everything. Retention is
  // applied at block granularity after flushes.
  uint64_t retain_bytes = 0;
  // How flush submissions reach the kernel (see io_backend.h). kAuto resolves
  // the LOOM_IO env override, then probes for io_uring, falling back to
  // synchronous pwritev. Resolved once in Create.
  IoBackend io_backend = IoBackend::kAuto;
  // When set, the log registers its metrics (block flush latency, writer
  // stall time, read-path counters) under `metrics_prefix`, e.g.
  // "loom_hybridlog_record". The registry must outlive the log.
  MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix;
  // Optional externally-registered counters for group commits (sync_policy =
  // kGroup): submissions and the bytes each one made durable. The engine
  // registers these under its loom_ingest_* family and points the record log
  // at them.
  Counter* group_commits_metric = nullptr;
  Counter* group_commit_bytes_metric = nullptr;
};

struct HybridLogStats {
  uint64_t bytes_appended = 0;
  uint64_t appends = 0;
  uint64_t pad_bytes = 0;
  uint64_t blocks_flushed = 0;
  // Nanoseconds the writer spent waiting for the flusher to free a block.
  uint64_t writer_stall_nanos = 0;
  // Reads that lost the seqlock race and retried from disk.
  uint64_t snapshot_fallbacks = 0;
  uint64_t disk_reads = 0;
  uint64_t memory_reads = 0;
};

class HybridLog {
 public:
  // The byte value used to pad block remainders. Framing layers treat a
  // leading 0xFFFFFFFF length/id as "skip to the next block boundary".
  static constexpr uint8_t kPadByte = 0xFF;

  static Result<std::unique_ptr<HybridLog>> Create(const std::string& file_path,
                                                   const HybridLogOptions& options);

  ~HybridLog();

  HybridLog(const HybridLog&) = delete;
  HybridLog& operator=(const HybridLog&) = delete;

  // --- Writer-thread API -----------------------------------------------

  // Appends `data` (size must be in (0, block_size]) and returns its address.
  // Cheap in the common case: a bounds check and a memcpy into the block.
  Result<uint64_t> Append(std::span<const uint8_t> data);

  // Reserves `len` bytes and returns a pointer the caller fills in before the
  // next Publish(). Avoids a staging copy for encoders that write in place.
  Result<std::pair<uint64_t, uint8_t*>> AppendReserve(size_t len);

  // Makes everything appended so far visible to readers.
  void Publish();

  // Blocks until every full block handed to the flusher so far is flushed,
  // then applies retention to the flushed tail, so retained_floor() and
  // flushed_tail() reflect every completed block. The active block stays in
  // memory (Close() persists it). Like the writer's own recycle wait, this
  // waits indefinitely if the flusher cannot write.
  void Drain();

  // Total bytes appended (including padding). Exact from the writer thread;
  // other threads (stats scrapes) get a relaxed snapshot.
  uint64_t tail() const { return tail_.load(std::memory_order_relaxed); }

  // Flushes the active block's published prefix to disk and stops the
  // flusher. Called automatically by the destructor. After Close() all
  // published data is readable from disk; Append must not be called again.
  Status Close();

  // --- Any-thread API ----------------------------------------------------

  // Highest address readers may read (exclusive).
  uint64_t queryable_tail() const { return queryable_tail_.load(std::memory_order_acquire); }

  // Reads out.size() bytes at `addr`, from memory snapshots where possible
  // and from the backing file otherwise. The range may span blocks. Fails
  // with OutOfRange if it extends past queryable_tail().
  Status Read(uint64_t addr, std::span<uint8_t> out) const;

  // Bytes durably handed to the backing file.
  uint64_t flushed_tail() const { return flushed_bytes_.load(std::memory_order_acquire); }

  // Bytes known durable (covered by an fdatasync). Advances per flush under
  // kEveryBlock, per group commit under kGroup, and only at Close under
  // kNone. flushed_tail() - durable_tail() is the current data-at-risk.
  uint64_t durable_tail() const { return synced_bytes_.load(std::memory_order_acquire); }

  // Group commits issued so far (sync_policy = kGroup only).
  uint64_t group_commits() const { return group_commits_.load(std::memory_order_relaxed); }

  // Lowest readable address. 0 unless retention dropped older data; reads
  // below this fail with OutOfRange.
  uint64_t retained_floor() const { return retained_floor_.load(std::memory_order_acquire); }

  // --- Tiered retention (any thread) -------------------------------------
  // Retention never drops bytes at or above `barrier`: the applied floor is
  // min(computed floor, barrier rounded down to a block). kNullAddr (the
  // default) leaves retention unrestricted. The tiering service starts the
  // barrier at 0 (drop nothing) and advances it only past chunks that are
  // durably archived, so retention turns from deletion into demotion.
  void SetRetentionBarrier(uint64_t barrier) {
    retention_barrier_.store(barrier, std::memory_order_release);
  }
  uint64_t retention_barrier() const {
    return retention_barrier_.load(std::memory_order_acquire);
  }
  // The floor retention would pick from the flushed tail and retain_bytes
  // alone (block aligned), ignoring the barrier — i.e. how far the tiering
  // service should demote.
  uint64_t DesiredRetentionFloor() const;
  // Applies retention (clamped by the barrier) immediately instead of at the
  // next block flush. The tiering service calls this right after advancing
  // the barrier so demoted chunks are reclaimed without waiting for ingest.
  void ApplyRetention();

  HybridLogStats stats() const;

  // Full blocks queued for (or being) flushed. Approximate; safe from any
  // thread — the engine's flush-queue depth gauge reads this.
  size_t FlushQueueDepthApprox() const { return flush_queue_.SizeApprox(); }

  // Total nanoseconds the writer stalled waiting for the flusher, readable
  // from any thread (the backpressure gauge hook samples it).
  uint64_t writer_stall_nanos() const {
    return writer_stall_nanos_.load(std::memory_order_relaxed);
  }

  // Resolved flush submission backend: "sync", "io_uring", or
  // "io_uring_fixed" when the block slots are registered for WRITE_FIXED.
  const char* io_backend_name() const { return block_writer_->name(); }

  size_t block_size() const { return options_.block_size; }
  // Fraction of the published log currently resident in memory.
  double MemoryResidentFraction() const;

 private:
  HybridLog(File file, const HybridLogOptions& options);

  void FlusherMain();
  // Shared floor-advance body of the flusher retention step and
  // ApplyRetention: clamps to the barrier, then (under retention_mu_)
  // monotonically advances the floor and punches the dropped range.
  void AdvanceRetention(uint64_t tail_now);
  // Ensures the slot for `block_no` is free to be (re)used by the writer.
  void RecycleSlot(uint64_t block_no);
  // Hands the current active block to the flusher and activates `block_no`.
  void RotateTo(uint64_t block_no);
  Status ReadWithinBlock(uint64_t addr, std::span<uint8_t> out) const;

  const HybridLogOptions options_;  // io_backend resolved by Create
  File file_;
  // Flush submission backend (sync pwritev or io_uring). Flusher thread only,
  // except for the tail flush in Close() after the flusher has joined.
  std::unique_ptr<BlockWriter> block_writer_;

  // Block slot `i` holds block number slot_version_[i]; readers use the
  // version to detect recycles (seqlock validation).
  std::vector<std::unique_ptr<uint8_t[]>> slots_;
  std::unique_ptr<std::atomic<uint64_t>[]> slot_version_;

  // Writer-local state. tail_ is written by the single appender only, but
  // stats()/tail() may sample it from any thread (the engine's metrics hooks
  // and ingest-pipeline tests do), so it is a relaxed atomic rather than a
  // plain counter.
  std::atomic<uint64_t> tail_{0};  // next append address
  uint64_t active_block_ = 0;      // block number being written
  bool closed_ = false;

  std::atomic<uint64_t> queryable_tail_{0};
  std::atomic<uint64_t> flushed_bytes_{0};
  // Durability watermark + group-commit count (see durable_tail()).
  std::atomic<uint64_t> synced_bytes_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> flushed_block_count_{0};
  std::atomic<uint64_t> retained_floor_{0};
  // Tiered retention: the floor never passes the barrier (kNullAddr = no
  // limit). retention_mu_ serializes floor advancement between the flusher
  // and ApplyRetention callers (rarely contended).
  std::atomic<uint64_t> retention_barrier_{kNullAddr};
  std::mutex retention_mu_;

  // Flush pipeline: block numbers travel writer -> flusher; kStopSentinel
  // terminates the flusher.
  static constexpr uint64_t kStopSentinel = ~0ULL;
  SpscQueue<uint64_t> flush_queue_;
  std::thread flusher_;

  // Stats. Single-writer counters, but stats() may sample them from any
  // thread, so all are relaxed atomics. The stall total likewise feeds the
  // metrics collection hook from scrape threads.
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> pad_bytes_{0};
  std::atomic<uint64_t> writer_stall_nanos_{0};
  mutable std::atomic<uint64_t> snapshot_fallbacks_{0};
  mutable std::atomic<uint64_t> disk_reads_{0};
  mutable std::atomic<uint64_t> memory_reads_{0};

  // Registry-backed metrics (all null when options.metrics is unset). These
  // are per-block or per-fallback events, so the clock reads and relaxed
  // adds never sit on the per-record append path.
  Histogram* flush_seconds_ = nullptr;         // per-block PWriteAll (+sync)
  Histogram* writer_stall_seconds_ = nullptr;  // per stall episode in RecycleSlot
  Counter* blocks_flushed_metric_ = nullptr;
  Counter* disk_reads_metric_ = nullptr;
  Counter* memory_reads_metric_ = nullptr;
  Counter* snapshot_fallbacks_metric_ = nullptr;
};

}  // namespace loom

#endif  // SRC_HYBRIDLOG_HYBRID_LOG_H_
