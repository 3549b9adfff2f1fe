#include "src/hybridlog/hybrid_log.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

#include "src/common/macros.h"

namespace loom {

namespace {

// The seqlock snapshot deliberately copies bytes the ingest thread may be
// overwriting; a failed version check discards the copy and falls back to
// disk. TSan cannot see that validation, so the speculative read must stay
// uninstrumented (the surrounding atomics remain instrumented). Under TSan
// this cannot be a memcpy call — the interceptor checks it regardless of the
// caller's no_sanitize — so a volatile byte loop keeps the compiler from
// re-materializing one. Non-sanitized builds keep the fast memcpy.
LOOM_NO_SANITIZE_THREAD
void SeqlockSpeculativeCopy(uint8_t* dst, const uint8_t* src, size_t n) {
#if LOOM_TSAN_ENABLED
  const volatile uint8_t* vsrc = src;
  for (size_t i = 0; i < n; ++i) {
    dst[i] = vsrc[i];
  }
#else
  std::memcpy(dst, src, n);
#endif
}

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

std::optional<SyncPolicy> ParseSyncPolicy(std::string_view s) {
  if (s == "none") {
    return SyncPolicy::kNone;
  }
  if (s == "group") {
    return SyncPolicy::kGroup;
  }
  if (s == "every_block") {
    return SyncPolicy::kEveryBlock;
  }
  return std::nullopt;
}

const char* SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kGroup:
      return "group";
    case SyncPolicy::kEveryBlock:
      return "every_block";
  }
  return "unknown";
}

Result<std::unique_ptr<HybridLog>> HybridLog::Create(const std::string& file_path,
                                                     const HybridLogOptions& options) {
  if (options.block_size == 0 || options.num_blocks < 2) {
    return Status::InvalidArgument("hybrid log needs block_size > 0 and num_blocks >= 2");
  }
  HybridLogOptions normalized = options;
  if (normalized.sync_on_flush) {
    normalized.sync_policy = SyncPolicy::kEveryBlock;  // legacy alias
  }
  if (normalized.group_commit_bytes == 0) {
    normalized.group_commit_bytes = normalized.block_size;
  }
  normalized.io_backend = ResolveIoBackend(normalized.io_backend);
  if (normalized.retain_bytes > 0) {
    // The in-memory blocks must always stay inside the retained window.
    const uint64_t floor =
        static_cast<uint64_t>(normalized.num_blocks + 1) * normalized.block_size;
    normalized.retain_bytes = std::max<uint64_t>(normalized.retain_bytes, floor);
  }
  auto file = File::CreateTruncate(file_path);
  if (!file.ok()) {
    return file.status();
  }
  return std::unique_ptr<HybridLog>(new HybridLog(std::move(file.value()), normalized));
}

HybridLog::HybridLog(File file, const HybridLogOptions& options)
    : options_(options),
      file_(std::move(file)),
      block_writer_(MakeBlockWriter(options.io_backend)),
      flush_queue_(64) {
  slots_.reserve(options_.num_blocks);
  slot_version_ = std::make_unique<std::atomic<uint64_t>[]>(options_.num_blocks);
  for (size_t i = 0; i < options_.num_blocks; ++i) {
    slots_.push_back(std::make_unique<uint8_t[]>(options_.block_size));
    // Slot i initially holds block number i (the first lap needs no recycle).
    slot_version_[i].store(i, std::memory_order_relaxed);
  }
  if (options_.metrics != nullptr && !options_.metrics_prefix.empty()) {
    MetricsRegistry* reg = options_.metrics;
    const std::string& p = options_.metrics_prefix;
    flush_seconds_ = reg->AddHistogram(p + "_flush_seconds");
    writer_stall_seconds_ = reg->AddHistogram(p + "_writer_stall_seconds");
    blocks_flushed_metric_ = reg->AddCounter(p + "_blocks_flushed_total");
    disk_reads_metric_ = reg->AddCounter(p + "_disk_reads_total");
    memory_reads_metric_ = reg->AddCounter(p + "_memory_reads_total");
    snapshot_fallbacks_metric_ = reg->AddCounter(p + "_snapshot_fallbacks_total");
  }
  if (options_.register_buffers) {
    // Offer the slot ring to the backend as fixed buffers (WRITE_FIXED).
    // Runs before the flusher starts, so the writer's fixed/plain decision is
    // settled before any submission. Failure just keeps the vectored path.
    std::vector<struct iovec> bufs;
    bufs.reserve(slots_.size());
    for (const auto& slot : slots_) {
      bufs.push_back({slot.get(), options_.block_size});
    }
    (void)block_writer_->RegisterBuffers(bufs.data(), static_cast<unsigned>(bufs.size()));
  }
  flusher_ = std::thread([this] { FlusherMain(); });
}

HybridLog::~HybridLog() {
  Status st = Close();
  (void)st;  // Destructor cannot report; Close() is available for callers.
}

Result<uint64_t> HybridLog::Append(std::span<const uint8_t> data) {
  auto reserved = AppendReserve(data.size());
  if (!reserved.ok()) {
    return reserved.status();
  }
  std::memcpy(reserved.value().second, data.data(), data.size());
  return reserved.value().first;
}

Result<std::pair<uint64_t, uint8_t*>> HybridLog::AppendReserve(size_t len) {
  if (closed_) {
    return Status::FailedPrecondition("append on closed hybrid log");
  }
  if (len == 0 || len > options_.block_size) {
    return Status::InvalidArgument("append size must be in (0, block_size]");
  }
  const size_t bs = options_.block_size;
  uint64_t tail = tail_.load(std::memory_order_relaxed);
  size_t offset_in_block = static_cast<size_t>(tail % bs);
  if (offset_in_block + len > bs) {
    // Pad the remainder so the append is contiguous in the next block.
    size_t pad = bs - offset_in_block;
    std::memset(slots_[active_block_ % options_.num_blocks].get() + offset_in_block, kPadByte,
                pad);
    pad_bytes_.fetch_add(pad, std::memory_order_relaxed);
    tail += pad;
    tail_.store(tail, std::memory_order_relaxed);
    RotateTo(active_block_ + 1);
    offset_in_block = 0;
  } else if (offset_in_block == 0 && tail != 0) {
    // Landed exactly on a block boundary: previous block is full.
    RotateTo(tail / bs);
  }
  uint8_t* dst = slots_[active_block_ % options_.num_blocks].get() + offset_in_block;
  const uint64_t addr = tail;
  tail_.store(tail + len, std::memory_order_relaxed);
  appends_.fetch_add(1, std::memory_order_relaxed);
  return std::make_pair(addr, dst);
}

void HybridLog::Publish() {
  queryable_tail_.store(tail_.load(std::memory_order_relaxed), std::memory_order_release);
}

void HybridLog::Drain() {
  // Blocks [0, active_block_) are queued or flushed; the flusher counts a
  // block only once its write succeeded.
  while (flushed_block_count_.load(std::memory_order_acquire) < active_block_) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ApplyRetention();
}

void HybridLog::RotateTo(uint64_t block_no) {
  assert(block_no == active_block_ + 1);
  // Hand the filled block to the flusher. The queue is far larger than the
  // number of slots, so this push cannot fail while invariants hold.
  bool pushed = flush_queue_.TryPush(active_block_);
  assert(pushed);
  (void)pushed;
  RecycleSlot(block_no);
  active_block_ = block_no;
}

void HybridLog::RecycleSlot(uint64_t block_no) {
  // The slot for block_no currently holds block_no - num_blocks (or, on the
  // first lap, already holds block_no). Wait until that block is flushed.
  if (block_no < options_.num_blocks) {
    return;
  }
  const uint64_t must_be_flushed = block_no - options_.num_blocks + 1;
  if (flushed_block_count_.load(std::memory_order_acquire) < must_be_flushed) {
    const uint64_t t0 = SteadyNowNanos();
    while (flushed_block_count_.load(std::memory_order_acquire) < must_be_flushed) {
      std::this_thread::yield();
    }
    const uint64_t stalled = SteadyNowNanos() - t0;
    writer_stall_nanos_.fetch_add(stalled, std::memory_order_relaxed);
    if (writer_stall_seconds_ != nullptr) {
      writer_stall_seconds_->ObserveNanos(stalled);
    }
  }
  // Readers racing with this store fall back to disk, which already holds the
  // previous occupant (the flusher completed its pwrite before counting it).
  slot_version_[block_no % options_.num_blocks].store(block_no, std::memory_order_release);
}

void HybridLog::FlusherMain() {
  const size_t bs = options_.block_size;
  // Group-commit state (sync_policy = kGroup): bytes flushed but not yet
  // covered by an fdatasync, and when the oldest of them was flushed.
  uint64_t unsynced_bytes = 0;
  uint64_t first_unsynced_nanos = 0;
  const uint64_t group_interval_nanos = options_.group_commit_interval_ms * 1'000'000ULL;
  const auto group_commit = [&] {
    if (file_.Sync().ok()) {
      synced_bytes_.store(flushed_bytes_.load(std::memory_order_relaxed),
                          std::memory_order_release);
      group_commits_.fetch_add(1, std::memory_order_relaxed);
      if (options_.group_commits_metric != nullptr) {
        options_.group_commits_metric->Increment();
      }
      if (options_.group_commit_bytes_metric != nullptr) {
        options_.group_commit_bytes_metric->Increment(unsynced_bytes);
      }
      unsynced_bytes = 0;
      first_unsynced_nanos = 0;
    }
  };
  for (;;) {
    std::optional<uint64_t> item = flush_queue_.TryPop();
    if (!item.has_value()) {
      // Idle tick: an interval-expired group commit drains here so a paused
      // ingest stream still reaches disk within the configured window.
      if (options_.sync_policy == SyncPolicy::kGroup && unsynced_bytes > 0 &&
          SteadyNowNanos() - first_unsynced_nanos >= group_interval_nanos) {
        group_commit();
      }
      // Idle: sleep briefly rather than spin so the flusher does not compete
      // with the ingest thread for CPU (keeping probe effect low).
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    if (*item == kStopSentinel) {
      return;
    }
    // The slot stays stable during the write: the writer cannot recycle it
    // until flushed_block_count_ (advanced only below) passes it.
    const uint64_t block_no = *item;
    const struct iovec iov = {slots_[block_no % options_.num_blocks].get(), bs};
    const uint64_t flush_t0 = flush_seconds_ != nullptr ? SteadyNowNanos() : 0;
    Status st = block_writer_->WriteV(file_, block_no * bs, &iov, 1);
    // I/O errors here would lose historical data but must not corrupt the
    // reader protocol: only count the block as flushed on success, which
    // stalls the writer rather than serving bad reads.
    if (st.ok()) {
      // Publish the flushed tail first (the writer's recycle wait and the
      // durability watermark both key off it), then apply the sync policy so
      // the flush-latency histogram keeps covering write + sync.
      flushed_bytes_.store((block_no + 1) * bs, std::memory_order_release);
      flushed_block_count_.store(block_no + 1, std::memory_order_release);
      if (options_.sync_policy == SyncPolicy::kEveryBlock) {
        if (file_.Sync().ok()) {
          synced_bytes_.store((block_no + 1) * bs, std::memory_order_release);
        }
      } else if (options_.sync_policy == SyncPolicy::kGroup) {
        if (unsynced_bytes == 0) {
          first_unsynced_nanos = SteadyNowNanos();
        }
        unsynced_bytes += bs;
        if (unsynced_bytes >= options_.group_commit_bytes ||
            SteadyNowNanos() - first_unsynced_nanos >= group_interval_nanos) {
          group_commit();
        }
      }
      if (flush_seconds_ != nullptr) {
        flush_seconds_->ObserveNanos(SteadyNowNanos() - flush_t0);
      }
      if (blocks_flushed_metric_ != nullptr) {
        blocks_flushed_metric_->Increment();
      }
      // Retention: drop whole blocks that fall out of the retained window
      // and return their disk space. Readers observe the floor first (and
      // re-validate after copying), so a concurrent punch is never served as
      // data.
      if (options_.retain_bytes > 0) {
        AdvanceRetention((block_no + 1) * bs);
      }
    }
  }
}

uint64_t HybridLog::DesiredRetentionFloor() const {
  if (options_.retain_bytes == 0) {
    return 0;
  }
  const uint64_t flushed = flushed_bytes_.load(std::memory_order_acquire);
  if (flushed <= options_.retain_bytes) {
    return 0;
  }
  const uint64_t bs = options_.block_size;
  return (flushed - options_.retain_bytes) / bs * bs;
}

void HybridLog::ApplyRetention() {
  if (options_.retain_bytes == 0) {
    return;
  }
  AdvanceRetention(flushed_bytes_.load(std::memory_order_acquire));
}

void HybridLog::AdvanceRetention(uint64_t tail_now) {
  if (tail_now <= options_.retain_bytes) {
    return;
  }
  const uint64_t bs = options_.block_size;
  uint64_t new_floor = (tail_now - options_.retain_bytes) / bs * bs;
  const uint64_t barrier = retention_barrier_.load(std::memory_order_acquire);
  if (barrier != kNullAddr) {
    new_floor = std::min(new_floor, barrier / bs * bs);
  }
  std::lock_guard<std::mutex> lock(retention_mu_);
  const uint64_t old_floor = retained_floor_.load(std::memory_order_relaxed);
  if (new_floor > old_floor) {
    retained_floor_.store(new_floor, std::memory_order_release);
    (void)file_.PunchHole(old_floor, new_floor - old_floor);
  }
}

Status HybridLog::Close() {
  if (closed_) {
    return Status::Ok();
  }
  closed_ = true;
  Publish();
  // Drain pending full blocks, then stop the flusher.
  while (!flush_queue_.TryPush(kStopSentinel)) {
    std::this_thread::yield();
  }
  if (flusher_.joinable()) {
    flusher_.join();
  }
  // Persist the active block's prefix so the whole published log is on disk.
  const size_t bs = options_.block_size;
  const uint64_t flushed = flushed_bytes_.load(std::memory_order_acquire);
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (tail > flushed) {
    const uint64_t first_block = flushed / bs;
    for (uint64_t b = first_block; b * bs < tail; ++b) {
      const uint8_t* src = slots_[b % options_.num_blocks].get();
      const size_t len = static_cast<size_t>(std::min<uint64_t>(bs, tail - b * bs));
      LOOM_RETURN_IF_ERROR(file_.PWriteAll(b * bs, std::span<const uint8_t>(src, len)));
    }
    flushed_bytes_.store(tail, std::memory_order_release);
  }
  // Durability audit: without sync_on_flush nothing above fdatasync'd, so the
  // tail flush (and any block the flusher wrote since the last sync) could
  // still sit in the page cache. One final fdatasync makes Close() mean "the
  // whole published log is on disk".
  if (tail > 0) {
    LOOM_RETURN_IF_ERROR(file_.Sync());
    synced_bytes_.store(tail, std::memory_order_release);
  }
  return Status::Ok();
}

Status HybridLog::Read(uint64_t addr, std::span<uint8_t> out) const {
  const uint64_t limit = queryable_tail();
  if (addr + out.size() > limit) {
    return Status::OutOfRange("read past queryable tail");
  }
  if (addr < retained_floor_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("read below retention floor");
  }
  const size_t bs = options_.block_size;
  size_t done = 0;
  while (done < out.size()) {
    const uint64_t cur = addr + done;
    const size_t in_block = static_cast<size_t>(cur % bs);
    const size_t len = std::min(out.size() - done, bs - in_block);
    LOOM_RETURN_IF_ERROR(ReadWithinBlock(cur, out.subspan(done, len)));
    done += len;
  }
  // Re-validate: the flusher may have punched the range mid-read, in which
  // case the copied bytes may be hole zeros rather than data.
  if (addr < retained_floor_.load(std::memory_order_acquire)) {
    return Status::OutOfRange("read below retention floor");
  }
  return Status::Ok();
}

Status HybridLog::ReadWithinBlock(uint64_t addr, std::span<uint8_t> out) const {
  const size_t bs = options_.block_size;
  const uint64_t block_no = addr / bs;
  const size_t slot = static_cast<size_t>(block_no % options_.num_blocks);

  if (addr + out.size() <= flushed_bytes_.load(std::memory_order_acquire)) {
    disk_reads_.fetch_add(1, std::memory_order_relaxed);
    if (disk_reads_metric_ != nullptr) {
      disk_reads_metric_->Increment();
    }
    return file_.PReadAll(addr, out);
  }

  // Seqlock-style snapshot: copy, then validate the slot still holds our
  // block. A failed validation means the block was recycled, which implies it
  // is already persisted, so the disk fallback is always safe.
  const uint64_t v1 = slot_version_[slot].load(std::memory_order_acquire);
  if (v1 == block_no) {
    const uint8_t* src = slots_[slot].get() + (addr % bs);
    SeqlockSpeculativeCopy(out.data(), src, out.size());
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = slot_version_[slot].load(std::memory_order_relaxed);
    if (v2 == block_no) {
      memory_reads_.fetch_add(1, std::memory_order_relaxed);
      if (memory_reads_metric_ != nullptr) {
        memory_reads_metric_->Increment();
      }
      return Status::Ok();
    }
    snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (snapshot_fallbacks_metric_ != nullptr) {
      snapshot_fallbacks_metric_->Increment();
    }
  }
  disk_reads_.fetch_add(1, std::memory_order_relaxed);
  if (disk_reads_metric_ != nullptr) {
    disk_reads_metric_->Increment();
  }
  return file_.PReadAll(addr, out);
}

HybridLogStats HybridLog::stats() const {
  HybridLogStats s;
  s.bytes_appended = tail_.load(std::memory_order_relaxed);
  s.appends = appends_.load(std::memory_order_relaxed);
  s.pad_bytes = pad_bytes_.load(std::memory_order_relaxed);
  s.blocks_flushed = flushed_block_count_.load(std::memory_order_acquire);
  s.writer_stall_nanos = writer_stall_nanos_.load(std::memory_order_relaxed);
  s.snapshot_fallbacks = snapshot_fallbacks_.load(std::memory_order_relaxed);
  s.disk_reads = disk_reads_.load(std::memory_order_relaxed);
  s.memory_reads = memory_reads_.load(std::memory_order_relaxed);
  return s;
}

double HybridLog::MemoryResidentFraction() const {
  const uint64_t published = queryable_tail();
  if (published == 0) {
    return 1.0;
  }
  const uint64_t bs = options_.block_size;
  const uint64_t resident_floor =
      published > bs * options_.num_blocks ? published - bs * options_.num_blocks : 0;
  return static_cast<double>(published - resident_floor) / static_cast<double>(published);
}

}  // namespace loom
