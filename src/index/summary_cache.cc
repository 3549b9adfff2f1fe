#include "src/index/summary_cache.h"

namespace loom {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

SummaryCache::SummaryCache(const SummaryCacheOptions& options) {
  const size_t num_shards = RoundUpPow2(options.shards == 0 ? 1 : options.shards);
  shard_mask_ = num_shards - 1;
  capacity_per_shard_ = options.capacity_bytes / num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t SummaryCache::EntryFootprint(const ChunkSummary& summary) {
  // Decoded object + its entry vector + LRU list node + hash map node. The
  // bookkeeping constant is an estimate; the budget is a soft envelope, not
  // an allocator accounting.
  return sizeof(ChunkSummary) + summary.entries.size() * sizeof(ChunkSummary::Entry) +
         sizeof(Entry) + 64;
}

std::shared_ptr<const ChunkSummary> SummaryCache::Lookup(uint64_t addr, uint32_t* frame_len_out) {
  if (capacity_per_shard_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto it = shard.map.find(addr);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (frame_len_out != nullptr) {
    *frame_len_out = it->second->frame_len;
  }
  return it->second->summary;
}

void SummaryCache::Insert(uint64_t addr, uint32_t frame_len,
                          std::shared_ptr<const ChunkSummary> summary) {
  if (capacity_per_shard_ == 0 || summary == nullptr) {
    return;
  }
  const size_t bytes = EntryFootprint(*summary);
  if (bytes > capacity_per_shard_) {
    return;  // would immediately evict itself (plus everything else)
  }
  Shard& shard = ShardFor(addr);
  std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = shard.map.find(addr);
  if (it != shard.map.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;  // racing query inserted it first; keep the resident copy
  }
  shard.lru.push_front(Entry{addr, frame_len, bytes, std::move(summary)});
  shard.map.emplace(addr, shard.lru.begin());
  shard.bytes += bytes;
  bytes_used_.fetch_add(bytes, std::memory_order_relaxed);
  entries_.fetch_add(1, std::memory_order_relaxed);
  EvictToFit(shard);
}

void SummaryCache::EvictToFit(Shard& shard) {
  while (shard.bytes > capacity_per_shard_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    bytes_used_.fetch_sub(victim.bytes, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    shard.map.erase(victim.addr);
    shard.lru.pop_back();
  }
}

void SummaryCache::InvalidateBelowRecordFloor(uint64_t record_floor) {
  if (capacity_per_shard_ == 0) {
    return;
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::unique_lock<std::mutex> lock(shard.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      // Best effort: this shard keeps its stale entries until the next floor
      // advance (queries filter by chunk_addr themselves, so this is purely
      // a memory-reclamation miss).
      contention_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (shard.applied_floor >= record_floor) {
      continue;
    }
    shard.applied_floor = record_floor;
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      const ChunkSummary& s = *it->summary;
      if (s.chunk_addr + s.chunk_len <= record_floor) {
        shard.bytes -= it->bytes;
        bytes_used_.fetch_sub(it->bytes, std::memory_order_relaxed);
        entries_.fetch_sub(1, std::memory_order_relaxed);
        invalidated_.fetch_add(1, std::memory_order_relaxed);
        shard.map.erase(it->addr);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void SummaryCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes_used_.fetch_sub(shard.bytes, std::memory_order_relaxed);
    entries_.fetch_sub(shard.lru.size(), std::memory_order_relaxed);
    shard.lru.clear();
    shard.map.clear();
    shard.bytes = 0;
  }
}

SummaryCacheStats SummaryCache::stats() const {
  SummaryCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  s.contention_fallbacks = contention_fallbacks_.load(std::memory_order_relaxed);
  s.bytes_used = bytes_used_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace loom
