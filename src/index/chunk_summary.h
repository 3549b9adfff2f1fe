// Chunk summaries: sparse per-chunk statistics (§4.2, Figure 8).
//
// While a chunk of the record log accumulates records, Loom incrementally
// updates a summary: for every (source, index, histogram bin) with at least
// one record in the chunk, the summary stores count/sum/min/max and the
// timestamp range. When the chunk fills, the finalized summary is appended to
// the chunk index log and only then becomes visible to queries.
//
// A summary also carries one "presence" entry per source that contributed
// records to the chunk (index id kPresenceIndexId), so queries can detect
// chunks holding records of a source that predates an index definition and
// fall back to scanning them (§5.3).

#ifndef SRC_INDEX_CHUNK_SUMMARY_H_
#define SRC_INDEX_CHUNK_SUMMARY_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"

namespace loom {

// Sentinel index id for per-source presence entries.
inline constexpr uint32_t kPresenceIndexId = 0xFFFFFFFFu;

// Sentinel bin for an index's per-chunk "evaluated" pseudo-entry: its count
// is the number of source records the index function ran on (whether or not
// it produced a value). Comparing it with the presence count tells queries
// whether a chunk holds records that predate the index definition (§5.3) and
// therefore must be scanned.
inline constexpr uint32_t kEvaluatedBin = 0xFFFFFFFEu;

// Aggregate statistics over the records of one bin within one chunk.
struct BinStats {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  TimestampNanos min_ts = std::numeric_limits<TimestampNanos>::max();
  TimestampNanos max_ts = 0;

  void Update(double value, TimestampNanos ts) {
    ++count;
    sum += value;
    if (value < min) {
      min = value;
    }
    if (value > max) {
      max = value;
    }
    if (ts < min_ts) {
      min_ts = ts;
    }
    if (ts > max_ts) {
      max_ts = ts;
    }
  }

  void Merge(const BinStats& other) {
    count += other.count;
    sum += other.sum;
    if (other.min < min) {
      min = other.min;
    }
    if (other.max > max) {
      max = other.max;
    }
    if (other.min_ts < min_ts) {
      min_ts = other.min_ts;
    }
    if (other.max_ts > max_ts) {
      max_ts = other.max_ts;
    }
  }
};

// One decoded chunk summary.
struct ChunkSummary {
  struct Entry {
    uint32_t source_id = 0;
    uint32_t index_id = 0;  // kPresenceIndexId for presence entries
    uint32_t bin = 0;
    BinStats stats;
  };

  uint64_t chunk_addr = 0;    // record log address of the chunk's first byte
  uint32_t chunk_len = 0;     // chunk size in bytes
  TimestampNanos min_ts = 0;  // over all records in the chunk
  TimestampNanos max_ts = 0;
  std::vector<Entry> entries;

  // Serializes into `out` (appending). Layout is explicit little-endian.
  void EncodeTo(std::vector<uint8_t>& out) const;

  static Result<ChunkSummary> Decode(std::span<const uint8_t> bytes);

  // Encoded byte size for this summary.
  size_t EncodedSize() const;
};

// Accumulates the active chunk's summary on the write path. One builder per
// Loom instance; reset after each chunk finalization. Accumulation slots are
// registered per (source, index) so the per-record update is an array index,
// never a hash lookup.
class ChunkSummaryBuilder {
 public:
  // Registers an accumulation slot with `num_bins` bins (including outlier
  // bins). Returns a slot handle used by Update().
  size_t RegisterSlot(uint32_t source_id, uint32_t index_id, uint32_t num_bins);

  // Drops a slot (index closed). Pending stats for the active chunk are kept
  // until the next Finalize.
  void UnregisterSlot(size_t slot);

  // Records an indexed value for the active chunk.
  void Update(size_t slot, uint32_t bin, double value, TimestampNanos ts);

  // Batch variant of Update: folds n pre-classified (bin, value, ts) triples
  // into the slot in array order. Because BinStats accumulate per (slot, bin)
  // and the per-bin visit order equals record order either way, the finalized
  // summary is bit-identical (double addition order included) to n scalar
  // Update calls. The staged ingest path classifies `bins` with the
  // vectorized classify_bins kernel before calling this.
  void UpdateBatch(size_t slot, const uint32_t* bins, const double* values,
                   const TimestampNanos* ts, size_t n);

  // Notes that the index function ran on a record of this slot's source
  // (call once per record per index, whether or not a value was produced).
  void NoteEvaluated(size_t slot);

  // Batch variant of NoteEvaluated (n records at once).
  void NoteEvaluatedBatch(size_t slot, uint64_t n);

  // Records the presence of a (possibly unindexed) source record.
  void UpdatePresence(size_t presence_slot, TimestampNanos ts);

  bool empty() const { return total_records_ == 0; }
  uint64_t total_records() const { return total_records_; }

  // Detached accumulation state for one sealed chunk: the dirty slots' bin
  // arrays moved out of the builder (cheap — no walk) plus the chunk header
  // facts. Produced by Detach() on the ingest thread; Materialize() turns it
  // into the ChunkSummary anywhere (the engine runs the expensive nonzero-bin
  // walk and entry construction on its sealing thread).
  struct Pending {
    struct Slot {
      uint32_t source_id = 0;
      uint32_t index_id = 0;
      uint64_t evaluated = 0;
      std::vector<BinStats> bins;
    };
    uint64_t chunk_addr = 0;
    uint32_t chunk_len = 0;
    uint64_t total_records = 0;
    TimestampNanos chunk_min_ts = 0;
    TimestampNanos chunk_max_ts = 0;
    std::vector<Slot> slots;  // ascending builder-slot order
  };

  // Moves the active chunk's accumulation out and resets the builder for the
  // next chunk. The slots keep their registration; only per-chunk data moves.
  Pending Detach(uint64_t chunk_addr, uint32_t chunk_len);

  // The walk that turns detached state into the canonical summary. Finalize()
  // is Materialize(Detach(...)), so the two paths are identical by
  // construction — bit-identical entries in the same deterministic order.
  static ChunkSummary Materialize(Pending&& pending);

  // Produces the summary for [chunk_addr, chunk_addr + chunk_len) and resets
  // all accumulation state for the next chunk.
  ChunkSummary Finalize(uint64_t chunk_addr, uint32_t chunk_len);

 private:
  struct Slot {
    uint32_t source_id = 0;
    uint32_t index_id = 0;
    bool active = false;
    bool dirty = false;  // any data in the current chunk
    uint64_t evaluated = 0;
    std::vector<BinStats> bins;
  };

  std::vector<Slot> slots_;
  std::vector<size_t> dirty_slots_;
  uint64_t total_records_ = 0;
  TimestampNanos chunk_min_ts_ = std::numeric_limits<TimestampNanos>::max();
  TimestampNanos chunk_max_ts_ = 0;

  void MarkDirty(size_t slot) {
    if (!slots_[slot].dirty) {
      slots_[slot].dirty = true;
      dirty_slots_.push_back(slot);
    }
  }
};

}  // namespace loom

#endif  // SRC_INDEX_CHUNK_SUMMARY_H_
