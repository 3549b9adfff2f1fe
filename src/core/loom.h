// Loom: efficient capture and querying of high-frequency telemetry.
//
// This is the public API of the engine (Figure 9 of the paper). A monitoring
// daemon embeds a `Loom` instance, defines sources and histogram indexes,
// pushes records on a single ingest thread, and serves queries from any
// number of reader threads concurrently with ingest.
//
// Threading contract:
//   * Schema operators (DefineSource/CloseSource/DefineIndex/CloseIndex) and
//     data ingest operators (Push/Sync) must be called from one thread — the
//     ingest thread.
//   * Query operators (RawScan/IndexedScan/IndexedAggregate) may be called
//     from any thread, concurrently with ingest. Queries never block ingest
//     (§4.4): they read lock-free snapshots and fall back to persistent
//     storage when the writer recycles an in-memory block mid-copy.
//   * Externally each query still behaves single-threaded: callbacks run on
//     the calling thread, in the same order as serial execution, against one
//     snapshot. Internally, when LoomOptions::query_threads > 0, operators
//     fan their candidate chunks out in morsels across a shared lazily-
//     started QueryThreadPool and merge per-worker partials in candidate
//     order, so results are byte-identical to serial execution. query_threads
//     = 0 (the default) keeps the fully serial executor with its constant
//     maximum memory footprint (§3); parallel scans buffer at most a bounded
//     window of morsel results. Index functions must be thread-safe (pure
//     functions of the payload): with parallelism enabled they are evaluated
//     concurrently from pool workers.
//
// Consistency (§4.5): a query observes exactly the records published before
// its snapshot was created. Durability is bounded by the in-memory blocks:
// data not yet flushed is lost if the process dies.

#ifndef SRC_CORE_LOOM_H_
#define SRC_CORE_LOOM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/cpu_features.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/core/kernels/kernels.h"
#include "src/core/query_thread_pool.h"
#include "src/core/query_trace.h"
#include "src/core/record_format.h"
#include "src/hybridlog/hybrid_log.h"
#include "src/hybridlog/prefetch_ring.h"
#include "src/index/chunk_summary.h"
#include "src/index/histogram.h"
#include "src/index/summary_cache.h"
#include "src/standing/standing_query.h"
#include "src/index/timestamp_index.h"
#include "src/tier/catalog.h"

namespace loom {

struct LoomOptions {
  // Directory holding the three log files (record.log, chunk.idx, ts.idx).
  std::string dir;

  // Record log chunk size: the unit of indexing (§4.2). Paper default 64 KiB.
  size_t chunk_size = 64 << 10;

  // In-memory block sizes per hybrid log. The paper uses 64 MiB blocks; the
  // defaults here are sized for laptop-scale runs. record_block_size is
  // rounded up to a multiple of chunk_size, ts_block_size to a multiple of
  // the 32-byte timestamp entry.
  size_t record_block_size = 4 << 20;
  size_t chunk_index_block_size = 1 << 20;
  size_t ts_index_block_size = 1 << 20;

  // A periodic timestamp index entry is written every `ts_marker_period`
  // records per source.
  uint32_t ts_marker_period = 64;

  // Record-log retention: keep at most this many bytes of raw records on
  // disk; older chunks are dropped and their disk space reclaimed (hole
  // punching). 0 retains everything. Queries reaching past the retention
  // floor return the retained suffix of the data. Index logs are small and
  // always retained in full.
  uint64_t record_retain_bytes = 0;

  // --- Tiered storage (cold archive tier) ---------------------------------

  // When set, retention demotes instead of deletes: a background tiering
  // service archives chunks below the desired retention floor into
  // crash-safe LOOMEXP1 archives (with per-block zone-map footers) under
  // this directory, and queries transparently federate over both tiers.
  // Requires enable_chunk_index (the zone maps are chunk summaries). Empty
  // (the default) keeps the lossy drop-on-retention behavior.
  std::string archive_dir;

  // Demotion cadence of the background tiering thread. 0 (the default)
  // disables the thread: demotion then runs only through explicit
  // DemoteNow() calls — the deterministic mode tests and replay tools use.
  uint64_t demote_interval_ms = 0;

  // At most this many chunks move into one archive per demotion pass.
  size_t demote_batch_chunks = 64;

  // Ablation switches (§6.4, Figure 16). Production leaves both on.
  bool enable_chunk_index = true;
  bool enable_timestamp_index = true;

  // Decoded chunk-summary cache byte budget (0 disables). Finalized summaries
  // are immutable and addressed by stable chunk-log offsets, so repeated
  // queries over overlapping ranges skip the per-summary log reads + decode.
  // Only query threads touch the cache (try-lock shards); ingest never does.
  size_t summary_cache_bytes = 8 << 20;
  // LRU shard count for the summary cache (rounded up to a power of two).
  size_t summary_cache_shards = 8;

  // Worker threads for morsel-driven parallel query execution (0 = every
  // query runs serially on its calling thread, today's default). The pool is
  // shared across queries and starts lazily on the first parallel query.
  // Validate() clamps values above 4x the hardware concurrency. Results are
  // byte-identical to serial execution; index functions must be thread-safe.
  size_t query_threads = 0;

  // Kernel dispatch for the per-chunk decode/classify/filter hot loops (see
  // src/core/kernels/kernels.h). kAuto resolves the LOOM_SIMD environment
  // variable (scalar|avx2|neon|auto) first, then autodetects the widest set
  // the CPU supports. Every set is bit-exact with the scalar reference, so
  // this knob never changes results — only throughput. Forcing an
  // unavailable set silently degrades to scalar.
  SimdMode simd_mode = SimdMode::kAuto;

  // Read-ahead depth of the chunk prefetch ring: indexed queries hand their
  // planned candidate chunk list to a background reader that stays up to
  // `prefetch_depth` chunks ahead of decode, overlapping record-log I/O with
  // kernel compute. Memory stays bounded at prefetch_depth chunks per query.
  // 0 disables the ring (queries read through their scan-local caches only).
  size_t prefetch_depth = 4;

  // --- Ingest (the write-path mirror of the query knobs above) ------------
  //
  // Chunk finalization (summary materialization + encode + chunk-log append
  // + ts-index appends) always runs on one sealing thread fed by a bounded
  // FIFO queue (see DESIGN.md §4). Readers see a sealing chunk as unindexed
  // tail (scanned raw) until its seal lands; Sync() drains the queue.

  // Durability policy of the record log's flusher (see
  // src/hybridlog/hybrid_log.h): kNone syncs only at close, kGroup batches
  // fdatasync over many flushed blocks (bounding data-at-risk to the group
  // window below), kEveryBlock syncs each flush. Index logs always use
  // kNone — they are reconstructible from the record log.
  SyncPolicy sync_policy = SyncPolicy::kNone;

  // Group-commit window (sync_policy = kGroup): a sync is issued when this
  // many bytes have been flushed unsynced, or this much time has passed
  // since the oldest unsynced byte, whichever comes first.
  uint64_t group_commit_bytes = 1 << 20;
  uint64_t group_commit_interval_ms = 50;

  // Flush submission backend (see src/common/io_backend.h): kAuto resolves
  // the LOOM_IO env override (sync|io_uring|auto) and then probes the kernel
  // for io_uring, mirroring simd_mode/LOOM_SIMD. The synchronous pwritev
  // path is the universal fallback; this knob never changes results.
  IoBackend io_backend = IoBackend::kAuto;

  // Batched summary construction: per-record index values are staged in a
  // small per-index buffer and classified with the vectorized classify_bins
  // kernel in batches of up to this many values (flushed at every chunk seal
  // and index close, so summaries stay bit-identical to the per-record
  // scalar BinOf path). 0 disables staging.
  size_t summary_stage_records = 256;

  // Timestamp source; defaults to a process-wide monotonic clock.
  Clock* clock = nullptr;

  // Metrics land here when set (e.g. the daemon shares one registry across
  // engine, channels, and network front door); otherwise the engine creates
  // and owns a private registry, reachable via metrics().
  MetricsRegistry* metrics = nullptr;

  // Latency histograms need clock reads around each operation; counters are
  // always on (a relaxed atomic add each). Turning this off removes the
  // timer reads for overhead-critical replays; per-record Push additionally
  // samples its timer 1-in-64 so the ingest hot path never pays two clock
  // reads per record.
  bool enable_latency_metrics = true;

  // Validates and canonicalizes the options in place: rejects nonsensical
  // combinations (empty dir, chunk_size too small for a record, a nonzero
  // cache budget with zero shards), clamps query_threads to 4x the hardware
  // concurrency, normalizes a zero-byte cache budget to zero shards, bumps a
  // zero ts_marker_period to 1, and applies the block-size round-ups.
  // Loom::Open calls this on its private copy; call it directly to pre-check
  // configuration (e.g. daemon config parsing).
  Status Validate();
};

// Upper bound on the chunk-index bytes one query (one morsel, when parallel)
// reads into memory at a time while loading candidate summaries. Runs of
// cache misses are read in windows of at most this size; a single summary
// frame larger than it is read on its own.
inline constexpr size_t kSummaryBatchBytes = 256 << 10;

// Bound on sealed chunks not yet applied by the sealing thread: ingest stalls
// (counted in loom_ingest_finalize_stall_seconds_total) rather than letting
// the indexed watermark fall arbitrarily behind.
inline constexpr size_t kFinalizeInflightChunks = 4;

// Legacy counter snapshot, now materialized from the metrics registry (the
// registry is the source of truth; see Loom::metrics() for the full picture
// including latency histograms).
struct LoomStats {
  uint64_t records_ingested = 0;
  uint64_t bytes_ingested = 0;  // payload bytes
  uint64_t chunks_finalized = 0;
  uint64_t ts_entries = 0;
  HybridLogStats record_log;
  HybridLogStats chunk_index_log;
  HybridLogStats ts_index_log;
  SummaryCacheStats summary_cache;
};

// Inclusive time range [start, end] in Loom-internal (arrival) timestamps.
struct TimeRange {
  TimestampNanos start = 0;
  TimestampNanos end = 0;

  bool Contains(TimestampNanos ts) const { return ts >= start && ts <= end; }
};

// Inclusive value range [lo, hi].
struct ValueRange {
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v <= hi; }
};

enum class AggregateMethod {
  kCount,
  kSum,
  kMin,
  kMax,
  kMean,
  kPercentile,  // requires percentile argument in [0, 100]
};

class Loom {
 public:
  // Extracts the indexed value from a record payload; nullopt skips the
  // record (it is still stored and raw-scannable, just not indexed). Must be
  // a thread-safe pure function of the payload: queries evaluate it from
  // multiple pool workers when query_threads > 0.
  using IndexFunc = std::function<std::optional<double>(std::span<const uint8_t>)>;

  // Receives matching records. Return false to stop the scan early.
  using RecordCallback = std::function<bool(const RecordView&)>;

  static Result<std::unique_ptr<Loom>> Open(const LoomOptions& options);
  ~Loom();

  Loom(const Loom&) = delete;
  Loom& operator=(const Loom&) = delete;

  // --- Schema operators (ingest thread) ----------------------------------

  Status DefineSource(uint32_t source_id);
  Status CloseSource(uint32_t source_id);

  // Defines a histogram index over `source_id`. Only records pushed after
  // the definition are indexed (§5.3); earlier records remain raw-scannable
  // and are found by indexed operators via chunk presence entries, at scan
  // cost. Returns the new index id.
  Result<uint32_t> DefineIndex(uint32_t source_id, IndexFunc func, HistogramSpec spec);
  Status CloseIndex(uint32_t index_id);

  // --- Data ingest operators (ingest thread) ------------------------------

  // Appends one record. The payload is opaque bytes; Loom timestamps it with
  // the internal monotonic clock on arrival (§5.2). When `arrival_ts` is
  // non-null it receives the timestamp actually stamped on the record, so
  // callers binning events into windows (TraceSink) use the record's true
  // provenance instead of re-reading the clock after the append.
  Status Push(uint32_t source_id, std::span<const uint8_t> payload,
              TimestampNanos* arrival_ts = nullptr);

  // Appends a batch of records for one source, amortizing the source lookup,
  // the clock read, and the publish fence across the batch. All records in
  // the batch carry the same arrival timestamp. Stops at the first failing
  // record (everything appended before it stays published).
  Status PushBatch(uint32_t source_id, std::span<const std::span<const uint8_t>> payloads);

  // Makes all records pushed so far visible to queriers. (Push already
  // publishes each record; Sync exists for API parity and forces the
  // publication fence.)
  Status Sync(uint32_t source_id);

  // --- Query operators (any thread) ---------------------------------------

  // Every query operator takes an optional `trace` out-parameter; when
  // non-null it receives the per-query execution trace (chunks considered /
  // pruned / scanned, records examined, cache hits, stage timings) — see
  // src/core/query_trace.h.

  // Scans records of `source_id` whose arrival time is in `t_range`, from
  // most to least recent (back-pointer chain order, §4.3).
  Status RawScan(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                 QueryTrace* trace = nullptr) const;

  // Scans records of `source_id` in `t_range` whose indexed value (per
  // `index_id`) is in `v_range`, using the chunk index to skip chunks.
  // Records are delivered in log (oldest-first) order.
  Status IndexedScan(uint32_t source_id, uint32_t index_id, TimeRange t_range, ValueRange v_range,
                     const RecordCallback& cb, QueryTrace* trace = nullptr) const;

  // Aggregates the indexed values of `source_id` in `t_range`. Distributive
  // aggregates are served from chunk summaries where chunks are fully inside
  // the range; holistic percentile uses the summary bins as a CDF and scans
  // only chunks contributing to the target bin (§4.3).
  Result<double> IndexedAggregate(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                  AggregateMethod method, double percentile = 0.0,
                                  QueryTrace* trace = nullptr) const;

  // Like IndexedScan, but also delivers the extracted index value, so
  // callers need not know the index function. Used by composed drill-down
  // queries and the distributed coordinator's two-phase percentile (§8).
  using ValueCallback = std::function<bool(double value, const RecordView& record)>;
  Status IndexedScanValues(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                           ValueRange v_range, const ValueCallback& cb,
                           QueryTrace* trace = nullptr) const;

  // Counts records of `source_id` in `t_range` using the always-maintained
  // per-source presence statistics in chunk summaries — no user-defined
  // index required. Falls back to scanning in ablation modes.
  Result<uint64_t> CountRecords(uint32_t source_id, TimeRange t_range,
                                QueryTrace* trace = nullptr) const;

  // Returns the per-bin record counts of `index_id` over `t_range` (one
  // entry per histogram bin, including the outlier bins). Served from chunk
  // summaries plus partial-chunk scans; this is the "histogram" query class
  // from §3 and the building block for distributed percentile merging (§8).
  Result<std::vector<uint64_t>> IndexedHistogram(uint32_t source_id, uint32_t index_id,
                                                 TimeRange t_range,
                                                 QueryTrace* trace = nullptr) const;

  // --- Tiered storage (any thread) -----------------------------------------

  // Runs one demotion pass synchronously: chunks wholly below both the
  // desired retention floor and the indexed watermark are archived (at most
  // options().demote_batch_chunks of them), the retention barrier advances
  // past the durable archive, and the demoted hot bytes are reclaimed.
  // No-op without archive_dir. Passes are serialized internally, so this is
  // safe concurrently with the background demoter.
  Status DemoteNow();

  // Sealed archives currently served by the query tier.
  size_t ArchiveCount() const;

  // --- Standing queries (any thread) ---------------------------------------

  // Registers a continuous windowed aggregate over a defined index
  // (src/standing/). Evaluation happens on the seal path: each freshly
  // sealed ChunkSummary is folded into the open windows, and every window
  // the watermark passes is emitted with results bit-identical to the
  // one-shot IndexedAggregate/IndexedHistogram over the same range.
  // Requires enable_chunk_index; the index must cover spec.source_id.
  Result<uint64_t> RegisterStandingQuery(const StandingQuerySpec& spec);
  Status UnregisterStandingQuery(uint64_t query_id);

  // Live stream of window results and alert transitions (query_id 0 = all).
  std::shared_ptr<StandingSubscription> SubscribeStanding(uint64_t query_id = 0,
                                                          size_t capacity = 1024);

  // The standing-query engine itself (stats, watermark). Never null.
  StandingQueryEngine* standing() const { return standing_.get(); }

  // --- Introspection -------------------------------------------------------

  // The histogram spec of a defined index (copies; safe from any thread).
  Result<HistogramSpec> IndexSpec(uint32_t index_id) const;

  LoomStats stats() const;
  TimestampNanos Now() const { return clock_->NowNanos(); }
  const LoomOptions& options() const { return options_; }

  // The engine's metrics registry (shared with the owner when
  // LoomOptions.metrics was set). Never null.
  MetricsRegistry* metrics() const { return metrics_; }

 private:
  struct IndexState {
    uint32_t id = 0;
    uint32_t source_id = 0;
    bool open = false;
    IndexFunc func;
    HistogramSpec spec = HistogramSpec::ExactMatch(0);
    size_t builder_slot = 0;
    // Staged summary construction (summary_stage_records > 0): extracted
    // values wait here until a batch classify + builder fold. Ingest thread
    // only; flushed at stage capacity, chunk seal, and index/source close.
    std::vector<double> stage_values;
    std::vector<TimestampNanos> stage_ts;
    uint64_t stage_evaluated = 0;
    bool stage_listed = false;  // member of staged_indexes_
  };

  struct SourceState {
    uint32_t id = 0;
    bool open = false;
    uint64_t record_count = 0;
    // Writer-side chain heads.
    uint64_t last_record_addr = kNullAddr;
    uint32_t records_since_marker = 0;
    size_t presence_slot = 0;
    // Indexes active on this source (writer side).
    std::vector<IndexState*> indexes;
    // Reader-visible chain head, published after the record log watermark.
    std::atomic<uint64_t> published_last_record{kNullAddr};
  };

  // Reader-side snapshot of an index definition.
  struct IndexSnapshot {
    uint32_t source_id = 0;
    IndexFunc func;
    HistogramSpec spec = HistogramSpec::ExactMatch(0);
  };

  // Point-in-time view used by one query (§4.4 capture order).
  struct Snapshot {
    uint64_t source_tail = kNullAddr;  // chain head for the queried source
    uint64_t indexed_tail = 0;         // record log address below which chunks are summarized
    uint64_t ts_tail = 0;
    uint64_t chunk_tail = 0;
    uint64_t record_tail = 0;
  };

  // `options.metrics` is already resolved (never null) by Open(); when the
  // engine owns the registry, Open passes it in via `owned_metrics` so the
  // hybrid logs could register against it before construction.
  Loom(const LoomOptions& options, std::unique_ptr<MetricsRegistry> owned_metrics,
       std::unique_ptr<HybridLog> record_log, std::unique_ptr<HybridLog> chunk_log,
       std::unique_ptr<HybridLog> ts_log);

  // Write-path internals (ingest thread).
  Status AppendRecord(SourceState& src, std::span<const uint8_t> payload, TimestampNanos now);
  Status FinalizeChunk(TimestampNanos now);
  Status MaybeWriteMarker(SourceState& src, TimestampNanos ts, uint64_t record_addr);
  void PublishAll(SourceState& src);
  // Classifies and folds an index's staged values into the builder (batch
  // kernel path); no-op when the stage is empty.
  void FlushIndexStage(IndexState& idx);
  // Flushes every index with staged data (called before each chunk seal).
  void FlushSummaryStages();

  // --- Ingest pipeline (see DESIGN.md §4) ---------------------------------
  //
  // The sealing thread is the *only* writer of the chunk and ts logs (both
  // are single-writer) and of the per-source ts marker chains. The ingest
  // thread publishes the record log and then enqueues each chunk seal and
  // ts record marker on one bounded SPSC queue; the sealing thread pops them
  // in FIFO order, so it applies them in the order ingest produced them.
  // Each chunk seal materializes and encodes the summary, then appends and
  // publishes the chunk log, then the ts log, then published_indexed_tail_
  // (the §5.4 order).
  struct SealEvent {
    enum class Kind : uint8_t { kChunk, kMarker, kStop };
    Kind kind = Kind::kChunk;
    // kChunk: detached builder state; the sealing thread materializes it.
    ChunkSummaryBuilder::Pending pending;
    uint32_t source_id = 0;    // kMarker
    uint64_t record_addr = 0;  // kMarker
    TimestampNanos ts = 0;     // event timestamp (monotone in queue order)
  };
  void SealerMain();
  Status ApplyChunkSeal(const ChunkSummary& summary, TimestampNanos ts,
                        const std::vector<uint8_t>& buf);
  Status ApplyMarker(const SealEvent& ev, std::unordered_map<uint32_t, uint64_t>& chains);
  // Blocks (counted as finalize stall) while the seal budget or the queue is
  // full, then enqueues. Returns the sticky pipeline error, if any.
  Status EnqueueSealEvent(SealEvent&& ev);
  // Ingest thread: waits until every queued event has been applied.
  void DrainIngestPipeline();
  // Destructor: drains, stops, and joins the sealing thread.
  void StopIngestPipeline();
  // First error the sealing thread hit (Ok when healthy).
  Status PipelineStatus() const;

  // Query internals. Public query operators are thin wrappers that install a
  // trace (local when the caller passed none), time the call, run the *Impl
  // body, and fold the finished trace into the metrics registry. Internal
  // composition (ablation fallbacks, percentile stage 2) calls the Impl
  // directly so one query folds exactly once.
  Status RawScanImpl(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                     QueryTrace* trace) const;
  Status IndexedScanValuesImpl(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                               ValueRange v_range, const ValueCallback& cb,
                               QueryTrace* trace) const;
  Result<uint64_t> CountRecordsImpl(uint32_t source_id, TimeRange t_range,
                                    QueryTrace* trace) const;
  Result<double> IndexedAggregateImpl(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                      AggregateMethod method, double percentile,
                                      QueryTrace* trace) const;
  Snapshot TakeSnapshot(const SourceState* src) const;
  Result<IndexSnapshot> GetIndexSnapshot(uint32_t index_id) const;
  const SourceState* FindSource(uint32_t source_id) const;

  // A query's planned candidate chunks. In timestamp-index mode the plan
  // holds only summary-frame addresses (collected with a cheap forward sweep
  // of the timestamp index — no summary reads), so the expensive summary
  // load + decode + filter runs per candidate, possibly on pool workers. In
  // the chunk-index-only ablation mode the serial chunk-log sweep already
  // decoded and filtered the summaries.
  struct CandidatePlan {
    std::vector<uint64_t> addrs;  // summary frame addresses, oldest-first
    std::vector<std::shared_ptr<const ChunkSummary>> preloaded;  // ablation mode
    bool use_preloaded = false;
    size_t size() const { return use_preloaded ? preloaded.size() : addrs.size(); }
  };
  Status PlanCandidates(const Snapshot& snap, TimeRange t_range, CandidatePlan* plan,
                        QueryTrace* trace) const;

  // Per-candidate outcome, produced by a worker (or inline when serial) and
  // folded by the coordinator strictly in candidate order — that ordering is
  // what keeps parallel results byte-identical to serial execution, double
  // non-associativity included.
  struct ChunkOutcome {
    enum class Kind : uint8_t {
      kFiltered,  // failed the snapshot/retention/time filters: not a candidate
      kPruned,    // summary settled it without record reads
      kFolded,    // summary bins folded into the aggregate (subset of pruned)
      kScanned,   // record data was read
    };
    Kind kind = Kind::kFiltered;
    std::shared_ptr<const ChunkSummary> summary;
    // Aggregate/histogram path: scanned (value, arrival ts) pairs, log order.
    std::vector<std::pair<double, TimestampNanos>> values;
    // IndexedScanValues path: buffered matches, log order. The payload is
    // copied out of the scan window so emission can happen later on the
    // coordinator.
    struct Match {
      double value = 0.0;
      TimestampNanos ts = 0;
      uint64_t addr = 0;
      std::vector<uint8_t> payload;
    };
    std::vector<Match> matches;
  };

  // Query-local loader of a plan's candidate summaries over candidates
  // [begin, end): one per serial query, one per morsel when parallel, so
  // serial and morsel execution share the same load path (LoadCandidate).
  // Candidate frames are ascending and back to back in the chunk-index log.
  // The loader takes them in batches: it probes the decoded-summary cache
  // for every candidate of the batch, then reads each run of consecutive
  // missed frames with one HybridLog::Read into a buffer of at most
  // kSummaryBatchBytes, and decodes them with the per-frame checks (length
  // sentinel, snapshot-tail bound). Decoded misses enter the cache only
  // when the plan's chunk-index span fits the cache budget; a larger plan
  // would sweep the whole cache (sequential flooding), so it uses its
  // summaries without inserting them and counts them as bypassed.
  class SummaryLoader {
   public:
    SummaryLoader(const Loom& loom, const CandidatePlan& plan, const Snapshot& snap,
                  size_t begin, size_t end);
    SummaryLoader(const SummaryLoader&) = delete;
    SummaryLoader& operator=(const SummaryLoader&) = delete;

    // Candidate `c`'s summary, before the candidate filters. Loads the
    // batch starting at `c` unless `c` is already loaded; ascending visits
    // load every batch once. Time spent loading accrues to
    // trace->summary_nanos, reads to trace->summary_reads.
    Result<std::shared_ptr<const ChunkSummary>> Get(size_t c, QueryTrace* trace);

    const Snapshot& snap() const { return snap_; }

   private:
    struct Slot {
      std::shared_ptr<const ChunkSummary> summary;
      Status status;  // a load error, reported when the candidate is reached
    };
    void Fill(size_t c, QueryTrace* trace);
    // Reads the missed candidates [r0, r1) with one read and decodes them.
    void LoadRun(size_t r0, size_t r1, QueryTrace* trace);
    // Decodes the frame at `addr`. Bytes inside [lo, hi) come from the run
    // buffer; a frame reaching past it is read on its own.
    Result<std::shared_ptr<const ChunkSummary>> DecodeFrame(uint64_t addr, uint64_t lo,
                                                            uint64_t hi, QueryTrace* trace);

    const Loom& loom_;
    const CandidatePlan& plan_;
    const Snapshot& snap_;
    const size_t end_;
    const bool insert_;  // plan span fits the cache budget: misses fill the cache
    size_t batch_begin_ = 0;
    std::vector<Slot> slots_;  // candidates [batch_begin_, batch_begin_ + size)
    std::unique_ptr<uint8_t[]> buf_;
    size_t buf_cap_ = 0;
    std::vector<uint8_t> frame_;  // one frame that does not fit the run buffer
  };

  // Loads candidate `c` through `summaries` and applies the candidate
  // filters (retention floor re-checked here, per worker / per morsel;
  // snapshot boundary; time-range overlap). A filtered-out candidate yields
  // a null summary. Counts cache hits/misses into `trace`.
  Result<std::shared_ptr<const ChunkSummary>> LoadCandidate(SummaryLoader& summaries, size_t c,
                                                            TimeRange t_range,
                                                            QueryTrace* trace) const;

  // Classifies + processes one candidate for the aggregate/histogram path.
  // Safe to call concurrently for distinct candidates. `ring` (nullable) is
  // this query's prefetch job; every call takes slot `c` so the ring's
  // read-ahead window keeps advancing even across pruned candidates.
  Status ProcessAggregateCandidate(uint32_t source_id, uint32_t index_id,
                                   const IndexSnapshot& idx, TimeRange t_range,
                                   SummaryLoader& summaries, size_t c,
                                   ChunkPrefetcher::Job* ring, ChunkOutcome* out,
                                   QueryTrace* trace) const;
  // Same for the IndexedScanValues path (prune decision + buffered matches).
  Status ProcessScanCandidate(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                              TimeRange t_range, ValueRange v_range, uint32_t first_bin,
                              uint32_t last_bin, SummaryLoader& summaries, size_t c,
                              ChunkPrefetcher::Job* ring, ChunkOutcome* out,
                              QueryTrace* trace) const;

  // Submits the plan's candidate record chunks to the prefetch ring so chunk
  // c+depth streams off the log while workers decode chunk c. Candidate
  // chunks are consecutive (chunk events are emitted once per finalized
  // chunk, in order), so the ranges derive from the first candidate's
  // chunk_addr arithmetically — one 8-byte chunk-log read, no summary
  // decodes on the coordinator. Returns null (no ring) when prefetching is
  // disabled, the plan is preloaded/small, or the derivation read fails.
  // Consumers verify a taken buffer against the candidate's decoded
  // chunk_addr before trusting it, so a stale derivation degrades to a miss.
  std::unique_ptr<ChunkPrefetcher::Job> SubmitCandidatePrefetch(const CandidatePlan& plan,
                                                                const Snapshot& snap) const;

  // True when this query may fan out to the pool (pool configured and the
  // caller is not itself a pool worker — no nested parallelism).
  bool CanRunParallel() const;

  // Parallel backward chain walk for RawScan: record-marker targets partition
  // the chain into segments scanned by workers, with ordered (newest-first)
  // emission on the caller. Sets *executed = false (caller falls back to the
  // serial walk) when the range yields too few segments to be worth it.
  Status RawScanParallel(uint32_t source_id, TimeRange t_range, const Snapshot& snap,
                         uint64_t start, const RecordCallback& cb, QueryTrace* trace,
                         bool* executed) const;

  // Collects summaries of fully-indexed chunks overlapping `t_range`
  // (oldest-first), honoring the snapshot boundary: PlanCandidates + serial
  // in-order loads. Summaries are shared with the decoded-summary cache —
  // never mutated.
  Status CollectCandidateSummaries(const Snapshot& snap, TimeRange t_range,
                                   std::vector<std::shared_ptr<const ChunkSummary>>& out,
                                   QueryTrace* trace) const;

  // --- Tiered storage internals (archive_dir set) --------------------------

  // One archived block a query may have to consult: the zone map points into
  // the reader's footer, and the shared reader keeps it alive for the whole
  // query even if the catalog grows concurrently.
  struct ArchiveCandidate {
    std::shared_ptr<const ArchiveReader> reader;
    size_t block = 0;
    const ChunkSummary* summary = nullptr;  // zone map, owned by `reader`
  };
  // Collects archived blocks overlapping `t_range` whose chunks sit wholly
  // below `floor` (the hot retention floor snapshotted at plan time), in
  // demotion (= hot-log address, = time) order. Blocks at or above the floor
  // are excluded — the hot tier still serves those chunks, so the two tiers
  // never double-deliver. Counts consulted archives into `trace`.
  std::vector<ArchiveCandidate> PlanArchiveCandidates(uint64_t floor, TimeRange t_range,
                                                      QueryTrace* trace) const;
  // Decompresses one archived block and streams its records filtered by
  // (source_id, t_range), reproducing the original hot-log RecordViews from
  // the stored address column. Accounts examined records and compressed
  // bytes (bytes_read and tier_bytes_read) into `trace`.
  Status ScanArchiveBlockFor(const ArchiveCandidate& cand, uint32_t source_id,
                             TimeRange t_range,
                             const std::function<bool(const RecordView&)>& fn,
                             QueryTrace* trace) const;
  // Archive-tier continuation of RawScan, run after the hot backward walk:
  // emits matching archived records newest block first, records within each
  // block reversed, so the overall delivery stays newest-first. Blocks are
  // pruned by zone-map presence and counted into both the main chunks_* and
  // the tier_* trace families.
  Status RawScanArchiveTier(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                            QueryTrace* trace) const;
  // Opens the catalog (startup sweep included), pins the retention barrier
  // at 0 so nothing is dropped before it is archived, registers the tier
  // gauges, and starts the background demoter when demote_interval_ms > 0.
  Status InitTiering();
  void DemoterMain();
  // One demotion pass body. Caller holds demote_mu_.
  Status DemoteOnce();

  // Shared accumulation phase of IndexedAggregate / IndexedHistogram: folds
  // chunk summaries where possible and scans partial/unindexed/active data.
  struct BinAccumulation {
    Snapshot snap;
    BinStats merged;
    std::vector<uint64_t> bin_counts;
    // Values from records that had to be scanned (bounded: a few chunks).
    std::vector<double> loose_values;
    // Collected once per query; the percentile path reuses this vector for
    // its second (target-bin materialization) stage instead of re-reading.
    std::vector<std::shared_ptr<const ChunkSummary>> candidates;
    // Archived blocks this query consulted (readers keep zone maps alive).
    std::vector<ArchiveCandidate> archive_candidates;
    // Candidates folded purely from summary bins (percentile stage 2 rescans
    // only these when their bins hold the target rank). `summary` points
    // into `candidates` or an `archive_candidates` footer; `archive_ref`
    // says which tier a stage-2 rescan must read (-1 = hot record log,
    // otherwise an index into archive_candidates).
    struct MergedChunk {
      const ChunkSummary* summary = nullptr;
      int archive_ref = -1;
    };
    std::vector<MergedChunk> fully_merged;
  };
  Status AccumulateIndexed(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                           TimeRange t_range, BinAccumulation* out, QueryTrace* trace) const;
  // Lazily drops cached summaries for chunks the record log no longer
  // retains. Called from query threads when the floor advanced.
  void MaybeInvalidateCacheForRetention(uint64_t floor) const;

  // Scans records in [from, to) of the record log, invoking `fn` for every
  // record (all sources). `fn` returns false to stop. Records examined and
  // bytes decoded accumulate into `trace` (never null on internal paths).
  // Decoding runs chunk-at-a-time through the dispatched kernel set: the
  // whole chunk span is fetched, batch-decoded into SoA arrays, and emitted
  // in order (so early stops observe the exact serial prefix).
  Status ScanRecordRange(uint64_t from, uint64_t to,
                         const std::function<bool(const RecordView&)>& fn,
                         QueryTrace* trace) const;
  // Filtered variant: only records matching (source_id, t_range) reach `fn`;
  // the predicate runs vectorized over each decoded batch. Trace accounting
  // (records_examined / bytes_read) still covers every record visited,
  // matching the unfiltered scan with an fn-side filter bit for bit.
  // `preloaded`, when non-empty, holds the record bytes starting at `from`
  // (a prefetched chunk); spans inside it skip the read cache entirely.
  Status ScanRecordRangeFor(uint64_t from, uint64_t to, uint32_t source_id, TimeRange t_range,
                            std::span<const uint8_t> preloaded,
                            const std::function<bool(const RecordView&)>& fn,
                            QueryTrace* trace) const;
  // Shared body of the two variants above.
  Status ScanRecordRangeInternal(uint64_t from, uint64_t to, bool filtered, uint32_t source_id,
                                 TimeRange t_range, std::span<const uint8_t> preloaded,
                                 const std::function<bool(const RecordView&)>& fn,
                                 QueryTrace* trace) const;

  const LoomOptions options_;
  Clock* clock_;
  std::unique_ptr<Clock> owned_clock_;

  // Metrics. `metrics_` points at the shared registry from LoomOptions or at
  // `owned_metrics_`. Declared before the logs: their flusher threads observe
  // registry histograms until joined in ~HybridLog, so the owned registry
  // must be destroyed after them (members destroy in reverse order).
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_metrics_;

  std::unique_ptr<HybridLog> record_log_;
  std::unique_ptr<HybridLog> chunk_log_;
  std::unique_ptr<HybridLog> ts_log_;

  TimestampIndexWriter ts_writer_;
  ChunkSummaryBuilder builder_;

  // Writer-side registries. Sources/indexes are never destroyed while the
  // engine lives (closed ones are marked), so readers can hold pointers.
  std::unordered_map<uint32_t, std::unique_ptr<SourceState>> sources_;
  std::unordered_map<uint32_t, std::unique_ptr<IndexState>> indexes_;
  uint32_t next_index_id_ = 1;

  // Reader-visible copies of index definitions, guarded by schema_mu_.
  mutable std::mutex schema_mu_;
  std::unordered_map<uint32_t, IndexSnapshot> index_snapshots_;

  // Record log address of the active (not yet summarized) chunk's start.
  std::atomic<uint64_t> published_indexed_tail_{0};

  // Morsel-driven parallel query pool (null when query_threads == 0). Lazily
  // started; shared by all queries on this engine.
  std::unique_ptr<QueryThreadPool> query_pool_;

  // Vectorized per-chunk kernels, resolved once at Open from
  // options.simd_mode / LOOM_SIMD / CPU detection. Never null.
  const KernelOps* kernels_ = nullptr;

  // Chunk prefetch ring (worker thread starts lazily on the first indexed
  // query when prefetch_depth > 0). Declared after the logs: its worker
  // reads the record log, so it must be destroyed first.
  mutable ChunkPrefetcher prefetcher_;

  // Tiered storage (null unless archive_dir is set). The demoter thread is
  // the only writer of archives; queries snapshot the catalog and read
  // sealed archives lock-free of it. demote_mu_ serializes demotion passes
  // (background thread and DemoteNow callers) and guards demote_cursor_.
  std::unique_ptr<ArchiveCatalog> catalog_;
  std::thread demoter_;
  std::atomic<bool> demote_stop_{false};
  std::condition_variable demote_cv_;
  mutable std::mutex demote_mu_;
  // Next chunk-log frame address to consider for demotion.
  uint64_t demote_cursor_ = 0;

  // Standing-query engine (null when enable_chunk_index is off — standing
  // evaluation folds ChunkSummaries, so without summaries there is nothing
  // to evaluate). Fed from ApplyChunkSeal on the sealing thread. Declared
  // after the logs: its rescan callback reads the record log.
  std::unique_ptr<StandingQueryEngine> standing_;

  // Decoded chunk-summary cache (null when disabled). Query threads only.
  std::unique_ptr<SummaryCache> summary_cache_;
  // Highest record-log retention floor already pushed to the cache.
  mutable std::atomic<uint64_t> cache_invalidated_floor_{0};

  uint64_t active_chunk_start_ = 0;

  // Staged summary construction (ingest thread only). staged_indexes_ lists
  // indexes whose stage may hold data since the last seal; stage_bins_ is the
  // classify output scratch, sized to summary_stage_records.
  std::vector<IndexState*> staged_indexes_;
  std::vector<uint32_t> stage_bins_;

  // Ingest pipeline state. Counters pair up ingest-side (enqueued/sealed,
  // relaxed) with sealing-thread-side (applied, release) so
  // DrainIngestPipeline and the finalize-lag gauge need no lock.
  SpscQueue<SealEvent> seal_queue_{1024};
  std::thread sealer_;
  std::atomic<uint64_t> events_enqueued_{0};
  std::atomic<uint64_t> events_applied_{0};
  std::atomic<uint64_t> chunks_sealed_{0};
  std::atomic<uint64_t> chunks_finalize_applied_{0};
  // Sticky first sealing error: the flag is checked (relaxed) on every
  // enqueue and by Sync(); the Status itself is behind pipeline_mu_.
  std::atomic<bool> pipeline_failed_{false};
  mutable std::mutex pipeline_mu_;
  Status pipeline_status_;

  // Individual metric pointers, registered once in the constructor; they
  // stay valid for the registry's lifetime.
  struct CoreMetrics {
    Counter* records_ingested = nullptr;
    Counter* bytes_ingested = nullptr;
    Counter* chunks_finalized = nullptr;
    Counter* ts_entries = nullptr;
    Counter* push_ops = nullptr;
    Counter* push_batch_ops = nullptr;
    Counter* sync_ops = nullptr;
    Histogram* push_seconds = nullptr;        // sampled 1-in-64
    Histogram* push_batch_seconds = nullptr;  // per batch
    Histogram* sync_seconds = nullptr;
    Histogram* chunk_finalize_seconds = nullptr;
    // Query-side, folded from finished QueryTraces.
    Counter* query_chunks_considered = nullptr;
    Counter* query_chunks_pruned = nullptr;
    Counter* query_chunks_scanned = nullptr;
    Counter* query_records_examined = nullptr;
    Counter* query_bytes_read = nullptr;
    Histogram* raw_scan_seconds = nullptr;
    Histogram* indexed_scan_seconds = nullptr;
    Histogram* aggregate_seconds = nullptr;
    Histogram* histogram_seconds = nullptr;
    Histogram* count_seconds = nullptr;
    // Parallel executor, folded from finished QueryTraces.
    Counter* parallel_queries = nullptr;
    Counter* parallel_morsels = nullptr;
    Counter* parallel_worker_runs = nullptr;
    Histogram* parallel_merge_seconds = nullptr;
    // Ingest pipeline.
    Counter* ingest_chunks_sealed = nullptr;      // seals routed to the pipeline
    Histogram* ingest_finalize_seconds = nullptr; // per applied chunk seal
    Gauge* ingest_finalize_stall = nullptr;       // cumulative ingest-side stall secs
    // Tiered storage. Demotion counters tick per demoted chunk; the block
    // counters fold from finished QueryTraces (tier_* fields).
    Counter* tier_demoted_chunks = nullptr;
    Counter* tier_demoted_records = nullptr;
    Counter* tier_demoted_bytes = nullptr;
    Counter* tier_demote_failures = nullptr;
    Counter* tier_quarantined = nullptr;
    Counter* tier_blocks_considered = nullptr;
    Counter* tier_blocks_pruned = nullptr;
    Counter* tier_blocks_scanned = nullptr;
    Counter* tier_read_bytes = nullptr;
    Histogram* tier_demote_seconds = nullptr;  // per demotion pass
  };
  CoreMetrics m_;
  // Collection hooks refreshing the summary-cache and pool gauges; removed in
  // the destructor because a shared registry may outlive this engine.
  uint64_t cache_hook_id_ = 0;
  uint64_t pool_hook_id_ = 0;
  uint64_t prefetch_hook_id_ = 0;
  uint64_t ingest_hook_id_ = 0;
  uint64_t tier_hook_id_ = 0;
  // Writer-local sampling counter for the 1-in-64 Push latency timer.
  uint64_t push_sample_tick_ = 0;

  // Registers all core metrics with `metrics_` and installs the cache hook.
  void RegisterMetrics();
  // Adds a finished trace's counters to the registry and observes
  // `total_nanos` into `op_hist` (when latency metrics are enabled).
  void FoldTraceIntoMetrics(const QueryTrace& trace, Histogram* op_hist) const;
};

}  // namespace loom

#endif  // SRC_CORE_LOOM_H_
