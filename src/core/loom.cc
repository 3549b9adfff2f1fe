#include "src/core/loom.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "src/hybridlog/cached_reader.h"

namespace loom {

namespace {

// Window used by scan-local read caches.
constexpr size_t kScanWindow = 64 << 10;

// Forward scans of the timestamp index looking for the next chunk event are
// bounded; past this many entries the query falls back to the chain walk.
constexpr uint64_t kChunkEventScanCap = 8192;

// Queries with fewer candidates than this stay serial — pool coordination
// costs more than it buys on tiny plans.
constexpr size_t kMinParallelCandidates = 4;

// Parallel RawScan needs at least this many chain segments to fan out.
constexpr size_t kMinParallelSegments = 4;

// Backward chain walks batch this many headers before running the vectorized
// time filter over them (the walk itself is data-dependent and stays serial).
constexpr size_t kChainWalkBatch = 64;

Clock* DefaultClock() {
  static MonotonicClock clock;
  return &clock;
}

size_t RoundUp(size_t value, size_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Accumulates scope wall time into trace->plan_nanos, only for detailed
// (caller-requested) traces; internal bookkeeping never reads the clock.
class PlanTimer {
 public:
  explicit PlanTimer(QueryTrace* trace)
      : trace_(trace), t0_(trace->detailed ? MetricsNowNanos() : 0) {}
  ~PlanTimer() {
    if (trace_->detailed) {
      trace_->plan_nanos += MetricsNowNanos() - t0_;
    }
  }
  PlanTimer(const PlanTimer&) = delete;
  PlanTimer& operator=(const PlanTimer&) = delete;

 private:
  QueryTrace* trace_;
  uint64_t t0_;
};

// Partitions n candidates into contiguous morsels sized for `workers`
// threads: enough morsels for load balance (about four per thread, caller
// included), each within [1, 64] candidates.
std::vector<std::pair<size_t, size_t>> MakeMorsels(size_t n, size_t workers) {
  std::vector<std::pair<size_t, size_t>> morsels;
  if (n == 0) {
    return morsels;
  }
  const size_t target = (workers + 1) * 4;
  const size_t size = std::max<size_t>(1, std::min<size_t>(64, (n + target - 1) / target));
  morsels.reserve((n + size - 1) / size);
  for (size_t b = 0; b < n; b += size) {
    morsels.emplace_back(b, std::min(n, b + size));
  }
  return morsels;
}

// Per-source facts a zone map (chunk summary) states about one chunk, shared
// by the archive-tier classification in the query operators. Mirrors the
// entry sweeps in ProcessScanCandidate / ProcessAggregateCandidate.
struct ZoneFacts {
  bool has_presence = false;
  uint64_t presence_count = 0;
  uint64_t evaluated_count = 0;
  bool bin_match = false;
  TimestampNanos min_ts = 0;
  TimestampNanos max_ts = 0;
};

ZoneFacts CollectZoneFacts(const ChunkSummary& s, uint32_t source_id, uint32_t index_id,
                           uint32_t first_bin, uint32_t last_bin) {
  ZoneFacts f;
  for (const ChunkSummary::Entry& e : s.entries) {
    if (e.source_id != source_id) {
      continue;
    }
    if (e.index_id == kPresenceIndexId) {
      f.has_presence = true;
      f.presence_count = e.stats.count;
      f.min_ts = e.stats.min_ts;
      f.max_ts = e.stats.max_ts;
    } else if (e.index_id == index_id) {
      if (e.bin == kEvaluatedBin) {
        f.evaluated_count = e.stats.count;
      } else if (e.bin >= first_bin && e.bin <= last_bin) {
        f.bin_match = true;
      }
    }
  }
  return f;
}

}  // namespace

Status LoomOptions::Validate() {
  if (dir.empty()) {
    return Status::InvalidArgument("LoomOptions.dir must be set");
  }
  if (chunk_size < 2 * kRecordHeaderSize) {
    return Status::InvalidArgument("chunk_size too small");
  }
  if (summary_cache_bytes > 0 && summary_cache_shards == 0) {
    return Status::InvalidArgument(
        "summary_cache_shards must be nonzero when summary_cache_bytes > 0");
  }
  if (summary_cache_bytes == 0) {
    summary_cache_shards = 0;  // canonical "cache disabled"
  }
  if (ts_marker_period == 0) {
    ts_marker_period = 1;
  }
  if (!archive_dir.empty() && !enable_chunk_index) {
    return Status::InvalidArgument(
        "archive_dir requires enable_chunk_index (zone maps are chunk summaries)");
  }
  if (demote_batch_chunks == 0) {
    demote_batch_chunks = 1;
  }
  record_block_size = RoundUp(std::max(record_block_size, chunk_size), chunk_size);
  ts_index_block_size =
      RoundUp(std::max<size_t>(ts_index_block_size, 1024), TimestampIndexEntry::kEncodedSize);
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) {
    hw = 1;
  }
  if (query_threads > hw * 4) {
    query_threads = hw * 4;  // oversubscribing further only adds contention
  }
  // A stage larger than this buys nothing (classify batches are already far
  // past the kernel's vector width) and bloats the per-index buffers.
  if (summary_stage_records > 4096) {
    summary_stage_records = 4096;
  }
  return Status::Ok();
}

Result<std::unique_ptr<Loom>> Loom::Open(const LoomOptions& options) {
  LoomOptions opts = options;
  LOOM_RETURN_IF_ERROR(opts.Validate());
  std::error_code ec;
  std::filesystem::create_directories(opts.dir, ec);
  if (ec) {
    return Status::IoError("create_directories " + opts.dir + ": " + ec.message());
  }
  if (opts.clock == nullptr) {
    opts.clock = DefaultClock();
  }

  // Resolve the metrics registry before the hybrid logs are created so they
  // can register their flush/stall metrics against it.
  std::unique_ptr<MetricsRegistry> owned_metrics;
  if (opts.metrics == nullptr) {
    owned_metrics = std::make_unique<MetricsRegistry>();
    opts.metrics = owned_metrics.get();
  }

  HybridLogOptions rec_opts;
  rec_opts.block_size = opts.record_block_size;
  rec_opts.retain_bytes = opts.record_retain_bytes;
  rec_opts.metrics = opts.metrics;
  rec_opts.metrics_prefix = "loom_hybridlog_record";
  rec_opts.io_backend = opts.io_backend;
  rec_opts.sync_policy = opts.sync_policy;
  rec_opts.group_commit_bytes = opts.group_commit_bytes;
  rec_opts.group_commit_interval_ms = opts.group_commit_interval_ms;
  // The record log's block slot ring is long-lived and flushed constantly:
  // register it with the io backend so an io_uring writer can submit
  // WRITE_FIXED (no-op everywhere else). Index logs flush rarely.
  rec_opts.register_buffers = true;
  rec_opts.group_commits_metric = opts.metrics->AddCounter("loom_ingest_group_commits_total");
  rec_opts.group_commit_bytes_metric =
      opts.metrics->AddCounter("loom_ingest_group_commit_bytes");
  auto record_log = HybridLog::Create(opts.dir + "/record.log", rec_opts);
  if (!record_log.ok()) {
    return record_log.status();
  }
  HybridLogOptions chunk_opts;
  chunk_opts.block_size = opts.chunk_index_block_size;
  chunk_opts.metrics = opts.metrics;
  chunk_opts.metrics_prefix = "loom_hybridlog_chunkidx";
  auto chunk_log = HybridLog::Create(opts.dir + "/chunk.idx", chunk_opts);
  if (!chunk_log.ok()) {
    return chunk_log.status();
  }
  HybridLogOptions ts_opts;
  ts_opts.block_size = opts.ts_index_block_size;
  ts_opts.metrics = opts.metrics;
  ts_opts.metrics_prefix = "loom_hybridlog_tsidx";
  auto ts_log = HybridLog::Create(opts.dir + "/ts.idx", ts_opts);
  if (!ts_log.ok()) {
    return ts_log.status();
  }
  std::unique_ptr<Loom> engine(new Loom(opts, std::move(owned_metrics),
                                        std::move(record_log.value()),
                                        std::move(chunk_log.value()),
                                        std::move(ts_log.value())));
  if (!opts.archive_dir.empty()) {
    LOOM_RETURN_IF_ERROR(engine->InitTiering());
  }
  return engine;
}

Loom::Loom(const LoomOptions& options, std::unique_ptr<MetricsRegistry> owned_metrics,
           std::unique_ptr<HybridLog> record_log, std::unique_ptr<HybridLog> chunk_log,
           std::unique_ptr<HybridLog> ts_log)
    : options_(options),
      clock_(options.clock),
      metrics_(options.metrics),
      owned_metrics_(std::move(owned_metrics)),
      record_log_(std::move(record_log)),
      chunk_log_(std::move(chunk_log)),
      ts_log_(std::move(ts_log)),
      ts_writer_(ts_log_.get()) {
  if (options_.summary_cache_bytes > 0 && options_.enable_chunk_index) {
    SummaryCacheOptions cache_opts;
    cache_opts.capacity_bytes = options_.summary_cache_bytes;
    cache_opts.shards = options_.summary_cache_shards;
    summary_cache_ = std::make_unique<SummaryCache>(cache_opts);
  }
  if (options_.query_threads > 0) {
    query_pool_ = std::make_unique<QueryThreadPool>(options_.query_threads);
  }
  // Resolve the kernel set once: an explicit simd_mode wins; kAuto consults
  // LOOM_SIMD and then autodetects. SelectKernels never returns null.
  kernels_ = SelectKernels(options_.simd_mode == SimdMode::kAuto
                               ? SimdModeFromEnv(SimdMode::kAuto)
                               : options_.simd_mode);
  stage_bins_.resize(options_.summary_stage_records);
  if (options_.enable_chunk_index) {
    StandingQueryEngineOptions standing_opts;
    standing_opts.kernels = kernels_;
    standing_opts.metrics = metrics_;
    standing_opts.scan_chunk = [this](uint64_t chunk_addr, uint32_t chunk_len,
                                      uint32_t source_id, TimestampNanos start,
                                      TimestampNanos end,
                                      const std::function<bool(const RecordView&)>& fn) {
      // Straddling-chunk rescan: same batched walk as the one-shot planner's
      // scanned path, bounded to the just-sealed chunk. The caller (seal
      // path) guarantees the chunk's record bytes are published.
      QueryTrace scratch;
      return ScanRecordRangeFor(chunk_addr, chunk_addr + chunk_len, source_id,
                                TimeRange{start, end}, {}, fn, &scratch);
    };
    standing_ = std::make_unique<StandingQueryEngine>(std::move(standing_opts));
  }
  RegisterMetrics();
  // Started after RegisterMetrics: the sealing thread observes the
  // finalize-latency histogram from its first applied event.
  sealer_ = std::thread([this] { SealerMain(); });
}

Loom::~Loom() {
  // The sealing thread writes the chunk/ts logs and observes registry
  // histograms: stop it before anything it touches goes away.
  StopIngestPipeline();
  // The demoter reads the logs and the catalog: join it before either dies.
  if (demoter_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(demote_mu_);
      demote_stop_.store(true, std::memory_order_relaxed);
    }
    demote_cv_.notify_all();
    demoter_.join();
  }
  // A shared registry (LoomOptions.metrics) outlives this engine; the hooks
  // capture `summary_cache_` / `query_pool_` / `prefetcher_` / `this` and
  // must go first.
  if (cache_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(cache_hook_id_);
  }
  if (pool_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(pool_hook_id_);
  }
  if (prefetch_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(prefetch_hook_id_);
  }
  if (ingest_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(ingest_hook_id_);
  }
  if (tier_hook_id_ != 0) {
    metrics_->RemoveCollectionHook(tier_hook_id_);
  }
}

void Loom::RegisterMetrics() {
  m_.records_ingested = metrics_->AddCounter("loom_core_ingested_records_total");
  m_.bytes_ingested = metrics_->AddCounter("loom_core_ingested_bytes");
  m_.chunks_finalized = metrics_->AddCounter("loom_core_chunks_finalized_total");
  m_.ts_entries = metrics_->AddCounter("loom_core_ts_entries_total");
  m_.push_ops = metrics_->AddCounter("loom_core_push_total");
  m_.push_batch_ops = metrics_->AddCounter("loom_core_push_batch_total");
  m_.sync_ops = metrics_->AddCounter("loom_core_sync_total");
  m_.push_seconds = metrics_->AddHistogram("loom_core_push_seconds");
  m_.push_batch_seconds = metrics_->AddHistogram("loom_core_push_batch_seconds");
  m_.sync_seconds = metrics_->AddHistogram("loom_core_sync_seconds");
  m_.chunk_finalize_seconds = metrics_->AddHistogram("loom_index_chunk_finalize_seconds");
  m_.query_chunks_considered = metrics_->AddCounter("loom_query_chunks_considered_total");
  m_.query_chunks_pruned = metrics_->AddCounter("loom_query_chunks_pruned_total");
  m_.query_chunks_scanned = metrics_->AddCounter("loom_query_chunks_scanned_total");
  m_.query_records_examined = metrics_->AddCounter("loom_query_records_examined_total");
  m_.query_bytes_read = metrics_->AddCounter("loom_query_read_bytes");
  m_.raw_scan_seconds = metrics_->AddHistogram("loom_query_raw_scan_seconds");
  m_.indexed_scan_seconds = metrics_->AddHistogram("loom_query_indexed_scan_seconds");
  m_.aggregate_seconds = metrics_->AddHistogram("loom_query_aggregate_seconds");
  m_.histogram_seconds = metrics_->AddHistogram("loom_query_histogram_seconds");
  m_.count_seconds = metrics_->AddHistogram("loom_query_count_seconds");
  m_.parallel_queries = metrics_->AddCounter("loom_query_parallel_queries_total");
  m_.parallel_morsels = metrics_->AddCounter("loom_query_parallel_morsels_total");
  m_.parallel_worker_runs = metrics_->AddCounter("loom_query_parallel_worker_runs_total");
  m_.parallel_merge_seconds = metrics_->AddHistogram("loom_query_parallel_merge_seconds");
  if (query_pool_ != nullptr) {
    Gauge* pool_threads = metrics_->AddGauge("loom_query_parallel_pool_threads");
    Gauge* queue_depth = metrics_->AddGauge("loom_query_parallel_pool_queue_depth");
    QueryThreadPool* pool = query_pool_.get();
    pool_threads->Set(static_cast<double>(pool->num_threads()));
    pool_hook_id_ = metrics_->AddCollectionHook([pool, queue_depth] {
      queue_depth->Set(static_cast<double>(pool->QueueDepthApprox()));
    });
  }
  if (summary_cache_ != nullptr) {
    // The cache keeps its own atomics (query threads bump them with no
    // registry in sight); a collection hook folds them in at each
    // Snapshot(). Counts are counters advanced by the delta since the
    // hook's previous run (hooks run under the registry mutex, one at a
    // time), so engines sharing a registry sum; levels are gauges.
    Counter* hits = metrics_->AddCounter("loom_cache_hits_total");
    Counter* misses = metrics_->AddCounter("loom_cache_misses_total");
    Counter* evictions = metrics_->AddCounter("loom_cache_evictions_total");
    Counter* invalidated = metrics_->AddCounter("loom_cache_invalidated_total");
    Counter* bypassed = metrics_->AddCounter("loom_cache_bypassed_total");
    Gauge* bytes_used = metrics_->AddGauge("loom_cache_used_bytes");
    Gauge* entries = metrics_->AddGauge("loom_cache_entries");
    SummaryCache* cache = summary_cache_.get();
    cache_hook_id_ = metrics_->AddCollectionHook(
        [cache, hits, misses, evictions, invalidated, bypassed, bytes_used, entries,
         prev = SummaryCacheStats{}]() mutable {
          const SummaryCacheStats s = cache->stats();
          hits->Increment(s.hits - prev.hits);
          misses->Increment(s.misses - prev.misses);
          evictions->Increment(s.evictions - prev.evictions);
          invalidated->Increment(s.invalidated - prev.invalidated);
          bypassed->Increment(s.bypassed - prev.bypassed);
          bytes_used->Set(static_cast<double>(s.bytes_used));
          entries->Set(static_cast<double>(s.entries));
          prev = s;
        });
  }
  {
    // The active kernel set, exported as a one-hot style gauge (0 scalar,
    // 1 avx2, 2 neon) so dashboards can tell which dispatch a node runs.
    Gauge* kernel_mode = metrics_->AddGauge("loom_query_kernel_mode");
    const char* name = kernels_->name;
    kernel_mode->Set(std::strcmp(name, "avx2") == 0   ? 1.0
                     : std::strcmp(name, "neon") == 0 ? 2.0
                                                      : 0.0);
  }
  if (options_.prefetch_depth > 0) {
    // The ring keeps its own counters under its mutex; a collection hook
    // advances registry counters by the delta since its previous run, as the
    // summary-cache hook does, so engines sharing a registry sum.
    Counter* issued = metrics_->AddCounter("loom_query_prefetch_issued_total");
    Counter* hits = metrics_->AddCounter("loom_query_prefetch_hits_total");
    Counter* wasted = metrics_->AddCounter("loom_query_prefetch_wasted_total");
    Gauge* depth = metrics_->AddGauge("loom_query_prefetch_ring_depth");
    ChunkPrefetcher* ring = &prefetcher_;
    prefetch_hook_id_ = metrics_->AddCollectionHook(
        [ring, issued, hits, wasted, depth, prev = ChunkPrefetcher::Stats{}]() mutable {
          const ChunkPrefetcher::Stats s = ring->stats();
          issued->Increment(s.issued - prev.issued);
          hits->Increment(s.hits - prev.hits);
          wasted->Increment(s.wasted - prev.wasted);
          depth->Set(static_cast<double>(s.depth));
          prev = s;
        });
  }
  {
    // Tiered-storage family. Demotion counters tick in the demoter; the
    // per-query block counters fold from finished traces. Registered
    // unconditionally (always zero without archive_dir) so exposition is
    // stable across configurations; the catalog gauges join in InitTiering.
    m_.tier_demoted_chunks = metrics_->AddCounter("loom_tier_demoted_chunks_total");
    m_.tier_demoted_records = metrics_->AddCounter("loom_tier_demoted_records_total");
    m_.tier_demoted_bytes = metrics_->AddCounter("loom_tier_demoted_bytes");
    m_.tier_demote_failures = metrics_->AddCounter("loom_tier_demote_failures_total");
    m_.tier_quarantined = metrics_->AddCounter("loom_tier_quarantined_total");
    m_.tier_blocks_considered = metrics_->AddCounter("loom_tier_blocks_considered_total");
    m_.tier_blocks_pruned = metrics_->AddCounter("loom_tier_blocks_pruned_total");
    m_.tier_blocks_scanned = metrics_->AddCounter("loom_tier_blocks_scanned_total");
    m_.tier_read_bytes = metrics_->AddCounter("loom_tier_read_bytes");
    m_.tier_demote_seconds = metrics_->AddHistogram("loom_tier_demote_seconds");
  }
  {
    // Ingest-pipeline family. Queue depths and the finalize lag are levels
    // read from the engine / record log at each Snapshot().
    m_.ingest_chunks_sealed = metrics_->AddCounter("loom_ingest_chunks_sealed_total");
    m_.ingest_finalize_seconds = metrics_->AddHistogram("loom_ingest_finalize_seconds");
    m_.ingest_finalize_stall = metrics_->AddGauge("loom_ingest_finalize_stall_seconds_total");
    Gauge* flush_depth = metrics_->AddGauge("loom_ingest_flush_queue_depth");
    Gauge* finalize_depth = metrics_->AddGauge("loom_ingest_finalize_queue_depth");
    Gauge* finalize_lag = metrics_->AddGauge("loom_ingest_finalize_lag_chunks");
    // Number of sealing threads: always 1. Kept so run reports that record
    // the seal topology (e.g. perfbench's ingest condition) stay readable.
    metrics_->AddGauge("loom_ingest_seal_shards")->Set(1.0);
    // Resolved flush backend as a mode gauge (0 sync, 1 io_uring), like
    // loom_query_kernel_mode; the fixed-buffer gauge says whether the
    // io_uring writer additionally registered the slot ring (WRITE_FIXED).
    Gauge* io_mode = metrics_->AddGauge("loom_ingest_io_backend_mode");
    Gauge* write_fixed = metrics_->AddGauge("loom_ingest_io_write_fixed_mode");
    const char* io_name = record_log_->io_backend_name();
    io_mode->Set(std::strncmp(io_name, "io_uring", 8) == 0 ? 1.0 : 0.0);
    write_fixed->Set(std::strcmp(io_name, "io_uring_fixed") == 0 ? 1.0 : 0.0);
    HybridLog* rec = record_log_.get();
    ingest_hook_id_ = metrics_->AddCollectionHook(
        [this, rec, flush_depth, finalize_depth, finalize_lag] {
          flush_depth->Set(static_cast<double>(rec->FlushQueueDepthApprox()));
          finalize_depth->Set(static_cast<double>(seal_queue_.SizeApprox()));
          const uint64_t sealed = chunks_sealed_.load(std::memory_order_relaxed);
          const uint64_t applied = chunks_finalize_applied_.load(std::memory_order_relaxed);
          finalize_lag->Set(sealed >= applied ? static_cast<double>(sealed - applied) : 0.0);
        });
  }
}

void Loom::FoldTraceIntoMetrics(const QueryTrace& trace, Histogram* op_hist) const {
  if (trace.chunks_considered > 0) {
    m_.query_chunks_considered->Increment(trace.chunks_considered);
    m_.query_chunks_pruned->Increment(trace.chunks_pruned);
    m_.query_chunks_scanned->Increment(trace.chunks_scanned);
  }
  if (trace.tier_chunks_considered > 0) {
    m_.tier_blocks_considered->Increment(trace.tier_chunks_considered);
    m_.tier_blocks_pruned->Increment(trace.tier_chunks_pruned);
    m_.tier_blocks_scanned->Increment(trace.tier_chunks_scanned);
  }
  if (trace.tier_bytes_read > 0) {
    m_.tier_read_bytes->Increment(trace.tier_bytes_read);
  }
  if (trace.records_examined > 0) {
    m_.query_records_examined->Increment(trace.records_examined);
  }
  if (trace.bytes_read > 0) {
    m_.query_bytes_read->Increment(trace.bytes_read);
  }
  if (trace.parallel_morsels > 0) {
    m_.parallel_queries->Increment();
    m_.parallel_morsels->Increment(trace.parallel_morsels);
    m_.parallel_worker_runs->Increment(trace.parallel_workers);
    if (options_.enable_latency_metrics) {
      m_.parallel_merge_seconds->ObserveNanos(trace.merge_nanos);
    }
  }
  if (options_.enable_latency_metrics && op_hist != nullptr) {
    op_hist->ObserveNanos(trace.total_nanos);
  }
}

// --- Schema operators ------------------------------------------------------

Status Loom::DefineSource(uint32_t source_id) {
  if (source_id == kPadSourceId) {
    return Status::InvalidArgument("source id reserved for padding");
  }
  auto it = sources_.find(source_id);
  if (it != sources_.end()) {
    if (it->second->open) {
      return Status::AlreadyExists("source already defined");
    }
    it->second->open = true;  // reopen: the record chain continues
    return Status::Ok();
  }
  auto state = std::make_unique<SourceState>();
  state->id = source_id;
  state->open = true;
  state->presence_slot = builder_.RegisterSlot(source_id, kPresenceIndexId, 1);
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    sources_.emplace(source_id, std::move(state));
  }
  return Status::Ok();
}

Status Loom::CloseSource(uint32_t source_id) {
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  SourceState& src = *it->second;
  for (IndexState* idx : src.indexes) {
    idx->open = false;
    FlushIndexStage(*idx);  // staged values still belong to the active chunk
    builder_.UnregisterSlot(idx->builder_slot);
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.erase(idx->id);
  }
  src.indexes.clear();
  src.open = false;
  return Status::Ok();
}

Result<uint32_t> Loom::DefineIndex(uint32_t source_id, IndexFunc func, HistogramSpec spec) {
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (!func) {
    return Status::InvalidArgument("index function must be callable");
  }
  const uint32_t id = next_index_id_++;
  auto state = std::make_unique<IndexState>();
  state->id = id;
  state->source_id = source_id;
  state->open = true;
  state->func = func;
  state->spec = spec;
  state->builder_slot =
      builder_.RegisterSlot(source_id, id, static_cast<uint32_t>(spec.num_bins()));
  it->second->indexes.push_back(state.get());
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.emplace(id, IndexSnapshot{source_id, std::move(func), std::move(spec)});
    indexes_.emplace(id, std::move(state));
  }
  return id;
}

Status Loom::CloseIndex(uint32_t index_id) {
  auto it = indexes_.find(index_id);
  if (it == indexes_.end() || !it->second->open) {
    return Status::NotFound("index not defined");
  }
  IndexState& idx = *it->second;
  idx.open = false;
  FlushIndexStage(idx);  // staged values still belong to the active chunk
  builder_.UnregisterSlot(idx.builder_slot);
  auto src_it = sources_.find(idx.source_id);
  if (src_it != sources_.end()) {
    auto& vec = src_it->second->indexes;
    vec.erase(std::remove(vec.begin(), vec.end(), &idx), vec.end());
  }
  {
    std::lock_guard<std::mutex> lock(schema_mu_);
    index_snapshots_.erase(index_id);
  }
  return Status::Ok();
}

// --- Ingest ------------------------------------------------------------------

Status Loom::Push(uint32_t source_id, std::span<const uint8_t> payload,
                  TimestampNanos* arrival_ts) {
  // Timing every Push would cost two clock reads per record — more than the
  // append itself for small payloads — so the latency histogram is fed by a
  // 1-in-64 sample. Counters are always exact.
  m_.push_ops->Increment();
  const bool sampled = options_.enable_latency_metrics && (push_sample_tick_++ & 63) == 0;
  const uint64_t t0 = sampled ? MetricsNowNanos() : 0;
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (pipeline_failed_.load(std::memory_order_relaxed)) {
    return PipelineStatus();  // the sealing thread hit a sticky error
  }
  SourceState& src = *it->second;
  const TimestampNanos now = clock_->NowNanos();
  LOOM_RETURN_IF_ERROR(AppendRecord(src, payload, now));
  if (arrival_ts != nullptr) {
    *arrival_ts = now;
  }
  PublishAll(src);
  if (sampled) {
    m_.push_seconds->ObserveNanos(MetricsNowNanos() - t0);
  }
  return Status::Ok();
}

Status Loom::PushBatch(uint32_t source_id,
                       std::span<const std::span<const uint8_t>> payloads) {
  m_.push_batch_ops->Increment();
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.push_batch_seconds : nullptr);
  auto it = sources_.find(source_id);
  if (it == sources_.end() || !it->second->open) {
    return Status::NotFound("source not defined");
  }
  if (payloads.empty()) {
    return Status::Ok();
  }
  if (pipeline_failed_.load(std::memory_order_relaxed)) {
    return PipelineStatus();  // the sealing thread hit a sticky error
  }
  SourceState& src = *it->second;
  const TimestampNanos now = clock_->NowNanos();
  size_t appended = 0;
  Status status = Status::Ok();
  for (const std::span<const uint8_t>& payload : payloads) {
    status = AppendRecord(src, payload, now);
    if (!status.ok()) {
      break;
    }
    ++appended;
  }
  if (appended > 0) {
    PublishAll(src);  // records before the failure stay published
  }
  return status;
}

Status Loom::AppendRecord(SourceState& src, std::span<const uint8_t> payload,
                          TimestampNanos now) {
  const size_t need = kRecordHeaderSize + payload.size();
  if (need > options_.chunk_size) {
    return Status::InvalidArgument("record larger than chunk size");
  }

  // Chunk accounting: pad and finalize the active chunk if the record does
  // not fit in its remainder (§5.4).
  const uint64_t chunk_end = active_chunk_start_ + options_.chunk_size;
  if (record_log_->tail() + need > chunk_end) {
    const size_t pad = static_cast<size_t>(chunk_end - record_log_->tail());
    if (pad > 0) {
      auto reserved = record_log_->AppendReserve(pad);
      if (!reserved.ok()) {
        return reserved.status();
      }
      std::memset(reserved.value().second, 0xFF, pad);
    }
    LOOM_RETURN_IF_ERROR(FinalizeChunk(now));
    active_chunk_start_ = chunk_end;
  }

  // Append the record.
  auto reserved = record_log_->AppendReserve(need);
  if (!reserved.ok()) {
    return reserved.status();
  }
  const uint64_t addr = reserved.value().first;
  RecordHeader header;
  header.source_id = src.id;
  header.payload_len = static_cast<uint32_t>(payload.size());
  header.ts = now;
  header.prev_addr = src.last_record_addr;
  header.EncodeTo(reserved.value().second);
  if (!payload.empty()) {
    std::memcpy(reserved.value().second + kRecordHeaderSize, payload.data(), payload.size());
  }
  src.last_record_addr = addr;
  ++src.record_count;
  m_.records_ingested->Increment();
  m_.bytes_ingested->Increment(payload.size());

  // Update the active chunk summary (presence + every index on the source).
  builder_.UpdatePresence(src.presence_slot, now);
  const size_t stage_cap = options_.summary_stage_records;
  if (stage_cap > 0) {
    // Staged path: buffer the extracted value and batch-classify later with
    // the vectorized kernel; bit-identical to the scalar path below because
    // per-(slot, bin) accumulation order still equals record order.
    for (IndexState* idx : src.indexes) {
      if (!idx->stage_listed) {
        idx->stage_listed = true;
        staged_indexes_.push_back(idx);
      }
      ++idx->stage_evaluated;
      std::optional<double> value = idx->func(payload);
      if (value.has_value()) {
        idx->stage_values.push_back(*value);
        idx->stage_ts.push_back(now);
        if (idx->stage_values.size() >= stage_cap) {
          FlushIndexStage(*idx);
        }
      }
    }
  } else {
    for (IndexState* idx : src.indexes) {
      builder_.NoteEvaluated(idx->builder_slot);
      std::optional<double> value = idx->func(payload);
      if (value.has_value()) {
        builder_.Update(idx->builder_slot, idx->spec.BinOf(*value), *value, now);
      }
    }
  }

  return MaybeWriteMarker(src, now, addr);
}

void Loom::FlushIndexStage(IndexState& idx) {
  if (idx.stage_evaluated > 0) {
    builder_.NoteEvaluatedBatch(idx.builder_slot, idx.stage_evaluated);
    idx.stage_evaluated = 0;
  }
  const size_t n = idx.stage_values.size();
  if (n == 0) {
    return;
  }
  if (stage_bins_.size() < n) {
    stage_bins_.resize(n);
  }
  idx.spec.ClassifyBatch(*kernels_, idx.stage_values.data(), n, stage_bins_.data());
  builder_.UpdateBatch(idx.builder_slot, stage_bins_.data(), idx.stage_values.data(),
                       idx.stage_ts.data(), n);
  idx.stage_values.clear();
  idx.stage_ts.clear();
}

void Loom::FlushSummaryStages() {
  for (IndexState* idx : staged_indexes_) {
    FlushIndexStage(*idx);
    idx->stage_listed = false;
  }
  staged_indexes_.clear();
}

Status Loom::FinalizeChunk(TimestampNanos now) {
  // Per chunk, not per record: a full timer here is cheap and finalize
  // latency is a leading probe-effect signal.
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.chunk_finalize_seconds : nullptr);
  FlushSummaryStages();
  m_.chunks_finalized->Increment();
  if (!options_.enable_chunk_index) {
    // Ablation: no summaries are kept, so there is nothing to seal.
    builder_.Finalize(active_chunk_start_, static_cast<uint32_t>(options_.chunk_size));
    return Status::Ok();
  }
  // Publish the record log first: once the sealing thread applies this event
  // it advances published_indexed_tail_ past the chunk, and §5.4 requires
  // every record byte below that watermark (the pad tail included) to be
  // reader-visible already.
  record_log_->Publish();
  m_.ingest_chunks_sealed->Increment();
  SealEvent ev;
  ev.kind = SealEvent::Kind::kChunk;
  // Detach (cheap state move) here; the expensive materialize + encode runs
  // on the sealing thread, off the record hot path.
  ev.pending = builder_.Detach(active_chunk_start_, static_cast<uint32_t>(options_.chunk_size));
  ev.ts = now;
  return EnqueueSealEvent(std::move(ev));
}

Status Loom::MaybeWriteMarker(SourceState& src, TimestampNanos ts, uint64_t record_addr) {
  if (!options_.enable_timestamp_index) {
    return Status::Ok();
  }
  ++src.records_since_marker;
  if (src.records_since_marker < options_.ts_marker_period && src.record_count != 1) {
    return Status::Ok();
  }
  src.records_since_marker = 0;
  // The sealing thread owns the ts log and the per-source marker chains.
  // Publish the record log before enqueueing: readers reached via a
  // published marker must find the record.
  record_log_->Publish();
  SealEvent ev;
  ev.kind = SealEvent::Kind::kMarker;
  ev.source_id = src.id;
  ev.record_addr = record_addr;
  ev.ts = ts;
  return EnqueueSealEvent(std::move(ev));
}

void Loom::PublishAll(SourceState& src) {
  // The sealing thread publishes the chunk/ts logs and advances
  // published_indexed_tail_ after each applied seal, in §5.4 order. Here
  // only the record log and the per-source chain head are published; the
  // indexed watermark lags until the seal lands, which readers already
  // tolerate (a sealing chunk is unindexed tail, scanned raw against the
  // record watermark).
  record_log_->Publish();
  if (!options_.enable_chunk_index) {
    // Ablation: no chunk seals ever flow through the pipeline, so the
    // watermark advances here.
    published_indexed_tail_.store(active_chunk_start_, std::memory_order_release);
  }
  src.published_last_record.store(src.last_record_addr, std::memory_order_release);
}

Status Loom::Sync(uint32_t source_id) {
  m_.sync_ops->Increment();
  ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.sync_seconds : nullptr);
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return Status::NotFound("source not defined");
  }
  DrainIngestPipeline();
  PublishAll(*it->second);
  if (pipeline_failed_.load(std::memory_order_relaxed)) {
    return PipelineStatus();
  }
  return Status::Ok();
}

// --- Ingest pipeline ---------------------------------------------------------

Status Loom::EnqueueSealEvent(SealEvent&& ev) {
  if (pipeline_failed_.load(std::memory_order_relaxed)) {
    return PipelineStatus();
  }
  // Backpressure: cap sealed-but-unapplied chunks at kFinalizeInflightChunks
  // and never spin-move into a full queue. Producer-side SizeApprox is exact,
  // and only the consumer shrinks it, so a free slot stays free.
  const bool is_chunk = ev.kind == SealEvent::Kind::kChunk;
  const auto must_wait = [&] {
    if (seal_queue_.SizeApprox() >= seal_queue_.capacity()) {
      return true;
    }
    return is_chunk && chunks_sealed_.load(std::memory_order_relaxed) -
                               chunks_finalize_applied_.load(std::memory_order_acquire) >=
                           kFinalizeInflightChunks;
  };
  if (must_wait()) {
    const uint64_t t0 = MetricsNowNanos();
    while (must_wait() && !pipeline_failed_.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    m_.ingest_finalize_stall->Add(static_cast<double>(MetricsNowNanos() - t0) * 1e-9);
    if (pipeline_failed_.load(std::memory_order_relaxed)) {
      return PipelineStatus();
    }
  }
  // Counters bump before the push so applied counts never pass enqueued.
  if (is_chunk) {
    chunks_sealed_.fetch_add(1, std::memory_order_relaxed);
  }
  events_enqueued_.fetch_add(1, std::memory_order_relaxed);
  const bool pushed = seal_queue_.TryPush(std::move(ev));
  (void)pushed;
  assert(pushed);
  return Status::Ok();
}

void Loom::SealerMain() {
  std::vector<uint8_t> encode_buf;
  // Marker chain heads per source; only this thread touches them.
  std::unordered_map<uint32_t, uint64_t> marker_chains;
  for (;;) {
    std::optional<SealEvent> ev = seal_queue_.TryPop();
    if (!ev.has_value()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    if (ev->kind == SealEvent::Kind::kStop) {
      return;
    }
    Status st = Status::Ok();
    if (ev->kind == SealEvent::Kind::kChunk) {
      ScopedLatencyTimer timer(options_.enable_latency_metrics ? m_.ingest_finalize_seconds
                                                               : nullptr);
      ChunkSummary summary = ChunkSummaryBuilder::Materialize(std::move(ev->pending));
      encode_buf.clear();
      encode_buf.reserve(4 + summary.EncodedSize());
      PutU32(encode_buf, static_cast<uint32_t>(summary.EncodedSize()));
      summary.EncodeTo(encode_buf);
      if (!pipeline_failed_.load(std::memory_order_relaxed)) {
        st = ApplyChunkSeal(summary, ev->ts, encode_buf);
      }
    } else if (!pipeline_failed_.load(std::memory_order_relaxed)) {
      st = ApplyMarker(*ev, marker_chains);
    }
    if (!st.ok()) {
      Status annotated(st.code(), "sealing thread: " + std::string(st.message()));
      std::lock_guard<std::mutex> lock(pipeline_mu_);
      if (pipeline_status_.ok()) {
        pipeline_status_ = std::move(annotated);
      }
      pipeline_failed_.store(true, std::memory_order_release);
    }
    // Applied even on error or skip (the event is consumed either way) so
    // drains and the lag gauge terminate.
    if (ev->kind == SealEvent::Kind::kChunk) {
      chunks_finalize_applied_.fetch_add(1, std::memory_order_release);
    }
    events_applied_.fetch_add(1, std::memory_order_release);
  }
}

Status Loom::ApplyChunkSeal(const ChunkSummary& summary, TimestampNanos ts,
                            const std::vector<uint8_t>& buf) {
  const uint64_t chunk_end = summary.chunk_addr + summary.chunk_len;
  auto addr = chunk_log_->Append(std::span<const uint8_t>(buf.data(), buf.size()));
  if (!addr.ok()) {
    return addr.status();
  }
  // §5.4 apply order: the chunk frame becomes readable, then its ts-index
  // event, then the indexed watermark passes the chunk. The record bytes
  // below chunk_end were published before the seal was enqueued.
  chunk_log_->Publish();
  if (options_.enable_timestamp_index) {
    auto event = ts_writer_.AppendChunkEvent(ts, addr.value());
    if (!event.ok()) {
      return event.status();
    }
    m_.ts_entries->Increment();
    ts_log_->Publish();
  }
  published_indexed_tail_.store(chunk_end, std::memory_order_release);
  if (standing_ != nullptr) {
    // Seals arrive here in seal order, and the record bytes below chunk_end
    // were published before the event was enqueued — exactly the ordering
    // OnChunkSealed requires.
    standing_->OnChunkSealed(summary, ts);
  }
  return Status::Ok();
}

Status Loom::ApplyMarker(const SealEvent& ev, std::unordered_map<uint32_t, uint64_t>& chains) {
  auto it = chains.try_emplace(ev.source_id, kNullAddr).first;
  auto marker = ts_writer_.AppendRecordMarker(ev.source_id, ev.ts, ev.record_addr, it->second);
  if (!marker.ok()) {
    return marker.status();
  }
  it->second = marker.value();
  m_.ts_entries->Increment();
  ts_log_->Publish();
  return Status::Ok();
}

void Loom::DrainIngestPipeline() {
  while (events_applied_.load(std::memory_order_acquire) <
         events_enqueued_.load(std::memory_order_relaxed)) {
    std::this_thread::yield();
  }
}

void Loom::StopIngestPipeline() {
  if (!sealer_.joinable()) {
    return;
  }
  DrainIngestPipeline();
  for (;;) {
    SealEvent stop;
    stop.kind = SealEvent::Kind::kStop;
    if (seal_queue_.TryPush(std::move(stop))) {
      break;
    }
    std::this_thread::yield();
  }
  sealer_.join();
}

Status Loom::PipelineStatus() const {
  std::lock_guard<std::mutex> lock(pipeline_mu_);
  return pipeline_status_;
}

// --- Snapshots and lookups ----------------------------------------------------

Loom::Snapshot Loom::TakeSnapshot(const SourceState* src) const {
  Snapshot snap;
  if (src != nullptr) {
    snap.source_tail = src->published_last_record.load(std::memory_order_acquire);
  }
  snap.indexed_tail = published_indexed_tail_.load(std::memory_order_acquire);
  snap.ts_tail = ts_log_->queryable_tail();
  snap.chunk_tail = chunk_log_->queryable_tail();
  snap.record_tail = record_log_->queryable_tail();
  return snap;
}

const Loom::SourceState* Loom::FindSource(uint32_t source_id) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = sources_.find(source_id);
  if (it == sources_.end()) {
    return nullptr;
  }
  return it->second.get();
}

Result<Loom::IndexSnapshot> Loom::GetIndexSnapshot(uint32_t index_id) const {
  std::lock_guard<std::mutex> lock(schema_mu_);
  auto it = index_snapshots_.find(index_id);
  if (it == index_snapshots_.end()) {
    return Status::NotFound("index not defined");
  }
  return it->second;
}

// --- Standing queries --------------------------------------------------------

Status Loom::UnregisterStandingQuery(uint64_t query_id) {
  if (standing_ == nullptr) {
    return Status::FailedPrecondition("standing queries require enable_chunk_index");
  }
  return standing_->Unregister(query_id);
}

Result<uint64_t> Loom::RegisterStandingQuery(const StandingQuerySpec& spec) {
  if (standing_ == nullptr) {
    return Status::FailedPrecondition("standing queries require enable_chunk_index");
  }
  auto idx = GetIndexSnapshot(spec.index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  if (idx.value().source_id != spec.source_id) {
    return Status::InvalidArgument("index does not cover the requested source");
  }
  return standing_->Register(spec, idx.value().func, idx.value().spec);
}

std::shared_ptr<StandingSubscription> Loom::SubscribeStanding(uint64_t query_id,
                                                              size_t capacity) {
  if (standing_ == nullptr) {
    return nullptr;
  }
  return standing_->Subscribe(query_id, capacity);
}

// --- Scan helpers ---------------------------------------------------------------

Status Loom::ScanRecordRange(uint64_t from, uint64_t to,
                             const std::function<bool(const RecordView&)>& fn,
                             QueryTrace* trace) const {
  return ScanRecordRangeInternal(from, to, /*filtered=*/false, 0, TimeRange{}, {}, fn, trace);
}

Status Loom::ScanRecordRangeFor(uint64_t from, uint64_t to, uint32_t source_id,
                                TimeRange t_range, std::span<const uint8_t> preloaded,
                                const std::function<bool(const RecordView&)>& fn,
                                QueryTrace* trace) const {
  return ScanRecordRangeInternal(from, to, /*filtered=*/true, source_id, t_range, preloaded, fn,
                                 trace);
}

Status Loom::ScanRecordRangeInternal(uint64_t from, uint64_t to, bool filtered,
                                     uint32_t source_id, TimeRange t_range,
                                     std::span<const uint8_t> preloaded,
                                     const std::function<bool(const RecordView&)>& fn,
                                     QueryTrace* trace) const {
  // Data below the retention floor is gone; scan the retained suffix. Chunk
  // alignment survives because the floor advances in block multiples and
  // blocks are chunk-aligned.
  uint64_t seen_floor = record_log_->retained_floor();
  const uint64_t preload_base = from;  // `preloaded`, when present, starts here
  from = std::max(from, seen_floor);
  if (from >= to) {
    return Status::Ok();
  }
  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  // When the prefetched buffer covers the whole range the reader is never
  // constructed (candidate chunk scans on a ring hit take this path).
  std::optional<CachedLogReader> reader;
  const uint64_t chunk_size = options_.chunk_size;
  uint64_t addr = from;
  // Retention can advance mid-query: past the scan position, or merely past
  // the start of the reader's aligned window while `addr` itself is still
  // retained. The reclaimed data is gone either way, so whenever the floor
  // moved, retry the fetch — skipping to the new floor (block-aligned, hence
  // chunk-aligned) if it passed `addr`, re-clamping the window otherwise —
  // instead of failing the query. A floor that did not move means the
  // OutOfRange is real and propagates.
  const auto reclaimed_mid_scan = [&](const Status& st) {
    if (st.code() != StatusCode::kOutOfRange) {
      return false;
    }
    const uint64_t new_floor = record_log_->retained_floor();
    if (new_floor <= seen_floor) {
      return false;
    }
    seen_floor = new_floor;
    addr = std::max(addr, new_floor);
    return true;
  };
  DecodedBatch batch;
  std::vector<uint64_t> mask;
  bool done = false;
  while (!done && addr + kRecordHeaderSize <= to) {
    const uint64_t chunk_end = std::min<uint64_t>(to, addr - (addr % chunk_size) + chunk_size);
    if (chunk_end - addr < kRecordHeaderSize) {
      addr = chunk_end;
      continue;
    }
    const size_t span_len = static_cast<size_t>(chunk_end - addr);
    const uint8_t* buf = nullptr;
    if (!preloaded.empty() && addr >= preload_base &&
        (addr - preload_base) + span_len <= preloaded.size()) {
      buf = preloaded.data() + (addr - preload_base);
    } else {
      if (!reader.has_value()) {
        reader.emplace(record_log_.get(), to, kScanWindow);
      }
      auto span = reader->Fetch(addr, span_len);
      if (!span.ok()) {
        if (reclaimed_mid_scan(span.status())) {
          continue;
        }
        return span.status();
      }
      buf = span.value().data();
    }
    // Batch-decode the span, vector-filter, then emit strictly in log order
    // with per-record accounting — an early stop mid-batch leaves the trace
    // exactly where the per-record walk would have left it.
    batch.Clear();
    const size_t consumed = kernels_->decode_records(buf, span_len, addr, chunk_size, &batch);
    const size_t n = batch.size();
    if (filtered && n > 0) {
      mask.assign(MaskWords(n), 0);
      kernels_->filter_source_time(batch.source_ids.data(), batch.timestamps.data(), n,
                                   source_id, t_range.start, t_range.end, mask.data());
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t plen = batch.payload_lens[i];
      ++trace->records_examined;
      trace->bytes_read += kRecordHeaderSize + plen;
      if (filtered && ((mask[i >> 6] >> (i & 63)) & 1) == 0) {
        continue;
      }
      RecordView view;
      view.source_id = batch.source_ids[i];
      view.ts = batch.timestamps[i];
      view.addr = batch.addrs[i];
      view.payload = std::span<const uint8_t>(
          buf + (batch.addrs[i] - addr) + kRecordHeaderSize, plen);
      if (!fn(view)) {
        done = true;
        break;
      }
    }
    if (consumed < span_len) {
      // The span ends inside a record: the snapshot boundary cut it off
      // (records never span chunks, so a mid-log truncation cannot happen on
      // writer-produced data). The per-record walk stopped here too.
      break;
    }
    addr += consumed;
  }
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return Status::Ok();
}

std::unique_ptr<ChunkPrefetcher::Job> Loom::SubmitCandidatePrefetch(const CandidatePlan& plan,
                                                                    const Snapshot& snap) const {
  if (options_.prefetch_depth == 0 || plan.use_preloaded || plan.addrs.size() < 2) {
    return nullptr;
  }
  // Frame layout: u32 length | ChunkSummary body, whose first field is the
  // u64 chunk_addr — one tiny read pins the whole candidate range, because
  // chunk events are appended once per finalized chunk in log order, making
  // candidate record chunks consecutive chunk_size-strided spans.
  uint8_t addr_buf[8];
  if (!chunk_log_->Read(plan.addrs[0] + 4, std::span<uint8_t>(addr_buf, 8)).ok()) {
    return nullptr;
  }
  const uint64_t chunk0 = LoadU64(addr_buf);
  const uint64_t chunk_size = options_.chunk_size;
  std::vector<ChunkPrefetcher::Range> ranges;
  ranges.reserve(plan.addrs.size());
  for (size_t c = 0; c < plan.addrs.size(); ++c) {
    const uint64_t start = chunk0 + c * chunk_size;
    const uint64_t end = std::min<uint64_t>(start + chunk_size, snap.record_tail);
    if (start >= end) {
      return nullptr;  // derivation ran past the snapshot: don't prefetch
    }
    ranges.push_back({start, static_cast<uint32_t>(end - start)});
  }
  return prefetcher_.Submit(record_log_.get(), std::move(ranges), options_.prefetch_depth);
}

Loom::SummaryLoader::SummaryLoader(const Loom& loom, const CandidatePlan& plan,
                                   const Snapshot& snap, size_t begin, size_t end)
    : loom_(loom),
      plan_(plan),
      snap_(snap),
      end_(end),
      insert_(loom.summary_cache_ != nullptr && !plan.use_preloaded && !plan.addrs.empty() &&
              plan.addrs.back() - plan.addrs.front() <= loom.summary_cache_->capacity_bytes()),
      batch_begin_(begin) {}

Result<std::shared_ptr<const ChunkSummary>> Loom::SummaryLoader::Get(size_t c,
                                                                     QueryTrace* trace) {
  if (plan_.use_preloaded) {
    return plan_.preloaded[c];
  }
  if (c < batch_begin_ || c >= batch_begin_ + slots_.size()) {
    Fill(c, trace);
  }
  Slot& slot = slots_[c - batch_begin_];
  if (!slot.status.ok()) {
    return slot.status;
  }
  return slot.summary;
}

void Loom::SummaryLoader::Fill(size_t c, QueryTrace* trace) {
  const uint64_t t0 = trace->detailed ? MetricsNowNanos() : 0;
  const std::vector<uint64_t>& addrs = plan_.addrs;
  const uint64_t chunk_tail = snap_.chunk_tail;
  // The batch is `c` plus every following candidate whose frame provably
  // ends within one buffer of c's frame start. Frames are appended back to
  // back in candidate order, so the next candidate's address bounds a
  // frame's end; the plan's last frame is bounded by its length prefix.
  const uint64_t window_end = addrs[c] + kSummaryBatchBytes;
  size_t e = c + 1;
  while (e < end_ && (e + 1 < addrs.size() ? addrs[e + 1] : addrs[e] + 4) <= window_end) {
    ++e;
  }
  batch_begin_ = c;
  slots_.assign(e - c, Slot{});
  SummaryCache* cache = loom_.summary_cache_.get();
  for (size_t j = c; j < e; ++j) {
    if (addrs[j] + 4 > chunk_tail) {
      slots_[j - c].status = Status::OutOfRange("summary past snapshot");
      continue;
    }
    if (cache != nullptr) {
      uint32_t frame_len = 0;
      auto hit = cache->Lookup(addrs[j], &frame_len);
      // Frames are appended whole before the publish fence, so a snapshot
      // tail always sits at a frame boundary; the length check alone bounds
      // the hit to this query's snapshot.
      if (hit != nullptr && addrs[j] + 4 + frame_len <= chunk_tail) {
        slots_[j - c].summary = std::move(hit);
        ++trace->cache_hits;
        continue;
      }
    }
    ++trace->cache_misses;
  }
  // A missed slot is one the probe left empty and error-free.
  auto missed = [&](size_t j) {
    const Slot& slot = slots_[j - c];
    return slot.summary == nullptr && slot.status.ok();
  };
  for (size_t r0 = c; r0 < e;) {
    if (!missed(r0)) {
      ++r0;
      continue;
    }
    size_t r1 = r0 + 1;
    while (r1 < e && missed(r1)) {
      ++r1;
    }
    LoadRun(r0, r1, trace);
    r0 = r1;
  }
  if (trace->detailed) {
    trace->summary_nanos += MetricsNowNanos() - t0;
  }
}

void Loom::SummaryLoader::LoadRun(size_t r0, size_t r1, QueryTrace* trace) {
  const std::vector<uint64_t>& addrs = plan_.addrs;
  const uint64_t lo = addrs[r0];
  uint64_t hi;
  if (r1 < addrs.size()) {
    hi = addrs[r1];
  } else {
    // The plan's last frame: twice its predecessor's stride predicts its
    // end (summaries of one query are alike in size); a frame reaching
    // further is read on its own.
    const uint64_t stride = r1 >= 2 ? addrs[r1 - 1] - addrs[r1 - 2] : 0;
    hi = addrs[r1 - 1] + 4 + 2 * stride;
  }
  hi = std::min({hi, lo + kSummaryBatchBytes, snap_.chunk_tail});
  if (hi > lo) {
    const size_t need = static_cast<size_t>(hi - lo);
    if (need > buf_cap_) {
      buf_cap_ = std::max(need, std::min(2 * buf_cap_, kSummaryBatchBytes));
      buf_.reset(new uint8_t[buf_cap_]);
    }
    ++trace->summary_reads;
    const Status st = loom_.chunk_log_->Read(lo, std::span<uint8_t>(buf_.get(), need));
    if (!st.ok()) {
      for (size_t j = r0; j < r1; ++j) {
        slots_[j - batch_begin_].status = st;
      }
      return;
    }
  }
  uint64_t decoded = 0;
  for (size_t j = r0; j < r1; ++j) {
    auto summary = DecodeFrame(addrs[j], lo, hi, trace);
    if (!summary.ok()) {
      slots_[j - batch_begin_].status = summary.status();
      continue;
    }
    ++decoded;
    slots_[j - batch_begin_].summary = std::move(summary.value());
  }
  if (!insert_ && loom_.summary_cache_ != nullptr && decoded > 0) {
    loom_.summary_cache_->NoteBypassed(decoded);
  }
}

Result<std::shared_ptr<const ChunkSummary>> Loom::SummaryLoader::DecodeFrame(uint64_t addr,
                                                                             uint64_t lo,
                                                                             uint64_t hi,
                                                                             QueryTrace* trace) {
  const HybridLog& log = *loom_.chunk_log_;
  uint32_t len;
  if (addr >= lo && addr + 4 <= hi) {
    len = LoadU32(buf_.get() + (addr - lo));
  } else {
    uint8_t len_buf[4];
    ++trace->summary_reads;
    LOOM_RETURN_IF_ERROR(log.Read(addr, std::span<uint8_t>(len_buf, 4)));
    len = LoadU32(len_buf);
  }
  if (len == 0xFFFFFFFFu || addr + 4 + len > snap_.chunk_tail) {
    return Status::DataLoss("corrupt chunk summary frame");
  }
  std::span<const uint8_t> body;
  if (addr >= lo && addr + 4 + len <= hi) {
    body = std::span<const uint8_t>(buf_.get() + (addr + 4 - lo), len);
  } else {
    frame_.resize(len);
    ++trace->summary_reads;
    LOOM_RETURN_IF_ERROR(log.Read(addr + 4, std::span<uint8_t>(frame_.data(), len)));
    body = std::span<const uint8_t>(frame_.data(), len);
  }
  auto decoded = ChunkSummary::Decode(body);
  if (!decoded.ok()) {
    return decoded.status();
  }
  auto summary = std::make_shared<const ChunkSummary>(std::move(decoded.value()));
  if (insert_) {
    loom_.summary_cache_->Insert(addr, len, summary);
  }
  return summary;
}

void Loom::MaybeInvalidateCacheForRetention(uint64_t floor) const {
  if (summary_cache_ == nullptr || floor == 0) {
    return;
  }
  uint64_t seen = cache_invalidated_floor_.load(std::memory_order_relaxed);
  while (floor > seen) {
    if (cache_invalidated_floor_.compare_exchange_weak(seen, floor,
                                                       std::memory_order_relaxed)) {
      summary_cache_->InvalidateBelowRecordFloor(floor);
      return;
    }
  }
}

// --- Tiered storage -------------------------------------------------------------

Status Loom::InitTiering() {
  auto catalog = ArchiveCatalog::Open(options_.archive_dir, m_.tier_quarantined);
  if (!catalog.ok()) {
    return catalog.status();
  }
  catalog_ = std::move(catalog.value());
  // Nothing may be dropped before it is archived: pin the retention barrier
  // at 0 before ingest can advance the floor. Demotion moves it forward past
  // each durable archive, turning retention from deletion into demotion.
  record_log_->SetRetentionBarrier(0);
  {
    Gauge* archives = metrics_->AddGauge("loom_tier_archives");
    Gauge* archived_chunks = metrics_->AddGauge("loom_tier_archived_chunks");
    Gauge* archived_bytes = metrics_->AddGauge("loom_tier_archived_bytes");
    Gauge* barrier = metrics_->AddGauge("loom_tier_retention_barrier_bytes");
    ArchiveCatalog* cat = catalog_.get();
    HybridLog* rec = record_log_.get();
    tier_hook_id_ = metrics_->AddCollectionHook(
        [cat, rec, archives, archived_chunks, archived_bytes, barrier] {
          archives->Set(static_cast<double>(cat->archive_count()));
          archived_chunks->Set(static_cast<double>(cat->total_blocks()));
          archived_bytes->Set(static_cast<double>(cat->total_bytes()));
          const uint64_t b = rec->retention_barrier();
          barrier->Set(b == kNullAddr ? 0.0 : static_cast<double>(b));
        });
  }
  if (options_.demote_interval_ms > 0) {
    demoter_ = std::thread([this] { DemoterMain(); });
  }
  return Status::Ok();
}

void Loom::DemoterMain() {
  std::unique_lock<std::mutex> lock(demote_mu_);
  while (!demote_stop_.load(std::memory_order_relaxed)) {
    demote_cv_.wait_for(lock, std::chrono::milliseconds(options_.demote_interval_ms), [this] {
      return demote_stop_.load(std::memory_order_relaxed);
    });
    if (demote_stop_.load(std::memory_order_relaxed)) {
      break;
    }
    const bool timed = options_.enable_latency_metrics;
    const uint64_t t0 = timed ? MetricsNowNanos() : 0;
    if (!DemoteOnce().ok()) {
      // Sticky failures would wedge tiering forever; the cursor did not
      // advance, so the next pass simply retries the same chunks.
      m_.tier_demote_failures->Increment();
    }
    if (timed) {
      m_.tier_demote_seconds->ObserveNanos(MetricsNowNanos() - t0);
    }
  }
}

Status Loom::DemoteNow() {
  if (catalog_ == nullptr) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(demote_mu_);
  const bool timed = options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Status st = DemoteOnce();
  if (!st.ok()) {
    m_.tier_demote_failures->Increment();
  }
  if (timed) {
    m_.tier_demote_seconds->ObserveNanos(MetricsNowNanos() - t0);
  }
  return st;
}

size_t Loom::ArchiveCount() const {
  return catalog_ != nullptr ? catalog_->archive_count() : 0;
}

Status Loom::DemoteOnce() {
  // Candidate window: chunks wholly below both the desired retention floor
  // (what retention would drop if the barrier let it) and the indexed
  // watermark (a candidate needs its finalized summary as the zone map).
  const uint64_t desired = record_log_->DesiredRetentionFloor();
  const uint64_t indexed = published_indexed_tail_.load(std::memory_order_acquire);
  const uint64_t limit = std::min(desired, indexed);
  const uint64_t barrier = record_log_->retention_barrier();
  if (limit == 0 || (barrier != kNullAddr && barrier >= limit)) {
    return Status::Ok();  // nothing new below the floor
  }

  // Walk chunk-log frames from the cursor, decoding summaries until one
  // reaches past the demotion limit or the batch fills. Frames are appended
  // in chunk-address order, so the walk and the record log stay in step.
  struct Demotable {
    ChunkSummary summary;
    uint64_t frame_end = 0;  // chunk-log address just past this frame
  };
  std::vector<Demotable> batch;
  const uint64_t chunk_tail = chunk_log_->queryable_tail();
  CachedLogReader reader(chunk_log_.get(), chunk_tail, kScanWindow);
  const size_t bs = chunk_log_->block_size();
  uint64_t addr = demote_cursor_;
  while (batch.size() < options_.demote_batch_chunks && addr + 4 <= chunk_tail) {
    auto len_bytes = reader.Fetch(addr, 4);
    if (!len_bytes.ok()) {
      return len_bytes.status();
    }
    const uint32_t len = LoadU32(len_bytes.value().data());
    if (len == 0xFFFFFFFFu) {
      addr = addr - (addr % bs) + bs;  // block padding
      continue;
    }
    if (addr + 4 + len > chunk_tail) {
      break;
    }
    auto body = reader.Fetch(addr + 4, len);
    if (!body.ok()) {
      return body.status();
    }
    auto summary = ChunkSummary::Decode(body.value());
    if (!summary.ok()) {
      return summary.status();
    }
    if (summary.value().chunk_addr + summary.value().chunk_len > limit) {
      break;
    }
    addr += 4 + len;
    batch.push_back({std::move(summary.value()), addr});
  }
  if (batch.empty()) {
    return Status::Ok();
  }

  // Stage the archive under a ".tmp" name; one block per demoted chunk, the
  // chunk's summary as its zone map, with the record-address column so
  // queries reproduce hot-log RecordViews bit for bit.
  char name[64];
  std::snprintf(name, sizeof(name), "tier-%016llx.loomarc",
                static_cast<unsigned long long>(batch.front().summary.chunk_addr));
  const std::string path = catalog_->dir() + "/" + name;
  auto writer = ArchiveWriter::Create(path);
  if (!writer.ok()) {
    return writer.status();
  }
  uint64_t demoted_records = 0;
  uint64_t demoted_bytes = 0;
  size_t blocks_appended = 0;
  QueryTrace scratch;  // demotion reads stay out of the query metrics
  std::vector<uint8_t> backing;
  struct RecMeta {
    uint32_t source_id;
    TimestampNanos ts;
    uint64_t addr;
    size_t offset;
    size_t len;
  };
  std::vector<RecMeta> metas;
  std::vector<ArchiveRecord> records;
  for (const Demotable& d : batch) {
    const ChunkSummary& s = d.summary;
    backing.clear();
    metas.clear();
    // Payloads are copied out of the scan window first (the span a callback
    // sees dies with the next fetch); spans are rebuilt once `backing` has
    // its final size.
    LOOM_RETURN_IF_ERROR(ScanRecordRange(
        s.chunk_addr, s.chunk_addr + s.chunk_len,
        [&](const RecordView& view) -> bool {
          metas.push_back(
              {view.source_id, view.ts, view.addr, backing.size(), view.payload.size()});
          backing.insert(backing.end(), view.payload.begin(), view.payload.end());
          return true;
        },
        &scratch));
    if (metas.empty()) {
      continue;  // padding-only chunk: nothing to archive
    }
    records.clear();
    records.reserve(metas.size());
    for (const RecMeta& m : metas) {
      records.push_back(
          {m.source_id, m.ts, m.addr, std::span<const uint8_t>(backing.data() + m.offset, m.len)});
    }
    LOOM_RETURN_IF_ERROR(writer.value().AppendBlock(records, /*with_addrs=*/true, &s));
    ++blocks_appended;
    demoted_records += metas.size();
    demoted_bytes += s.chunk_len;
  }
  if (blocks_appended > 0) {
    // Seal + durable rename, then serve it, and only then let retention
    // reclaim the hot copies: a crash anywhere in between loses no data.
    LOOM_RETURN_IF_ERROR(writer.value().Finish().status());
    LOOM_RETURN_IF_ERROR(catalog_->Register(path));
  } else {
    writer.value().Abort();  // all-padding batch: no archive needed
  }
  record_log_->SetRetentionBarrier(batch.back().summary.chunk_addr +
                                   batch.back().summary.chunk_len);
  record_log_->ApplyRetention();
  demote_cursor_ = batch.back().frame_end;
  m_.tier_demoted_chunks->Increment(blocks_appended);
  m_.tier_demoted_records->Increment(demoted_records);
  m_.tier_demoted_bytes->Increment(demoted_bytes);
  return Status::Ok();
}

std::vector<Loom::ArchiveCandidate> Loom::PlanArchiveCandidates(uint64_t floor,
                                                                TimeRange t_range,
                                                                QueryTrace* trace) const {
  std::vector<ArchiveCandidate> out;
  if (catalog_ == nullptr || floor == 0) {
    return out;
  }
  for (const std::shared_ptr<const ArchiveReader>& reader : catalog_->Snapshot()) {
    ++trace->tier_archives_consulted;
    for (size_t b = 0; b < reader->block_count(); ++b) {
      const ChunkSummary& s = reader->block(b).summary;
      if (s.chunk_addr + s.chunk_len > floor) {
        continue;  // chunk still hot at plan time: the hot tier serves it
      }
      if (s.max_ts < t_range.start || s.min_ts > t_range.end) {
        continue;  // time-disjoint, mirroring LoadCandidate's filter
      }
      out.push_back({reader, b, &s});
    }
  }
  return out;
}

Status Loom::ScanArchiveBlockFor(const ArchiveCandidate& cand, uint32_t source_id,
                                 TimeRange t_range,
                                 const std::function<bool(const RecordView&)>& fn,
                                 QueryTrace* trace) const {
  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  uint64_t bytes = 0;
  Status st = cand.reader->ScanBlock(
      cand.block,
      [&](const ArchiveRecord& rec) -> bool {
        ++trace->records_examined;
        if (rec.source_id != source_id || !t_range.Contains(rec.ts)) {
          return true;
        }
        RecordView view;
        view.source_id = rec.source_id;
        view.ts = rec.ts;
        view.addr = rec.addr;
        view.payload = rec.payload;
        return fn(view);
      },
      &bytes);
  trace->bytes_read += bytes;
  trace->tier_bytes_read += bytes;
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return st;
}

Status Loom::RawScanArchiveTier(uint32_t source_id, TimeRange t_range,
                                const RecordCallback& cb, QueryTrace* trace) const {
  if (catalog_ == nullptr) {
    return Status::Ok();
  }
  const std::vector<ArchiveCandidate> archived =
      PlanArchiveCandidates(record_log_->retained_floor(), t_range, trace);
  for (size_t i = archived.size(); i-- > 0;) {
    const ArchiveCandidate& a = archived[i];
    ++trace->chunks_considered;
    ++trace->tier_chunks_considered;
    const ZoneFacts f = CollectZoneFacts(*a.summary, source_id, kPresenceIndexId, 1, 0);
    if (!f.has_presence || f.max_ts < t_range.start || f.min_ts > t_range.end) {
      ++trace->chunks_pruned;
      ++trace->tier_chunks_pruned;
      continue;
    }
    ++trace->chunks_scanned;
    ++trace->tier_chunks_scanned;
    // Blocks decode oldest-first; buffer one block's matches (bounded by a
    // chunk) and emit them reversed.
    std::vector<ChunkOutcome::Match> buffered;
    LOOM_RETURN_IF_ERROR(ScanArchiveBlockFor(
        a, source_id, t_range,
        [&](const RecordView& view) -> bool {
          ChunkOutcome::Match m;
          m.ts = view.ts;
          m.addr = view.addr;
          m.payload.assign(view.payload.begin(), view.payload.end());
          buffered.push_back(std::move(m));
          return true;
        },
        trace));
    for (size_t r = buffered.size(); r-- > 0;) {
      RecordView view;
      view.source_id = source_id;
      view.ts = buffered[r].ts;
      view.addr = buffered[r].addr;
      view.payload = std::span<const uint8_t>(buffered[r].payload);
      ++trace->records_matched;
      if (!cb(view)) {
        return Status::Ok();
      }
    }
  }
  return Status::Ok();
}

Status Loom::PlanCandidates(const Snapshot& snap, TimeRange t_range, CandidatePlan* plan,
                            QueryTrace* trace) const {
  plan->addrs.clear();
  plan->preloaded.clear();
  plan->use_preloaded = false;
  if (!options_.enable_chunk_index || snap.chunk_tail == 0) {
    return Status::Ok();
  }
  const PlanTimer plan_timer(trace);
  // Chunks below the retention floor no longer have data; skip their
  // summaries. When the floor advanced since the last query, reclaim the
  // cached summaries of dropped chunks (query-thread work — ingest never
  // touches the cache). Workers re-check the floor per candidate, so the
  // plan itself only needs it for the ablation sweep below.
  const uint64_t floor = record_log_->retained_floor();
  MaybeInvalidateCacheForRetention(floor);

  if (!options_.enable_timestamp_index) {
    // Ablation mode: no time index, so scan the whole chunk index log
    // sequentially and filter by timestamp range (still skips record data).
    plan->use_preloaded = true;
    CachedLogReader reader(chunk_log_.get(), snap.chunk_tail, kScanWindow);
    const size_t bs = chunk_log_->block_size();
    uint64_t addr = 0;
    while (addr + 4 <= snap.chunk_tail) {
      auto len_bytes = reader.Fetch(addr, 4);
      if (!len_bytes.ok()) {
        return len_bytes.status();
      }
      const uint32_t len = LoadU32(len_bytes.value().data());
      if (len == 0xFFFFFFFFu) {
        addr = addr - (addr % bs) + bs;  // block padding
        continue;
      }
      if (addr + 4 + len > snap.chunk_tail) {
        break;
      }
      auto body = reader.Fetch(addr + 4, len);
      if (!body.ok()) {
        return body.status();
      }
      auto summary = ChunkSummary::Decode(body.value());
      if (!summary.ok()) {
        return summary.status();
      }
      const ChunkSummary& s = summary.value();
      if (s.chunk_addr >= floor && s.chunk_addr + s.chunk_len <= snap.indexed_tail &&
          s.max_ts >= t_range.start && s.min_ts <= t_range.end) {
        plan->preloaded.push_back(std::make_shared<const ChunkSummary>(std::move(summary.value())));
      }
      addr += 4 + len;
    }
    return Status::Ok();
  }

  TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
  const uint64_t n = tsr.num_entries();
  if (n == 0) {
    return Status::Ok();
  }

  // The plan deliberately reads no summaries: it derives the candidate set
  // purely from timestamp-index entries, so the expensive summary
  // load + decode runs per candidate on the executor (possibly fanned out
  // across pool workers).
  //
  // Upper bound: binary search to the first entry after t_range.end, then a
  // bounded forward scan for the next chunk event — the chunk containing
  // t_range.end is finalized after it, and chunks are time-ordered and
  // non-overlapping, so that event (inclusive) bounds the candidate set. No
  // chunk event within the cap (or no entry past the range) means every
  // chunk event up to the snapshot tail stays in play.
  //
  // One windowed reader serves the bounded scan and the collection sweep:
  // timestamp entries are 32 bytes, so per-entry HybridLog::Read calls would
  // pay the snapshot-validation protocol ~2000x per window.
  CachedLogReader ts_reader(ts_log_.get(), snap.ts_tail, kScanWindow);
  uint64_t hi = n;  // exclusive entry-index bound
  auto pos = tsr.FirstEntryAfter(t_range.end);
  if (!pos.ok()) {
    return pos.status();
  }
  if (pos.value().has_value()) {
    const uint64_t cap = std::min<uint64_t>(n, *pos.value() + kChunkEventScanCap);
    for (uint64_t i = *pos.value(); i < cap; ++i) {
      auto bytes = ts_reader.Fetch(i * TimestampIndexEntry::kEncodedSize,
                                   TimestampIndexEntry::kEncodedSize);
      if (!bytes.ok()) {
        return bytes.status();
      }
      if (TimestampIndexEntry::Decode(bytes.value().data()).kind ==
          TimestampIndexEntry::Kind::kChunk) {
        hi = i + 1;
        break;
      }
    }
  }
  // Lower bound: a chunk event's stamp is the finalize-time arrival clock,
  // which is >= the chunk's max record timestamp (entries are written in
  // monotone timestamp order), so chunk events before the first entry at or
  // after t_range.start can only reference chunks entirely before the range
  // — exactly the chunks the old backward chain walk stopped at.
  uint64_t lo = 0;
  if (t_range.start > 0) {
    auto lower = tsr.FirstEntryAfter(t_range.start - 1);
    if (!lower.ok()) {
      return lower.status();
    }
    if (!lower.value().has_value()) {
      return Status::Ok();  // every entry is before the range
    }
    lo = *lower.value();
  }
  // Forward sweep [lo, hi): chunk-event targets are the summary addresses,
  // already oldest-first.
  for (uint64_t i = lo; i < hi; ++i) {
    auto bytes = ts_reader.Fetch(i * TimestampIndexEntry::kEncodedSize,
                                 TimestampIndexEntry::kEncodedSize);
    if (!bytes.ok()) {
      return bytes.status();
    }
    const TimestampIndexEntry e = TimestampIndexEntry::Decode(bytes.value().data());
    if (e.kind == TimestampIndexEntry::Kind::kChunk) {
      plan->addrs.push_back(e.target_addr);
    }
  }
  return Status::Ok();
}

Result<std::shared_ptr<const ChunkSummary>> Loom::LoadCandidate(SummaryLoader& summaries,
                                                                size_t c, TimeRange t_range,
                                                                QueryTrace* trace) const {
  auto loaded = summaries.Get(c, trace);
  if (!loaded.ok()) {
    return loaded.status();
  }
  std::shared_ptr<const ChunkSummary> summary = std::move(loaded.value());
  const Snapshot& snap = summaries.snap();
  const ChunkSummary& s = *summary;
  // The retention floor is re-read here — per candidate, on whichever thread
  // processes it — so a floor that advances mid-query drops exactly the
  // chunks whose record data is already gone.
  if (s.chunk_addr < record_log_->retained_floor() ||
      s.chunk_addr + s.chunk_len > snap.indexed_tail || s.max_ts < t_range.start ||
      s.min_ts > t_range.end) {
    return std::shared_ptr<const ChunkSummary>();  // filtered: not a candidate
  }
  return summary;
}

Status Loom::CollectCandidateSummaries(
    const Snapshot& snap, TimeRange t_range,
    std::vector<std::shared_ptr<const ChunkSummary>>& out, QueryTrace* trace) const {
  out.clear();
  CandidatePlan plan;
  LOOM_RETURN_IF_ERROR(PlanCandidates(snap, t_range, &plan, trace));
  SummaryLoader summaries(*this, plan, snap, 0, plan.size());
  for (size_t c = 0; c < plan.size(); ++c) {
    auto summary = LoadCandidate(summaries, c, t_range, trace);
    if (!summary.ok()) {
      return summary.status();
    }
    if (summary.value() != nullptr) {
      out.push_back(std::move(summary.value()));
    }
  }
  return Status::Ok();
}

bool Loom::CanRunParallel() const {
  // No nested parallelism: an index function or callback that re-enters the
  // engine from a pool worker runs its query serially inline.
  return query_pool_ != nullptr && !QueryThreadPool::OnWorkerThread();
}

Status Loom::ProcessAggregateCandidate(uint32_t source_id, uint32_t index_id,
                                       const IndexSnapshot& idx, TimeRange t_range,
                                       SummaryLoader& summaries, size_t c,
                                       ChunkPrefetcher::Job* ring, ChunkOutcome* out,
                                       QueryTrace* trace) const {
  // Take this candidate's ring slot unconditionally — pruned candidates must
  // still advance the read-ahead window or the ring would stall.
  std::optional<std::vector<uint8_t>> pre;
  if (ring != nullptr) {
    pre = ring->Take(c);
  }
  auto loaded = LoadCandidate(summaries, c, t_range, trace);
  if (!loaded.ok()) {
    return loaded.status();
  }
  if (loaded.value() == nullptr) {
    out->kind = ChunkOutcome::Kind::kFiltered;
    return Status::Ok();
  }
  out->summary = std::move(loaded.value());
  const Snapshot& snap = summaries.snap();
  const ChunkSummary& s = *out->summary;
  bool has_presence = false;
  uint64_t presence_count = 0;
  uint64_t evaluated_count = 0;
  TimestampNanos src_min_ts = 0;
  TimestampNanos src_max_ts = 0;
  for (const ChunkSummary::Entry& e : s.entries) {
    if (e.source_id != source_id) {
      continue;
    }
    if (e.index_id == kPresenceIndexId) {
      has_presence = true;
      presence_count = e.stats.count;
      src_min_ts = e.stats.min_ts;
      src_max_ts = e.stats.max_ts;
    } else if (e.index_id == index_id && e.bin == kEvaluatedBin) {
      evaluated_count = e.stats.count;
    }
  }
  if (!has_presence || src_max_ts < t_range.start || src_min_ts > t_range.end) {
    out->kind = ChunkOutcome::Kind::kPruned;
    return Status::Ok();
  }
  const bool fully_covered = src_min_ts >= t_range.start && src_max_ts <= t_range.end;
  // Every source record in the chunk was seen by the index function, so the
  // bins fully describe the chunk's indexed values (§5.3). The actual bin
  // fold happens on the coordinator, in candidate order.
  const bool all_indexed = evaluated_count == presence_count;
  if (fully_covered && all_indexed) {
    out->kind = ChunkOutcome::Kind::kFolded;
    return Status::Ok();
  }
  out->kind = ChunkOutcome::Kind::kScanned;
  const IndexFunc& func = idx.func;
  const uint64_t end = std::min<uint64_t>(s.chunk_addr + s.chunk_len, snap.record_tail);
  // A prefetched buffer is trusted only when it demonstrably covers this
  // chunk: the ring's ranges were derived arithmetically before any summary
  // was decoded, so the submitted base must equal the decoded chunk_addr.
  // Anything else degrades to a miss through the scan-local cache.
  std::span<const uint8_t> preloaded;
  if (pre.has_value() && ring->range_addr(c) == s.chunk_addr && end > s.chunk_addr &&
      pre->size() >= end - s.chunk_addr) {
    preloaded = std::span<const uint8_t>(pre->data(), static_cast<size_t>(end - s.chunk_addr));
  }
  return ScanRecordRangeFor(
      s.chunk_addr, end, source_id, t_range, preloaded,
      [&](const RecordView& view) -> bool {
        std::optional<double> value = func(view.payload);
        if (value.has_value()) {
          out->values.emplace_back(*value, view.ts);
        }
        return true;
      },
      trace);
}

Status Loom::ProcessScanCandidate(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                                  TimeRange t_range, ValueRange v_range, uint32_t first_bin,
                                  uint32_t last_bin, SummaryLoader& summaries, size_t c,
                                  ChunkPrefetcher::Job* ring, ChunkOutcome* out,
                                  QueryTrace* trace) const {
  std::optional<std::vector<uint8_t>> pre;
  if (ring != nullptr) {
    pre = ring->Take(c);
  }
  auto loaded = LoadCandidate(summaries, c, t_range, trace);
  if (!loaded.ok()) {
    return loaded.status();
  }
  if (loaded.value() == nullptr) {
    out->kind = ChunkOutcome::Kind::kFiltered;
    return Status::Ok();
  }
  out->summary = std::move(loaded.value());
  const Snapshot& snap = summaries.snap();
  const ChunkSummary& s = *out->summary;
  bool has_presence = false;
  uint64_t presence_count = 0;
  uint64_t evaluated_count = 0;
  bool bin_match = false;
  TimestampNanos src_min_ts = 0;
  TimestampNanos src_max_ts = 0;
  for (const ChunkSummary::Entry& e : s.entries) {
    if (e.source_id != source_id) {
      continue;
    }
    if (e.index_id == kPresenceIndexId) {
      has_presence = true;
      presence_count = e.stats.count;
      src_min_ts = e.stats.min_ts;
      src_max_ts = e.stats.max_ts;
    } else if (e.index_id == index_id) {
      if (e.bin == kEvaluatedBin) {
        evaluated_count = e.stats.count;
      } else if (e.bin >= first_bin && e.bin <= last_bin) {
        bin_match = true;
      }
    }
  }
  if (!has_presence || src_max_ts < t_range.start || src_min_ts > t_range.end) {
    out->kind = ChunkOutcome::Kind::kPruned;
    return Status::Ok();
  }
  // Chunks holding records that predate the index definition must be
  // scanned: the bins cannot prove absence for never-evaluated records
  // (§5.3). Records the index function merely skipped are provably
  // non-matching and need no scan.
  const bool has_unindexed = evaluated_count < presence_count;
  if (!bin_match && !has_unindexed) {
    out->kind = ChunkOutcome::Kind::kPruned;
    return Status::Ok();
  }
  out->kind = ChunkOutcome::Kind::kScanned;
  const IndexFunc& func = idx.func;
  const uint64_t end = std::min<uint64_t>(s.chunk_addr + s.chunk_len, snap.record_tail);
  std::span<const uint8_t> preloaded;
  if (pre.has_value() && ring->range_addr(c) == s.chunk_addr && end > s.chunk_addr &&
      pre->size() >= end - s.chunk_addr) {
    preloaded = std::span<const uint8_t>(pre->data(), static_cast<size_t>(end - s.chunk_addr));
  }
  return ScanRecordRangeFor(
      s.chunk_addr, end, source_id, t_range, preloaded,
      [&](const RecordView& view) -> bool {
        std::optional<double> value = func(view.payload);
        if (!value.has_value() || !v_range.Contains(*value)) {
          return true;
        }
        ChunkOutcome::Match m;
        m.value = *value;
        m.ts = view.ts;
        m.addr = view.addr;
        m.payload.assign(view.payload.begin(), view.payload.end());
        out->matches.push_back(std::move(m));
        return true;
      },
      trace);
}

// --- Query operators -------------------------------------------------------------
//
// Each public operator installs a trace (the caller's, or a local one so the
// internals never branch on null), measures total latency, runs the *Impl
// body, and folds the result into the registry exactly once.

Status Loom::RawScan(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                     QueryTrace* trace) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = "raw_scan";
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Status st = RawScanImpl(source_id, t_range, cb, t);
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, m_.raw_scan_seconds);
  return st;
}

Status Loom::RawScanImpl(uint32_t source_id, TimeRange t_range, const RecordCallback& cb,
                         QueryTrace* trace) const {
  const SourceState* src = FindSource(source_id);
  if (src == nullptr) {
    return Status::NotFound("source not defined");
  }
  const Snapshot snap = TakeSnapshot(src);

  uint64_t start = snap.source_tail;
  if (options_.enable_timestamp_index && snap.ts_tail > 0) {
    TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
    auto marker = tsr.FirstRecordMarkerAfter(source_id, t_range.end);
    if (!marker.ok()) {
      return marker.status();
    }
    if (marker.value().has_value()) {
      // All records after the marker's target have ts > t_range.end, so the
      // backward walk can start there instead of at the chain head.
      start = marker.value()->target_addr;
    }
  }
  if (start == kNullAddr) {
    return Status::Ok();
  }

  // Track whether the caller stopped the scan: archived records are only
  // emitted after the hot walk ran to completion (they are strictly older
  // than everything the walk delivered).
  bool cb_stopped = false;
  const RecordCallback hot_cb = [&](const RecordView& view) -> bool {
    if (!cb(view)) {
      cb_stopped = true;
      return false;
    }
    return true;
  };

  if (CanRunParallel()) {
    bool executed = false;
    Status st = RawScanParallel(source_id, t_range, snap, start, hot_cb, trace, &executed);
    if (!st.ok()) {
      return st;
    }
    if (executed) {
      return cb_stopped ? Status::Ok() : RawScanArchiveTier(source_id, t_range, cb, trace);
    }
    // Not enough chain segments to be worth fanning out: fall through to the
    // serial walk.
  }

  const uint64_t scan_t0 = trace->detailed ? MetricsNowNanos() : 0;
  // Two windows: the payload fetches of the emission phase and the header
  // walk of the next batch alternate between nearby-but-distinct spans.
  CachedLogReader reader(record_log_.get(), snap.record_tail, kScanWindow, /*max_windows=*/2);
  // The chain walk batches headers, runs the vectorized time filter over the
  // batch, then emits matches in chain (newest-first) order with the same
  // per-record accounting the single-step walk produced: every header
  // fetched is examined, payload bytes count only for matches, and the
  // first record with ts < t_range.start terminates the walk (it is
  // examined, never delivered).
  DecodedBatch batch;
  std::vector<uint64_t> mask;
  uint64_t addr = start;
  bool done = false;
  Status deferred;  // hard read error: surfaces after the collected prefix
  while (!done && addr != kNullAddr) {
    batch.Clear();
    bool stop_after = false;
    while (batch.size() < kChainWalkBatch && addr != kNullAddr) {
      if (addr < record_log_->retained_floor()) {
        stop_after = true;  // the chain continues into dropped territory
        break;
      }
      auto head_bytes = reader.Fetch(addr, kRecordHeaderSize);
      if (!head_bytes.ok()) {
        if (head_bytes.status().code() == StatusCode::kOutOfRange) {
          stop_after = true;  // retention advanced mid-walk
        } else {
          deferred = head_bytes.status();
          stop_after = true;
        }
        break;
      }
      const RecordHeader header = RecordHeader::Decode(head_bytes.value().data());
      batch.addrs.push_back(addr);
      batch.source_ids.push_back(header.source_id);
      batch.payload_lens.push_back(header.payload_len);
      batch.timestamps.push_back(header.ts);
      addr = header.prev_addr;
      if (header.ts < t_range.start) {
        stop_after = true;
        break;
      }
    }
    const size_t n = batch.size();
    if (n > 0) {
      mask.assign(MaskWords(n), 0);
      kernels_->filter_source_time(batch.source_ids.data(), batch.timestamps.data(), n,
                                   source_id, t_range.start, t_range.end, mask.data());
      for (size_t i = 0; i < n; ++i) {
        ++trace->records_examined;
        trace->bytes_read += kRecordHeaderSize;
        if (((mask[i >> 6] >> (i & 63)) & 1) == 0) {
          continue;
        }
        auto payload = reader.Fetch(batch.addrs[i] + kRecordHeaderSize, batch.payload_lens[i]);
        if (!payload.ok()) {
          return payload.status();
        }
        trace->bytes_read += batch.payload_lens[i];
        RecordView view;
        view.source_id = batch.source_ids[i];
        view.ts = batch.timestamps[i];
        view.addr = batch.addrs[i];
        view.payload = payload.value();
        ++trace->records_matched;
        if (!hot_cb(view)) {
          done = true;
          break;
        }
      }
    }
    // A collection-phase read error surfaces only after the records ahead of
    // it were delivered; if the callback already stopped, the interleaved
    // walk would never have reached the error, so swallow it.
    if (!deferred.ok() && !done) {
      if (trace->detailed) {
        trace->scan_nanos += MetricsNowNanos() - scan_t0;
      }
      return deferred;
    }
    if (stop_after) {
      break;
    }
  }
  if (trace->detailed) {
    trace->scan_nanos += MetricsNowNanos() - scan_t0;
  }
  return cb_stopped ? Status::Ok() : RawScanArchiveTier(source_id, t_range, cb, trace);
}

Status Loom::RawScanParallel(uint32_t source_id, TimeRange t_range, const Snapshot& snap,
                             uint64_t start, const RecordCallback& cb, QueryTrace* trace,
                             bool* executed) const {
  *executed = false;
  if (!options_.enable_timestamp_index || snap.ts_tail == 0) {
    return Status::Ok();
  }
  // Partition the backward chain at record-marker targets: markers land every
  // ts_marker_period records per source, so each [bounds[j], bounds[j+1])
  // address segment is an independently walkable slice of the chain whose
  // records are all newer than the next segment's.
  TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
  auto marker = tsr.LastRecordMarkerAtOrBefore(source_id, t_range.end);
  if (!marker.ok()) {
    return marker.status();
  }
  if (!marker.value().has_value()) {
    return Status::Ok();
  }
  std::vector<uint64_t> bounds;
  bounds.push_back(start);
  CachedLogReader ts_reader(ts_log_.get(), snap.ts_tail, kScanWindow);
  TimestampIndexEntry m = *marker.value();
  const uint64_t floor_hint = record_log_->retained_floor();
  for (;;) {
    if (m.ts < t_range.start || m.target_addr < floor_hint) {
      break;  // the serial walk would stop inside the current last segment
    }
    if (m.target_addr < bounds.back()) {
      bounds.push_back(m.target_addr);
    }
    if (m.prev_addr == kNullAddr) {
      break;
    }
    auto bytes = ts_reader.Fetch(m.prev_addr, TimestampIndexEntry::kEncodedSize);
    if (!bytes.ok()) {
      return bytes.status();
    }
    m = TimestampIndexEntry::Decode(bytes.value().data());
  }
  if (bounds.size() < kMinParallelSegments) {
    return Status::Ok();
  }

  struct Segment {
    uint64_t begin = 0;
    uint64_t end = kNullAddr;  // exclusive; kNullAddr = walk to the chain tail
  };
  std::vector<Segment> segs(bounds.size());
  for (size_t j = 0; j < bounds.size(); ++j) {
    segs[j].begin = bounds[j];
    segs[j].end = j + 1 < bounds.size() ? bounds[j + 1] : kNullAddr;
  }
  struct SegResult {
    std::vector<ChunkOutcome::Match> matches;  // value unused on this path
    bool hit_stop = false;  // the serial walk would have terminated here
  };
  std::vector<SegResult> results(segs.size());

  const std::vector<std::pair<size_t, size_t>> morsels =
      MakeMorsels(segs.size(), query_pool_->num_threads());
  std::vector<Status> morsel_status(morsels.size());
  std::vector<QueryTrace> morsel_traces(morsels.size());
  for (QueryTrace& mt : morsel_traces) {
    mt.detailed = trace->detailed;
  }
  std::atomic<bool> abort{false};
  Status failed;
  const size_t window = std::max<size_t>(2 * query_pool_->num_threads(), 4);
  const QueryThreadPool::RunStats stats = query_pool_->RunOrdered(
      morsels.size(), window,
      [&](size_t mi) {
        if (abort.load(std::memory_order_relaxed)) {
          return;  // a sibling morsel failed; the query returns its error
        }
        QueryTrace* mt = &morsel_traces[mi];
        const uint64_t scan_t0 = mt->detailed ? MetricsNowNanos() : 0;
        CachedLogReader reader(record_log_.get(), snap.record_tail, kScanWindow,
                               /*max_windows=*/2);
        DecodedBatch batch;
        std::vector<uint64_t> mask;
        const auto [sb, se] = morsels[mi];
        for (size_t s = sb; s < se; ++s) {
          SegResult& r = results[s];
          uint64_t addr = segs[s].begin;
          bool seg_done = false;
          // Same batched walk as the serial path: collect headers along the
          // chain, vector-filter by time, then account and buffer matches in
          // chain order. Each segment additionally stops at its exclusive
          // end address.
          while (!seg_done && addr != kNullAddr && addr != segs[s].end) {
            batch.Clear();
            while (batch.size() < kChainWalkBatch && addr != kNullAddr &&
                   addr != segs[s].end) {
              if (addr < record_log_->retained_floor()) {
                r.hit_stop = true;  // chain continues into dropped territory
                seg_done = true;
                break;
              }
              auto head_bytes = reader.Fetch(addr, kRecordHeaderSize);
              if (!head_bytes.ok()) {
                if (head_bytes.status().code() == StatusCode::kOutOfRange) {
                  r.hit_stop = true;  // retention advanced mid-walk
                } else {
                  morsel_status[mi] = head_bytes.status();
                  abort.store(true, std::memory_order_relaxed);
                }
                seg_done = true;
                break;
              }
              const RecordHeader header = RecordHeader::Decode(head_bytes.value().data());
              batch.addrs.push_back(addr);
              batch.source_ids.push_back(header.source_id);
              batch.payload_lens.push_back(header.payload_len);
              batch.timestamps.push_back(header.ts);
              addr = header.prev_addr;
              if (header.ts < t_range.start) {
                r.hit_stop = true;
                seg_done = true;
                break;
              }
            }
            const size_t n = batch.size();
            if (n > 0) {
              mask.assign(MaskWords(n), 0);
              kernels_->filter_source_time(batch.source_ids.data(), batch.timestamps.data(),
                                           n, source_id, t_range.start, t_range.end,
                                           mask.data());
              for (size_t i = 0; i < n; ++i) {
                ++mt->records_examined;
                mt->bytes_read += kRecordHeaderSize;
                if (((mask[i >> 6] >> (i & 63)) & 1) == 0) {
                  continue;
                }
                auto payload =
                    reader.Fetch(batch.addrs[i] + kRecordHeaderSize, batch.payload_lens[i]);
                if (!payload.ok()) {
                  morsel_status[mi] = payload.status();
                  abort.store(true, std::memory_order_relaxed);
                  seg_done = true;
                  break;
                }
                mt->bytes_read += batch.payload_lens[i];
                ChunkOutcome::Match match;
                match.ts = batch.timestamps[i];
                match.addr = batch.addrs[i];
                match.payload.assign(payload.value().begin(), payload.value().end());
                r.matches.push_back(std::move(match));
              }
            }
          }
          if (r.hit_stop || !morsel_status[mi].ok()) {
            break;  // remaining segments are past the serial stop / the error
          }
        }
        if (mt->detailed) {
          mt->scan_nanos += MetricsNowNanos() - scan_t0;
        }
      },
      [&](size_t mi) -> bool {
        // Emit this morsel's buffered records newest-first; the across-morsel
        // consume order makes the overall delivery identical to the serial
        // backward walk. A worker error surfaces only after the records it
        // buffered before failing are delivered — the exact serial prefix.
        const auto [sb, se] = morsels[mi];
        for (size_t s = sb; s < se; ++s) {
          SegResult& r = results[s];
          for (const ChunkOutcome::Match& match : r.matches) {
            RecordView view;
            view.source_id = source_id;
            view.ts = match.ts;
            view.addr = match.addr;
            view.payload = std::span<const uint8_t>(match.payload);
            ++trace->records_matched;
            if (!cb(view)) {
              return false;
            }
          }
          const bool stop = r.hit_stop;
          r = SegResult{};  // free buffered payloads eagerly
          if (stop) {
            return false;
          }
        }
        if (!morsel_status[mi].ok()) {
          failed = morsel_status[mi];
          return false;
        }
        return true;
      });
  trace->parallel_morsels += stats.morsels;
  trace->parallel_workers += stats.workers_used;
  for (const QueryTrace& mt : morsel_traces) {
    trace->AbsorbWorker(mt);
  }
  *executed = true;
  return failed;
}

Status Loom::IndexedScan(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                         ValueRange v_range, const RecordCallback& cb,
                         QueryTrace* trace) const {
  return IndexedScanValues(source_id, index_id, t_range, v_range,
                           [&cb](double, const RecordView& view) { return cb(view); }, trace);
}

Status Loom::IndexedScanValues(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                               ValueRange v_range, const ValueCallback& cb,
                               QueryTrace* trace) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = "indexed_scan";
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Status st = IndexedScanValuesImpl(source_id, index_id, t_range, v_range, cb, t);
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, m_.indexed_scan_seconds);
  return st;
}

Status Loom::IndexedScanValuesImpl(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                   ValueRange v_range, const ValueCallback& cb,
                                   QueryTrace* trace) const {
  auto idx = GetIndexSnapshot(index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  if (idx.value().source_id != source_id) {
    return Status::InvalidArgument("index does not cover source");
  }
  const SourceState* src = FindSource(source_id);
  if (src == nullptr) {
    return Status::NotFound("source not defined");
  }
  const HistogramSpec& spec = idx.value().spec;
  const IndexFunc& func = idx.value().func;
  const Snapshot snap = TakeSnapshot(src);
  const auto [first_bin, last_bin] = spec.BinsOverlapping(v_range.lo, v_range.hi);

  bool stopped = false;
  // The index function runs once per candidate record; its value is handed
  // to the callback so composed queries (drill-downs, distributed
  // percentile) never re-evaluate it.
  auto emit_matches = [&](const RecordView& view) -> bool {
    if (view.source_id != source_id || !t_range.Contains(view.ts)) {
      return true;
    }
    std::optional<double> value = func(view.payload);
    if (!value.has_value() || !v_range.Contains(*value)) {
      return true;
    }
    ++trace->records_matched;
    if (!cb(*value, view)) {
      stopped = true;
      return false;
    }
    return true;
  };

  if (options_.enable_chunk_index) {
    CandidatePlan plan;
    LOOM_RETURN_IF_ERROR(PlanCandidates(snap, t_range, &plan, trace));
    const size_t n = plan.size();
    const std::unique_ptr<ChunkPrefetcher::Job> ring = SubmitCandidatePrefetch(plan, snap);

    // Archive tier first: demoted blocks hold strictly older data than any
    // hot chunk, so emitting them first preserves the operator's global
    // oldest-first order. Zone maps prune exactly like hot summaries.
    for (const ArchiveCandidate& a :
         PlanArchiveCandidates(record_log_->retained_floor(), t_range, trace)) {
      ++trace->chunks_considered;
      ++trace->tier_chunks_considered;
      const ZoneFacts f = CollectZoneFacts(*a.summary, source_id, index_id, first_bin, last_bin);
      const bool has_unindexed = f.evaluated_count < f.presence_count;
      if (!f.has_presence || f.max_ts < t_range.start || f.min_ts > t_range.end ||
          (!f.bin_match && !has_unindexed)) {
        ++trace->chunks_pruned;
        ++trace->tier_chunks_pruned;
        continue;
      }
      ++trace->chunks_scanned;
      ++trace->tier_chunks_scanned;
      LOOM_RETURN_IF_ERROR(ScanArchiveBlockFor(
          a, source_id, t_range,
          [&](const RecordView& view) -> bool {
            std::optional<double> value = func(view.payload);
            if (!value.has_value() || !v_range.Contains(*value)) {
              return true;
            }
            ++trace->records_matched;
            if (!cb(*value, view)) {
              stopped = true;
              return false;
            }
            return true;
          },
          trace));
      if (stopped) {
        return Status::Ok();
      }
    }

    // Emits one processed candidate's buffered matches. Always runs on the
    // calling thread, strictly in candidate (= timestamp) order, so the
    // caller observes the exact serial delivery sequence. Returns false when
    // the callback stopped the scan.
    auto emit_outcome = [&](ChunkOutcome& o) -> bool {
      if (o.kind == ChunkOutcome::Kind::kFiltered) {
        return true;  // not a candidate after per-worker filtering
      }
      ++trace->chunks_considered;
      if (o.kind != ChunkOutcome::Kind::kScanned) {
        ++trace->chunks_pruned;
        return true;
      }
      ++trace->chunks_scanned;
      for (const ChunkOutcome::Match& m : o.matches) {
        RecordView view;
        view.source_id = source_id;
        view.ts = m.ts;
        view.addr = m.addr;
        view.payload = std::span<const uint8_t>(m.payload);
        ++trace->records_matched;
        if (!cb(m.value, view)) {
          stopped = true;
          return false;
        }
      }
      return true;
    };

    if (CanRunParallel() && n >= kMinParallelCandidates) {
      const std::vector<std::pair<size_t, size_t>> morsels =
          MakeMorsels(n, query_pool_->num_threads());
      std::vector<ChunkOutcome> outcomes(n);
      std::vector<Status> morsel_status(morsels.size());
      std::vector<QueryTrace> morsel_traces(morsels.size());
      for (QueryTrace& mt : morsel_traces) {
        mt.detailed = trace->detailed;
      }
      std::atomic<bool> abort{false};
      Status failed;
      // Producers may run at most `window` morsels ahead of in-order
      // emission, bounding buffered-match memory.
      const size_t window = std::max<size_t>(2 * query_pool_->num_threads(), 4);
      const QueryThreadPool::RunStats stats = query_pool_->RunOrdered(
          morsels.size(), window,
          [&](size_t mi) {
            if (abort.load(std::memory_order_relaxed)) {
              return;  // a sibling morsel failed; the query returns its error
            }
            const auto [begin, end] = morsels[mi];
            SummaryLoader summaries(*this, plan, snap, begin, end);
            for (size_t c = begin; c < end; ++c) {
              Status st =
                  ProcessScanCandidate(source_id, index_id, idx.value(), t_range, v_range,
                                       first_bin, last_bin, summaries, c, ring.get(),
                                       &outcomes[c], &morsel_traces[mi]);
              if (!st.ok()) {
                morsel_status[mi] = st;
                abort.store(true, std::memory_order_relaxed);
                return;
              }
            }
          },
          [&](size_t mi) -> bool {
            if (!morsel_status[mi].ok()) {
              failed = morsel_status[mi];
              return false;
            }
            const auto [begin, end] = morsels[mi];
            bool keep_going = true;
            for (size_t c = begin; c < end && keep_going; ++c) {
              keep_going = emit_outcome(outcomes[c]);
            }
            for (size_t c = begin; c < end; ++c) {
              outcomes[c] = ChunkOutcome{};  // free buffered matches eagerly
            }
            return keep_going;
          });
      trace->parallel_morsels += stats.morsels;
      trace->parallel_workers += stats.workers_used;
      for (const QueryTrace& mt : morsel_traces) {
        trace->AbsorbWorker(mt);
      }
      if (!failed.ok()) {
        return failed;
      }
      if (stopped) {
        return Status::Ok();
      }
    } else {
      SummaryLoader summaries(*this, plan, snap, 0, n);
      ChunkOutcome o;
      for (size_t c = 0; c < n; ++c) {
        o = ChunkOutcome{};
        LOOM_RETURN_IF_ERROR(ProcessScanCandidate(source_id, index_id, idx.value(), t_range,
                                                  v_range, first_bin, last_bin, summaries, c,
                                                  ring.get(), &o, trace));
        if (!emit_outcome(o)) {
          return Status::Ok();
        }
      }
    }
    // Active (not yet summarized) region: the source/time filter runs
    // vectorized over each decoded batch instead of inside the callback.
    LOOM_RETURN_IF_ERROR(ScanRecordRangeFor(
        snap.indexed_tail, snap.record_tail, source_id, t_range, {},
        [&](const RecordView& view) -> bool {
          std::optional<double> value = func(view.payload);
          if (!value.has_value() || !v_range.Contains(*value)) {
            return true;
          }
          ++trace->records_matched;
          if (!cb(*value, view)) {
            stopped = true;
            return false;
          }
          return true;
        },
        trace));
    return Status::Ok();
  }

  if (options_.enable_timestamp_index && snap.ts_tail > 0) {
    // Timestamp-index-only mode: locate the scan start by time, then scan
    // every record in the window.
    TimestampIndexReader tsr(ts_log_.get(), snap.ts_tail);
    uint64_t start_addr = 0;
    auto pos = tsr.LastEntryAtOrBefore(t_range.start == 0 ? 0 : t_range.start - 1);
    if (!pos.ok()) {
      return pos.status();
    }
    if (pos.value().has_value()) {
      auto e = tsr.ReadIndex(*pos.value());
      if (!e.ok()) {
        return e.status();
      }
      if (e.value().kind == TimestampIndexEntry::Kind::kRecord) {
        start_addr = e.value().target_addr;
      }
    }
    bool past_range = false;
    LOOM_RETURN_IF_ERROR(ScanRecordRange(
        start_addr, snap.record_tail,
        [&](const RecordView& view) -> bool {
          if (view.ts > t_range.end) {
            past_range = true;
            return false;
          }
          return emit_matches(view);
        },
        trace));
    (void)past_range;
    return Status::Ok();
  }

  // No indexes at all: backward chain walk with filtering (newest-first).
  // The chain walk counts every time-matched record as matched; overwrite
  // with the value-filtered count this query actually delivered.
  uint64_t delivered = 0;
  Status st = RawScanImpl(
      source_id, t_range,
      [&](const RecordView& view) -> bool {
        std::optional<double> value = func(view.payload);
        if (!value.has_value() || !v_range.Contains(*value)) {
          return true;
        }
        ++delivered;
        return cb(*value, view);
      },
      trace);
  trace->records_matched = delivered;
  return st;
}

Status Loom::AccumulateIndexed(uint32_t source_id, uint32_t index_id, const IndexSnapshot& idx,
                               TimeRange t_range, BinAccumulation* out,
                               QueryTrace* trace) const {
  const SourceState* src = FindSource(source_id);
  if (src == nullptr) {
    return Status::NotFound("source not defined");
  }
  const HistogramSpec& spec = idx.spec;
  const IndexFunc& func = idx.func;
  out->snap = TakeSnapshot(src);
  const Snapshot& snap = out->snap;
  BinStats& merged = out->merged;
  out->bin_counts.assign(spec.num_bins(), 0);
  std::vector<uint64_t>& bin_counts = out->bin_counts;
  std::vector<double>& loose_values = out->loose_values;

  // Source/time filtering happens vectorized inside the batched scan; only
  // matching records reach this callback.
  auto scan_accumulate = [&](const RecordView& view) -> bool {
    std::optional<double> value = func(view.payload);
    if (!value.has_value()) {
      return true;
    }
    merged.Update(*value, view.ts);
    bin_counts[spec.BinOf(*value)]++;
    loose_values.push_back(*value);
    return true;
  };

  std::vector<BinAccumulation::MergedChunk>& fully_merged = out->fully_merged;
  std::vector<std::shared_ptr<const ChunkSummary>>& candidates = out->candidates;

  if (options_.enable_chunk_index) {
    CandidatePlan plan;
    LOOM_RETURN_IF_ERROR(PlanCandidates(snap, t_range, &plan, trace));
    const size_t n = plan.size();
    const std::unique_ptr<ChunkPrefetcher::Job> ring = SubmitCandidatePrefetch(plan, snap);
    std::vector<double> scan_vals;
    std::vector<uint32_t> scan_bins;

    // Archive tier first: demoted blocks are strictly older than any hot
    // chunk, so folding them first keeps the accumulation in global time
    // order — bit-identical to what the same data produced before demotion.
    std::vector<ArchiveCandidate>& archived = out->archive_candidates;
    archived = PlanArchiveCandidates(record_log_->retained_floor(), t_range, trace);
    for (size_t ai = 0; ai < archived.size(); ++ai) {
      const ChunkSummary& s = *archived[ai].summary;
      ++trace->chunks_considered;
      ++trace->tier_chunks_considered;
      const ZoneFacts f = CollectZoneFacts(s, source_id, index_id, 1, 0);
      if (!f.has_presence || f.max_ts < t_range.start || f.min_ts > t_range.end) {
        ++trace->chunks_pruned;
        ++trace->tier_chunks_pruned;
        continue;
      }
      const bool fully_covered = f.min_ts >= t_range.start && f.max_ts <= t_range.end;
      if (fully_covered && f.evaluated_count == f.presence_count) {
        for (const ChunkSummary::Entry& e : s.entries) {
          if (e.source_id == source_id && e.index_id == index_id && e.bin != kEvaluatedBin) {
            merged.Merge(e.stats);
            bin_counts[e.bin] += e.stats.count;
          }
        }
        fully_merged.push_back({&s, static_cast<int>(ai)});
        ++trace->chunks_pruned;
        ++trace->chunks_summary_folded;
        ++trace->tier_chunks_pruned;
        ++trace->tier_chunks_summary_folded;
        continue;
      }
      ++trace->chunks_scanned;
      ++trace->tier_chunks_scanned;
      // Same collect-then-batch-classify shape as the hot scanned path, so
      // bin assignment stays bit-exact across tiers.
      std::vector<std::pair<double, TimestampNanos>> vals;
      LOOM_RETURN_IF_ERROR(ScanArchiveBlockFor(
          archived[ai], source_id, t_range,
          [&](const RecordView& view) -> bool {
            std::optional<double> value = func(view.payload);
            if (value.has_value()) {
              vals.emplace_back(*value, view.ts);
            }
            return true;
          },
          trace));
      scan_vals.clear();
      for (const auto& [value, ts] : vals) {
        scan_vals.push_back(value);
      }
      scan_bins.resize(scan_vals.size());
      spec.ClassifyBatch(*kernels_, scan_vals.data(), scan_vals.size(), scan_bins.data());
      for (size_t i = 0; i < vals.size(); ++i) {
        merged.Update(vals[i].first, vals[i].second);
        bin_counts[scan_bins[i]]++;
        loose_values.push_back(vals[i].first);
      }
    }

    // Folds one processed outcome into the accumulation. Always runs on the
    // coordinator, strictly in candidate (= log) order: partial aggregates
    // combine in exactly the serial sequence, so results are byte-identical
    // to serial execution, double non-associativity included.
    auto merge_outcome = [&](ChunkOutcome& o) {
      switch (o.kind) {
        case ChunkOutcome::Kind::kFiltered:
          break;  // not a candidate after per-worker filtering
        case ChunkOutcome::Kind::kPruned:
          ++trace->chunks_considered;
          ++trace->chunks_pruned;
          break;
        case ChunkOutcome::Kind::kFolded:
          ++trace->chunks_considered;
          for (const ChunkSummary::Entry& e : o.summary->entries) {
            if (e.source_id == source_id && e.index_id == index_id && e.bin != kEvaluatedBin) {
              merged.Merge(e.stats);
              bin_counts[e.bin] += e.stats.count;
            }
          }
          candidates.push_back(o.summary);
          fully_merged.push_back({candidates.back().get(), -1});
          // Answered from summary bins alone: pruned from record reads. The
          // percentile path may still rescan some of these in stage 2, which
          // reclassifies them (see IndexedAggregateImpl).
          ++trace->chunks_pruned;
          ++trace->chunks_summary_folded;
          break;
        case ChunkOutcome::Kind::kScanned: {
          ++trace->chunks_considered;
          ++trace->chunks_scanned;
          // Classify the whole chunk's values in one kernel pass (bit-exact
          // with per-value BinOf), then fold in log order.
          scan_vals.clear();
          for (const auto& [value, ts] : o.values) {
            scan_vals.push_back(value);
          }
          scan_bins.resize(scan_vals.size());
          spec.ClassifyBatch(*kernels_, scan_vals.data(), scan_vals.size(), scan_bins.data());
          for (size_t i = 0; i < o.values.size(); ++i) {
            merged.Update(o.values[i].first, o.values[i].second);
            bin_counts[scan_bins[i]]++;
            loose_values.push_back(o.values[i].first);
          }
          break;
        }
      }
    };

    if (CanRunParallel() && n >= kMinParallelCandidates) {
      const std::vector<std::pair<size_t, size_t>> morsels =
          MakeMorsels(n, query_pool_->num_threads());
      std::vector<ChunkOutcome> outcomes(n);
      std::vector<Status> morsel_status(morsels.size());
      std::vector<QueryTrace> morsel_traces(morsels.size());
      for (QueryTrace& mt : morsel_traces) {
        mt.detailed = trace->detailed;
      }
      std::atomic<bool> abort{false};
      const QueryThreadPool::RunStats stats = query_pool_->Run(morsels.size(), [&](size_t mi) {
        if (abort.load(std::memory_order_relaxed)) {
          return;  // a sibling morsel failed; the query returns its error
        }
        const auto [begin, end] = morsels[mi];
        SummaryLoader summaries(*this, plan, snap, begin, end);
        for (size_t c = begin; c < end; ++c) {
          Status st = ProcessAggregateCandidate(source_id, index_id, idx, t_range, summaries, c,
                                                ring.get(), &outcomes[c], &morsel_traces[mi]);
          if (!st.ok()) {
            morsel_status[mi] = st;
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
      trace->parallel_morsels += stats.morsels;
      trace->parallel_workers += stats.workers_used;
      for (const QueryTrace& mt : morsel_traces) {
        trace->AbsorbWorker(mt);
      }
      for (const Status& st : morsel_status) {
        if (!st.ok()) {
          return st;
        }
      }
      const bool timed = trace->detailed || options_.enable_latency_metrics;
      const uint64_t merge_t0 = timed ? MetricsNowNanos() : 0;
      for (ChunkOutcome& o : outcomes) {
        merge_outcome(o);
      }
      if (timed) {
        trace->merge_nanos += MetricsNowNanos() - merge_t0;
      }
    } else {
      // Serial: process + merge one candidate at a time, keeping memory
      // bounded by a single chunk's matches as before.
      SummaryLoader summaries(*this, plan, snap, 0, n);
      ChunkOutcome o;
      for (size_t c = 0; c < n; ++c) {
        o = ChunkOutcome{};
        LOOM_RETURN_IF_ERROR(ProcessAggregateCandidate(source_id, index_id, idx, t_range,
                                                       summaries, c, ring.get(), &o, trace));
        merge_outcome(o);
      }
    }
    LOOM_RETURN_IF_ERROR(ScanRecordRangeFor(snap.indexed_tail, snap.record_tail, source_id,
                                            t_range, {}, scan_accumulate, trace));
  } else {
    // Ablation modes: aggregate by scanning, bounded by the timestamp index
    // where available. Goes through the Impl so this query's trace keeps
    // accumulating instead of folding twice into the registry.
    LOOM_RETURN_IF_ERROR(IndexedScanValuesImpl(
        source_id, index_id, t_range,
        ValueRange{-std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::infinity()},
        [&](double value, const RecordView& view) -> bool {
          merged.Update(value, view.ts);
          bin_counts[spec.BinOf(value)]++;
          loose_values.push_back(value);
          return true;
        },
        trace));
  }
  return Status::Ok();
}

Result<uint64_t> Loom::CountRecords(uint32_t source_id, TimeRange t_range,
                                    QueryTrace* trace) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = "count_records";
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Result<uint64_t> result = CountRecordsImpl(source_id, t_range, t);
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, m_.count_seconds);
  return result;
}

Result<uint64_t> Loom::CountRecordsImpl(uint32_t source_id, TimeRange t_range,
                                        QueryTrace* trace) const {
  const SourceState* src = FindSource(source_id);
  if (src == nullptr) {
    return Status::NotFound("source not defined");
  }
  const Snapshot snap = TakeSnapshot(src);
  uint64_t count = 0;
  // Invoked only for records passing the vectorized source/time filter.
  auto count_scan = [&](const RecordView&) -> bool {
    ++count;
    return true;
  };
  if (!options_.enable_chunk_index) {
    // Ablation fallback: a raw chain walk bounded by the time range.
    Status st = RawScanImpl(
        source_id, t_range,
        [&](const RecordView&) {
          ++count;
          return true;
        },
        trace);
    if (!st.ok()) {
      return st;
    }
    return count;
  }
  std::vector<std::shared_ptr<const ChunkSummary>> candidates;
  LOOM_RETURN_IF_ERROR(CollectCandidateSummaries(snap, t_range, candidates, trace));
  // Archive tier: fully-covered demoted blocks answer straight from their
  // zone maps; partially-covered ones decompress and count.
  for (const ArchiveCandidate& a :
       PlanArchiveCandidates(record_log_->retained_floor(), t_range, trace)) {
    ++trace->chunks_considered;
    ++trace->tier_chunks_considered;
    const ZoneFacts f = CollectZoneFacts(*a.summary, source_id, kPresenceIndexId, 1, 0);
    if (!f.has_presence || f.max_ts < t_range.start || f.min_ts > t_range.end) {
      ++trace->chunks_pruned;
      ++trace->tier_chunks_pruned;
      continue;
    }
    if (f.min_ts >= t_range.start && f.max_ts <= t_range.end) {
      count += f.presence_count;
      ++trace->chunks_pruned;
      ++trace->chunks_summary_folded;
      ++trace->tier_chunks_pruned;
      ++trace->tier_chunks_summary_folded;
      continue;
    }
    ++trace->chunks_scanned;
    ++trace->tier_chunks_scanned;
    LOOM_RETURN_IF_ERROR(ScanArchiveBlockFor(a, source_id, t_range, count_scan, trace));
  }
  for (const auto& candidate : candidates) {
    const ChunkSummary& s = *candidate;
    ++trace->chunks_considered;
    const ChunkSummary::Entry* presence = nullptr;
    for (const ChunkSummary::Entry& e : s.entries) {
      if (e.source_id == source_id && e.index_id == kPresenceIndexId) {
        presence = &e;
        break;
      }
    }
    if (presence == nullptr || presence->stats.max_ts < t_range.start ||
        presence->stats.min_ts > t_range.end) {
      ++trace->chunks_pruned;
      continue;
    }
    if (presence->stats.min_ts >= t_range.start && presence->stats.max_ts <= t_range.end) {
      count += presence->stats.count;  // fully covered: summary answers
      ++trace->chunks_pruned;
      ++trace->chunks_summary_folded;
    } else {
      ++trace->chunks_scanned;
      const uint64_t end = std::min<uint64_t>(s.chunk_addr + s.chunk_len, snap.record_tail);
      LOOM_RETURN_IF_ERROR(
          ScanRecordRangeFor(s.chunk_addr, end, source_id, t_range, {}, count_scan, trace));
    }
  }
  LOOM_RETURN_IF_ERROR(ScanRecordRangeFor(snap.indexed_tail, snap.record_tail, source_id,
                                          t_range, {}, count_scan, trace));
  return count;
}

Result<std::vector<uint64_t>> Loom::IndexedHistogram(uint32_t source_id, uint32_t index_id,
                                                     TimeRange t_range,
                                                     QueryTrace* trace) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = "indexed_histogram";
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Result<std::vector<uint64_t>> result = [&]() -> Result<std::vector<uint64_t>> {
    auto idx = GetIndexSnapshot(index_id);
    if (!idx.ok()) {
      return idx.status();
    }
    if (idx.value().source_id != source_id) {
      return Status::InvalidArgument("index does not cover source");
    }
    BinAccumulation acc;
    LOOM_RETURN_IF_ERROR(AccumulateIndexed(source_id, index_id, idx.value(), t_range, &acc, t));
    return std::move(acc.bin_counts);
  }();
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, m_.histogram_seconds);
  return result;
}

Result<double> Loom::IndexedAggregate(uint32_t source_id, uint32_t index_id, TimeRange t_range,
                                      AggregateMethod method, double percentile,
                                      QueryTrace* trace) const {
  QueryTrace local;
  QueryTrace* t = trace != nullptr ? trace : &local;
  *t = QueryTrace{};
  t->op = "indexed_aggregate";
  t->detailed = trace != nullptr;
  const bool timed = t->detailed || options_.enable_latency_metrics;
  const uint64_t t0 = timed ? MetricsNowNanos() : 0;
  Result<double> result =
      IndexedAggregateImpl(source_id, index_id, t_range, method, percentile, t);
  if (timed) {
    t->total_nanos = MetricsNowNanos() - t0;
  }
  FoldTraceIntoMetrics(*t, m_.aggregate_seconds);
  return result;
}

Result<double> Loom::IndexedAggregateImpl(uint32_t source_id, uint32_t index_id,
                                          TimeRange t_range, AggregateMethod method,
                                          double percentile, QueryTrace* trace) const {
  auto idx = GetIndexSnapshot(index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  if (idx.value().source_id != source_id) {
    return Status::InvalidArgument("index does not cover source");
  }
  if (method == AggregateMethod::kPercentile && (percentile < 0.0 || percentile > 100.0)) {
    return Status::InvalidArgument("percentile must be in [0, 100]");
  }
  const HistogramSpec& spec = idx.value().spec;
  const IndexFunc& func = idx.value().func;
  BinAccumulation acc;
  LOOM_RETURN_IF_ERROR(AccumulateIndexed(source_id, index_id, idx.value(), t_range, &acc, trace));
  const Snapshot& snap = acc.snap;
  BinStats& merged = acc.merged;
  std::vector<uint64_t>& bin_counts = acc.bin_counts;
  std::vector<double>& loose_values = acc.loose_values;
  std::vector<BinAccumulation::MergedChunk>& fully_merged = acc.fully_merged;

  switch (method) {
    case AggregateMethod::kCount:
      return static_cast<double>(merged.count);
    case AggregateMethod::kSum:
      return merged.sum;
    case AggregateMethod::kMin:
      if (merged.count == 0) {
        return Status::NotFound("no data in range");
      }
      return merged.min;
    case AggregateMethod::kMax:
      if (merged.count == 0) {
        return Status::NotFound("no data in range");
      }
      return merged.max;
    case AggregateMethod::kMean:
      if (merged.count == 0) {
        return Status::NotFound("no data in range");
      }
      return merged.sum / static_cast<double>(merged.count);
    case AggregateMethod::kPercentile:
      break;
  }

  // Holistic percentile: bins as a CDF (§4.3). Find the bin containing the
  // requested rank, then materialize only that bin's values.
  const uint64_t total = merged.count;
  if (total == 0) {
    return Status::NotFound("no data in range");
  }
  uint64_t rank = static_cast<uint64_t>(std::ceil(percentile / 100.0 * static_cast<double>(total)));
  rank = std::max<uint64_t>(1, std::min(rank, total));
  uint32_t target_bin = 0;
  uint64_t cumulative = 0;
  for (uint32_t b = 0; b < bin_counts.size(); ++b) {
    if (cumulative + bin_counts[b] >= rank) {
      target_bin = b;
      break;
    }
    cumulative += bin_counts[b];
  }
  const uint64_t local_rank = rank - cumulative;  // 1-based within the bin

  std::vector<double> bin_values;
  bin_values.reserve(bin_counts[target_bin]);
  {
    // One kernel pass over all loosely-scanned values instead of a
    // binary-search per value (bit-exact with BinOf).
    std::vector<uint32_t> loose_bins(loose_values.size());
    spec.ClassifyBatch(*kernels_, loose_values.data(), loose_values.size(), loose_bins.data());
    for (size_t i = 0; i < loose_values.size(); ++i) {
      if (loose_bins[i] == target_bin) {
        bin_values.push_back(loose_values[i]);
      }
    }
  }
  // Stage 2: the summaries did not settle these chunks after all — read their
  // records to materialize the target bin. Reclassify so the trace invariant
  // (pruned + scanned == considered) keeps holding, in the tier_* family too
  // for chunks whose records now live in the archive.
  std::vector<BinAccumulation::MergedChunk> rescan;
  size_t rescan_archived = 0;
  for (const BinAccumulation::MergedChunk& mc : fully_merged) {
    for (const ChunkSummary::Entry& e : mc.summary->entries) {
      if (e.source_id == source_id && e.index_id == index_id && e.bin == target_bin) {
        rescan.push_back(mc);
        if (mc.archive_ref >= 0) {
          ++rescan_archived;
        }
        break;
      }
    }
  }
  trace->chunks_pruned -= rescan.size();
  trace->chunks_summary_folded -= rescan.size();
  trace->chunks_scanned += rescan.size();
  trace->tier_chunks_pruned -= rescan_archived;
  trace->tier_chunks_summary_folded -= rescan_archived;
  trace->tier_chunks_scanned += rescan_archived;
  // Stage-2 chunks are known exactly (decoded summaries in hand), so the
  // prefetch ring gets precise ranges — no derivation, no verification miss.
  // Archived rescans stream from their archives instead, so the ring only
  // runs when every rescan chunk is hot (slot indexes must line up).
  std::unique_ptr<ChunkPrefetcher::Job> stage2_ring;
  if (options_.prefetch_depth > 0 && rescan.size() >= 2 && rescan_archived == 0) {
    std::vector<ChunkPrefetcher::Range> ranges;
    ranges.reserve(rescan.size());
    for (const BinAccumulation::MergedChunk& mc : rescan) {
      const uint64_t end =
          std::min<uint64_t>(mc.summary->chunk_addr + mc.summary->chunk_len, snap.record_tail);
      ranges.push_back({mc.summary->chunk_addr,
                        static_cast<uint32_t>(end > mc.summary->chunk_addr
                                                  ? end - mc.summary->chunk_addr
                                                  : 0)});
    }
    stage2_ring = prefetcher_.Submit(record_log_.get(), std::move(ranges),
                                     options_.prefetch_depth);
  }
  std::vector<std::vector<double>> chunk_values(rescan.size());
  auto scan_chunk = [&](size_t i, QueryTrace* t) -> Status {
    const BinAccumulation::MergedChunk& mchunk = rescan[i];
    // Collect the chunk's extracted values, then classify them in one kernel
    // pass; order (and therefore nth_element input) matches the per-record
    // BinOf filter exactly.
    std::vector<double> vals;
    auto collect = [&](const RecordView& view) -> bool {
      std::optional<double> value = func(view.payload);
      if (value.has_value()) {
        vals.push_back(*value);
      }
      return true;
    };
    Status st;
    if (mchunk.archive_ref >= 0) {
      st = ScanArchiveBlockFor(
          acc.archive_candidates[static_cast<size_t>(mchunk.archive_ref)], source_id, t_range,
          collect, t);
    } else {
      const ChunkSummary* mc = mchunk.summary;
      const uint64_t end = std::min<uint64_t>(mc->chunk_addr + mc->chunk_len, snap.record_tail);
      std::optional<std::vector<uint8_t>> pre;
      if (stage2_ring != nullptr) {
        pre = stage2_ring->Take(i);
      }
      std::span<const uint8_t> preloaded;
      if (pre.has_value() && end > mc->chunk_addr && pre->size() >= end - mc->chunk_addr) {
        preloaded =
            std::span<const uint8_t>(pre->data(), static_cast<size_t>(end - mc->chunk_addr));
      }
      st = ScanRecordRangeFor(mc->chunk_addr, end, source_id, t_range, preloaded, collect, t);
    }
    if (!st.ok()) {
      return st;
    }
    std::vector<uint32_t> bins(vals.size());
    spec.ClassifyBatch(*kernels_, vals.data(), vals.size(), bins.data());
    for (size_t v = 0; v < vals.size(); ++v) {
      if (bins[v] == target_bin) {
        chunk_values[i].push_back(vals[v]);
      }
    }
    return Status::Ok();
  };
  if (CanRunParallel() && rescan.size() >= kMinParallelCandidates) {
    const std::vector<std::pair<size_t, size_t>> morsels =
        MakeMorsels(rescan.size(), query_pool_->num_threads());
    std::vector<Status> morsel_status(morsels.size());
    std::vector<QueryTrace> morsel_traces(morsels.size());
    for (QueryTrace& mt : morsel_traces) {
      mt.detailed = trace->detailed;
    }
    std::atomic<bool> abort{false};
    const QueryThreadPool::RunStats stats = query_pool_->Run(morsels.size(), [&](size_t mi) {
      if (abort.load(std::memory_order_relaxed)) {
        return;
      }
      const auto [begin, end] = morsels[mi];
      for (size_t i = begin; i < end; ++i) {
        Status st = scan_chunk(i, &morsel_traces[mi]);
        if (!st.ok()) {
          morsel_status[mi] = st;
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    trace->parallel_morsels += stats.morsels;
    trace->parallel_workers += stats.workers_used;
    for (const QueryTrace& mt : morsel_traces) {
      trace->AbsorbWorker(mt);
    }
    for (const Status& st : morsel_status) {
      if (!st.ok()) {
        return st;
      }
    }
  } else {
    for (size_t i = 0; i < rescan.size(); ++i) {
      LOOM_RETURN_IF_ERROR(scan_chunk(i, trace));
    }
  }
  for (const std::vector<double>& values : chunk_values) {
    bin_values.insert(bin_values.end(), values.begin(), values.end());
  }
  if (bin_values.size() < local_rank) {
    return Status::Internal("percentile bin materialization mismatch");
  }
  std::nth_element(bin_values.begin(), bin_values.begin() + static_cast<long>(local_rank - 1),
                   bin_values.end());
  return bin_values[local_rank - 1];
}

Result<HistogramSpec> Loom::IndexSpec(uint32_t index_id) const {
  auto idx = GetIndexSnapshot(index_id);
  if (!idx.ok()) {
    return idx.status();
  }
  return idx.value().spec;
}

LoomStats Loom::stats() const {
  LoomStats s;
  s.records_ingested = m_.records_ingested->Value();
  s.bytes_ingested = m_.bytes_ingested->Value();
  s.chunks_finalized = m_.chunks_finalized->Value();
  s.ts_entries = m_.ts_entries->Value();
  s.record_log = record_log_->stats();
  s.chunk_index_log = chunk_log_->stats();
  s.ts_index_log = ts_log_->stats();
  if (summary_cache_ != nullptr) {
    s.summary_cache = summary_cache_->stats();
  }
  return s;
}

}  // namespace loom
