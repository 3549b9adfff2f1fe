#include "src/daemon/monitoring_daemon.h"

#include <chrono>
#include <cstring>

namespace loom {

uint32_t SelfMetricId(std::string_view metric_name) {
  // FNV-1a, 32-bit.
  uint32_t h = 2166136261u;
  for (char c : metric_name) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

// Self-telemetry sample payload: u32 metric id | f64 value (host-endian,
// in-process only — samples never cross machines unencoded).
constexpr size_t kSelfSampleBytes = 12;

void EncodeSelfSample(uint32_t id, double value, uint8_t* out) {
  std::memcpy(out, &id, 4);
  std::memcpy(out + 4, &value, 8);
}

}  // namespace

std::vector<SelfWatch> DefaultSelfWatches() {
  std::vector<SelfWatch> watches;
  SelfWatch drops;
  drops.metric = "loom_daemon_dropped_records_total";
  drops.aggregate = StandingAggregate::kSum;  // deltas, so sum = drops/window
  drops.alert.kind = StandingAlertRule::Kind::kAbove;
  drops.alert.threshold = 0.0;
  drops.alert.for_windows = 1;
  watches.push_back(std::move(drops));
  SelfWatch cache_hits;
  // A counter, so samples are per-tick deltas: kSum per window is the
  // window's hit count.
  cache_hits.metric = "loom_cache_hits_total";
  cache_hits.aggregate = StandingAggregate::kSum;
  watches.push_back(std::move(cache_hits));
  return watches;
}

Loom::IndexFunc SelfValueIndexFunc(const std::string& metric_name) {
  const uint32_t want = SelfMetricId(metric_name);
  return [want](std::span<const uint8_t> payload) -> std::optional<double> {
    if (payload.size() != kSelfSampleBytes) {
      return std::nullopt;
    }
    uint32_t id;
    std::memcpy(&id, payload.data(), 4);
    if (id != want) {
      return std::nullopt;
    }
    double value;
    std::memcpy(&value, payload.data() + 4, 8);
    return value;
  };
}

SourceChannel::SourceChannel(uint32_t source_id, size_t capacity, size_t max_bytes)
    : source_id_(source_id), max_bytes_(max_bytes), queue_(capacity) {}

bool SourceChannel::Offer(std::span<const uint8_t> payload) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  if (offered_metric_ != nullptr) {
    offered_metric_->Increment();
  }
  if (payload.size() > max_bytes_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_metric_ != nullptr) {
      dropped_metric_->Increment();
    }
    return false;
  }
  Slot slot;
  slot.len = static_cast<uint32_t>(payload.size());
  slot.bytes.assign(payload.begin(), payload.end());
  if (!queue_.TryPush(std::move(slot))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_metric_ != nullptr) {
      dropped_metric_->Increment();
    }
    return false;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (accepted_metric_ != nullptr) {
    accepted_metric_->Increment();
  }
  return true;
}

void SourceChannel::Publish(std::span<const uint8_t> payload) {
  while (!Offer(payload)) {
    std::this_thread::yield();
  }
}

DaemonSourceStats SourceChannel::stats() const {
  DaemonSourceStats s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  return s;
}

Result<std::unique_ptr<MonitoringDaemon>> MonitoringDaemon::Start(const DaemonOptions& options) {
  std::unique_ptr<MonitoringDaemon> daemon(new MonitoringDaemon(options));
  auto loom = Loom::Open(options.loom);
  if (!loom.ok()) {
    return loom.status();
  }
  daemon->loom_ = std::move(loom.value());
  daemon->RegisterMetrics();
  daemon->ingest_ = std::thread([raw = daemon.get()] { raw->IngestMain(); });
  return daemon;
}

MonitoringDaemon::~MonitoringDaemon() {
  stop_.store(true, std::memory_order_release);
  if (ingest_.joinable()) {
    ingest_.join();
  }
  // The registry may be shared (DaemonOptions.loom.metrics) and outlive this
  // daemon; the queue-depth hook walks channels_ and must go before they do.
  if (queue_depth_hook_id_ != 0) {
    metrics()->RemoveCollectionHook(queue_depth_hook_id_);
  }
}

void MonitoringDaemon::RegisterMetrics() {
  MetricsRegistry* reg = metrics();
  offered_metric_ = reg->AddCounter("loom_daemon_offered_records_total");
  accepted_metric_ = reg->AddCounter("loom_daemon_accepted_records_total");
  dropped_metric_ = reg->AddCounter("loom_daemon_dropped_records_total");
  self_samples_metric_ = reg->AddCounter("loom_daemon_self_samples_total");
  // Batch handoffs carry at most the 128-record drain cap.
  batch_records_ = reg->AddHistogram("loom_daemon_batch_records",
                                     HistogramOptions::Exponential(1.0, 2.0, 9));
  Gauge* depth = reg->AddGauge("loom_daemon_queue_depth");
  queue_depth_hook_id_ = reg->AddCollectionHook([this, depth] {
    size_t total = 0;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& channel : channels_) {
      total += channel->QueueDepthApprox();
    }
    depth->Set(static_cast<double>(total));
  });
}

Result<SourceChannel*> MonitoringDaemon::AddSource(uint32_t source_id) {
  size_t capacity = 2;
  while (capacity < options_.channel_capacity) {
    capacity <<= 1;
  }
  std::unique_ptr<SourceChannel> channel(
      new SourceChannel(source_id, capacity, options_.max_record_bytes));
  channel->offered_metric_ = offered_metric_;
  channel->accepted_metric_ = accepted_metric_;
  channel->dropped_metric_ = dropped_metric_;
  SourceChannel* raw = channel.get();

  // DefineSource must run on the ingest thread; enqueue and wait.
  Result<uint32_t> define_result(0u);
  std::atomic<bool> done{false};
  {
    std::lock_guard<std::mutex> lock(mu_);
    PendingIndex op;
    op.source_id = source_id;
    op.func = nullptr;  // marks "define source"
    op.result = &define_result;
    op.done = &done;
    pending_.push_back(std::move(op));
  }
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  if (!define_result.ok()) {
    return define_result.status();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_.push_back(std::move(channel));
  }
  return raw;
}

Result<uint32_t> MonitoringDaemon::AddIndex(uint32_t source_id, Loom::IndexFunc func,
                                            HistogramSpec spec) {
  Result<uint32_t> result(0u);
  std::atomic<bool> done{false};
  {
    std::lock_guard<std::mutex> lock(mu_);
    PendingIndex op;
    op.source_id = source_id;
    op.func = std::move(func);
    op.spec = std::move(spec);
    op.result = &result;
    op.done = &done;
    pending_.push_back(std::move(op));
  }
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  return result;
}

void MonitoringDaemon::Flush() {
  // Wait until every channel is drained by the ingest thread.
  for (;;) {
    bool empty = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& channel : channels_) {
        if (!channel->queue_.EmptyApprox()) {
          empty = false;
          break;
        }
      }
      if (empty && pending_.empty() && !ingest_busy_) {
        return;
      }
    }
    std::this_thread::yield();
  }
}

void MonitoringDaemon::PushSelfTelemetrySamples() {
  // Runs on the ingest thread (the engine's single-writer contract). The
  // snapshot runs the registry's collection hooks, so gauges are current.
  const MetricsSnapshot snap = metrics()->Snapshot();
  std::vector<uint8_t> bytes;
  bytes.reserve((snap.counters.size() + snap.gauges.size() + snap.histograms.size()) *
                kSelfSampleBytes);
  size_t n = 0;
  auto add = [&](const std::string& name, double value) {
    bytes.resize((n + 1) * kSelfSampleBytes);
    EncodeSelfSample(SelfMetricId(name), value, bytes.data() + n * kSelfSampleBytes);
    ++n;
  };
  for (const auto& [name, value] : snap.counters) {
    uint64_t& prev = prev_counters_[name];
    add(name, static_cast<double>(value - prev));
    prev = value;
  }
  for (const auto& [name, value] : snap.gauges) {
    add(name, value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    auto& [prev_sum, prev_count] = prev_hist_[name];
    if (hist.count > prev_count) {
      add(name + ":mean",
          (hist.sum - prev_sum) / static_cast<double>(hist.count - prev_count));
    }
    prev_sum = hist.sum;
    prev_count = hist.count;
  }
  if (n == 0) {
    return;
  }
  std::vector<std::span<const uint8_t>> payloads;
  payloads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    payloads.emplace_back(bytes.data() + i * kSelfSampleBytes, kSelfSampleBytes);
  }
  Status st = loom_->PushBatch(kSelfTelemetrySourceId,
                               std::span<const std::span<const uint8_t>>(payloads));
  if (st.ok()) {
    self_samples_metric_->Increment(n);
    records_ingested_.fetch_add(n, std::memory_order_relaxed);
  }
}

std::vector<std::pair<std::string, uint64_t>> MonitoringDaemon::self_watch_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return self_watch_ids_;
}

void MonitoringDaemon::InstallSelfWatches() {
  // Runs first thing on the ingest thread, before any pending op: callers
  // whose AddSource/AddIndex completed are therefore ordered after the
  // watches exist. Index definitions must run here (single-writer contract).
  std::vector<std::pair<std::string, uint64_t>> installed;
  for (const SelfWatch& watch : options_.self_watches) {
    auto spec = HistogramSpec::Exponential(1.0, 2.0, 20);
    if (!spec.ok()) {
      continue;
    }
    auto index =
        loom_->DefineIndex(kSelfTelemetrySourceId, SelfValueIndexFunc(watch.metric),
                           std::move(spec.value()));
    if (!index.ok()) {
      continue;
    }
    StandingQuerySpec query;
    query.name = watch.metric;
    query.source_id = kSelfTelemetrySourceId;
    query.index_id = index.value();
    query.aggregate = watch.aggregate;
    query.window_nanos = watch.window_nanos;
    query.alert = watch.alert;
    auto id = loom_->RegisterStandingQuery(query);
    if (id.ok()) {
      installed.emplace_back(watch.metric, id.value());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  self_watch_ids_ = std::move(installed);
}

void MonitoringDaemon::IngestMain() {
  size_t rr = 0;  // round-robin cursor over channels
  if (options_.self_telemetry) {
    (void)loom_->DefineSource(kSelfTelemetrySourceId);
    InstallSelfWatches();
    last_self_sample_nanos_ = MetricsNowNanos();
  }
  for (;;) {
    // 1. Run pending schema ops.
    std::vector<PendingIndex> ops;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ops.swap(pending_);
    }
    for (PendingIndex& op : ops) {
      if (!op.func) {
        Status st = loom_->DefineSource(op.source_id);
        *op.result = st.ok() ? Result<uint32_t>(op.source_id) : Result<uint32_t>(st);
      } else {
        *op.result = loom_->DefineIndex(op.source_id, std::move(op.func), std::move(op.spec));
      }
      op.done->store(true, std::memory_order_release);
    }

    // 2. Drain channels round-robin in bounded batches.
    size_t channel_count;
    {
      std::lock_guard<std::mutex> lock(mu_);
      channel_count = channels_.size();
      ingest_busy_ = true;
    }
    uint64_t drained = 0;
    std::vector<SourceChannel::Slot> slots;
    std::vector<std::span<const uint8_t>> payloads;
    for (size_t i = 0; i < channel_count; ++i) {
      SourceChannel* channel;
      {
        std::lock_guard<std::mutex> lock(mu_);
        channel = channels_[(rr + i) % channel_count].get();
      }
      // Drain up to one batch, then hand the whole batch to the engine in a
      // single PushBatch: one source lookup, one clock read, one publish
      // fence instead of one each per record.
      slots.clear();
      payloads.clear();
      for (int batch = 0; batch < 128; ++batch) {
        auto slot = channel->queue_.TryPop();
        if (!slot.has_value()) {
          break;
        }
        slots.push_back(std::move(*slot));
      }
      if (slots.empty()) {
        continue;
      }
      payloads.reserve(slots.size());
      for (const SourceChannel::Slot& slot : slots) {
        payloads.emplace_back(slot.bytes.data(), slot.len);
      }
      Status st = loom_->PushBatch(channel->source_id(),
                                   std::span<const std::span<const uint8_t>>(payloads));
      if (st.ok()) {
        records_ingested_.fetch_add(slots.size(), std::memory_order_relaxed);
      }
      batch_records_->Observe(static_cast<double>(slots.size()));
      drained += slots.size();
    }
    rr = channel_count == 0 ? 0 : (rr + 1) % channel_count;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ingest_busy_ = false;
    }

    // 3. Self-telemetry: on the sampling period, feed the registry's current
    // readings back into the engine as ordinary records.
    if (options_.self_telemetry) {
      const uint64_t now = MetricsNowNanos();
      if (now - last_self_sample_nanos_ >= options_.self_telemetry_period_nanos) {
        last_self_sample_nanos_ = now;
        PushSelfTelemetrySamples();
      }
    }

    if (drained == 0) {
      if (stop_.load(std::memory_order_acquire)) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

}  // namespace loom
