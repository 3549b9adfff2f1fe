#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "src/common/file.h"
#include "src/daemon/daemon_config.h"
#include "src/daemon/monitoring_daemon.h"
#include "src/workload/records.h"

namespace loom {
namespace {

std::vector<uint8_t> AppPayload(double latency) {
  AppRecord rec;
  rec.latency_us = latency;
  std::vector<uint8_t> buf(sizeof(rec));
  std::memcpy(buf.data(), &rec, sizeof(rec));
  return buf;
}

class DaemonTest : public ::testing::Test {
 protected:
  std::unique_ptr<MonitoringDaemon> StartDaemon(DaemonOptions opts = {}) {
    opts.loom.dir = dir_.FilePath("daemon-" + std::to_string(instance_++));
    auto daemon = MonitoringDaemon::Start(opts);
    EXPECT_TRUE(daemon.ok());
    return std::move(daemon.value());
  }

  TempDir dir_;
  int instance_ = 0;
};

TEST_F(DaemonTest, SingleSourceRoundTrip) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 1000; ++i) {
    channel.value()->Publish(AppPayload(i));
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), 1000u);
  int count = 0;
  ASSERT_TRUE(daemon->engine()
                  ->RawScan(kAppSource, {0, ~0ULL},
                            [&](const RecordView&) {
                              ++count;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(count, 1000);
}

TEST_F(DaemonTest, DuplicateSourceRejected) {
  auto daemon = StartDaemon();
  ASSERT_TRUE(daemon->AddSource(1).ok());
  EXPECT_FALSE(daemon->AddSource(1).ok());
}

TEST_F(DaemonTest, AddIndexThenQuery) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 500; ++i) {
    channel.value()->Publish(AppPayload(i % 100));
  }
  daemon->Flush();
  auto max =
      daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                         AggregateMethod::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value(), 99.0);
}

TEST_F(DaemonTest, OversizeRecordDropped) {
  DaemonOptions opts;
  opts.max_record_bytes = 64;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  std::vector<uint8_t> big(128, 0);
  EXPECT_FALSE(channel.value()->Offer(big));
  EXPECT_EQ(channel.value()->stats().dropped, 1u);
  EXPECT_EQ(channel.value()->stats().offered, 1u);
}

TEST_F(DaemonTest, OfferCountsDropsWhenChannelFull) {
  DaemonOptions opts;
  opts.channel_capacity = 4;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(1);
  ASSERT_TRUE(channel.ok());
  // Fire far more than the channel can hold without giving the ingest
  // thread a chance to keep up every time.
  uint64_t accepted = 0;
  for (int i = 0; i < 100000; ++i) {
    if (channel.value()->Offer(AppPayload(i))) {
      ++accepted;
    }
  }
  daemon->Flush();
  DaemonSourceStats stats = channel.value()->stats();
  EXPECT_EQ(stats.offered, 100000u);
  EXPECT_EQ(stats.accepted, accepted);
  EXPECT_EQ(stats.accepted + stats.dropped, stats.offered);
  EXPECT_EQ(daemon->records_ingested(), accepted);
}

TEST_F(DaemonTest, MultipleConcurrentProducers) {
  auto daemon = StartDaemon();
  constexpr int kSources = 3;
  constexpr int kPerSource = 20000;
  std::vector<SourceChannel*> channels;
  for (uint32_t s = 1; s <= kSources; ++s) {
    auto channel = daemon->AddSource(s);
    ASSERT_TRUE(channel.ok());
    channels.push_back(channel.value());
  }
  std::vector<std::thread> producers;
  producers.reserve(kSources);
  for (int s = 0; s < kSources; ++s) {
    producers.emplace_back([&, s] {
      for (int i = 0; i < kPerSource; ++i) {
        channels[static_cast<size_t>(s)]->Publish(AppPayload(i));
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), static_cast<uint64_t>(kSources) * kPerSource);
  for (uint32_t s = 1; s <= kSources; ++s) {
    int count = 0;
    ASSERT_TRUE(daemon->engine()
                    ->RawScan(s, {0, ~0ULL},
                              [&](const RecordView& r) {
                                EXPECT_EQ(r.source_id, s);
                                ++count;
                                return true;
                              })
                    .ok());
    EXPECT_EQ(count, kPerSource);
  }
}

TEST_F(DaemonTest, QueriesRunConcurrentlyWithIngest) {
  auto daemon = StartDaemon();
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());

  constexpr int kRecords = 50000;
  std::thread producer([&] {
    for (int i = 0; i < kRecords; ++i) {
      channel.value()->Publish(AppPayload(i % 1000));
    }
  });
  // Queries from this thread while the producer runs. Monotonic counts show
  // queries observe consistent snapshots mid-ingest.
  double prev = 0;
  for (int q = 0; q < 50; ++q) {
    auto count = daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                                    AggregateMethod::kCount);
    ASSERT_TRUE(count.ok());
    EXPECT_GE(count.value(), prev);
    prev = count.value();
    std::this_thread::yield();
  }
  producer.join();
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), static_cast<uint64_t>(kRecords));
}

TEST_F(DaemonTest, QueryThreadsWireThroughDaemonConfig) {
  // DaemonOptions.loom carries query_threads into the engine: wide queries
  // issued through the daemon fan out across the pool, visible in the
  // loom_query_parallel_* metrics the daemon exports.
  DaemonOptions opts;
  opts.loom.query_threads = 2;
  opts.loom.chunk_size = 2 << 10;  // many chunks -> morsel threshold reached
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 20000; ++i) {
    channel.value()->Publish(AppPayload(i % 1000));
  }
  daemon->Flush();

  auto count = daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                                  AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 20000.0);

  MetricsSnapshot snap = daemon->metrics()->Snapshot();
  EXPECT_GE(snap.counters.at("loom_query_parallel_queries_total"), 1u);
  EXPECT_GE(snap.counters.at("loom_query_parallel_morsels_total"), 2u);
  EXPECT_EQ(snap.gauges.at("loom_query_parallel_pool_threads"), 2.0);
}

TEST_F(DaemonTest, PipelinedIngestWiresThroughDaemonConfig) {
  // DaemonOptions.loom carries the engine options into the engine: daemon-fed
  // ingest through the sealing thread still answers queries exactly (chunks
  // lagging finalize are scanned raw), and the seal traffic shows up in the
  // loom_ingest_* metrics the daemon exports.
  DaemonOptions opts;
  opts.loom.chunk_size = 2 << 10;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  auto spec = HistogramSpec::Uniform(0, 1000, 10).value();
  auto idx = daemon->AddIndex(
      kAppSource, [](std::span<const uint8_t> p) { return AppLatencyUs(p); }, spec);
  ASSERT_TRUE(idx.ok());
  for (int i = 0; i < 20000; ++i) {
    channel.value()->Publish(AppPayload(i % 1000));
  }
  daemon->Flush();

  auto count = daemon->engine()->IndexedAggregate(kAppSource, idx.value(), {0, ~0ULL},
                                                  AggregateMethod::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 20000.0);

  MetricsSnapshot snap = daemon->metrics()->Snapshot();
  EXPECT_GE(snap.counters.at("loom_ingest_chunks_sealed_total"), 1u);
  EXPECT_GE(snap.gauges.count("loom_ingest_finalize_lag_chunks"), 1u);
  EXPECT_GE(snap.gauges.count("loom_ingest_io_backend_mode"), 1u);
}

// --- Daemon configuration surface -----------------------------------------

TEST_F(DaemonTest, TierKnobsWireThroughDaemonConfig) {
  // The tiered-storage knobs must be reachable from the daemon's textual
  // config surface (they were engine-only when tiering landed): flags parse
  // into DaemonOptions.loom, and a daemon started with them actually
  // demotes into the configured archive directory.
  const std::string archive = dir_.FilePath("cold");
  auto parsed = ParseDaemonConfigArgs({
      "--archive-dir", archive,
      "--demote-interval-ms=0",  // manual DemoteNow only: deterministic test
      "--demote-batch-chunks", "8",
      "--record-retain-bytes", "16384",
      "--chunk-size", "2048",
      "--record-block-size", "4096",
  });
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().loom.archive_dir, archive);
  EXPECT_EQ(parsed.value().loom.demote_interval_ms, 0u);
  EXPECT_EQ(parsed.value().loom.demote_batch_chunks, 8u);
  EXPECT_EQ(parsed.value().loom.record_retain_bytes, 16384u);

  auto daemon = StartDaemon(parsed.value());
  EXPECT_EQ(daemon->engine()->options().archive_dir, archive);
  EXPECT_EQ(daemon->engine()->options().demote_batch_chunks, 8u);

  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 5000; ++i) {
    channel.value()->Publish(AppPayload(i % 100));
  }
  daemon->Flush();
  size_t prev;
  do {
    prev = daemon->engine()->ArchiveCount();
    ASSERT_TRUE(daemon->engine()->DemoteNow().ok());
  } while (daemon->engine()->ArchiveCount() != prev);
  EXPECT_GE(daemon->engine()->ArchiveCount(), 1u);

  // Demoted data stays queryable through the same daemon engine.
  auto count = daemon->engine()->CountRecords(kAppSource, {0, ~0ULL});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 5000u);
}

TEST_F(DaemonTest, ConfigParserAcceptsAllSurfaces) {
  // Equals form, separate-value form, dashed and underscored keys.
  auto args = ParseDaemonConfigArgs({"--enable-timestamp-index=off", "--channel_capacity", "64",
                                     "--self-telemetry", "true", "--dir=/tmp/x"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_FALSE(args.value().loom.enable_timestamp_index);
  EXPECT_EQ(args.value().channel_capacity, 64u);
  EXPECT_TRUE(args.value().self_telemetry);
  EXPECT_EQ(args.value().loom.dir, "/tmp/x");

  // Config-file form with comments and blank lines.
  auto text = ParseDaemonConfigText(
      "# tiering\n"
      "archive_dir = /tmp/cold\n"
      "\n"
      "demote_batch_chunks = 4   # per pass\n"
      "enable_latency_metrics = off\n");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text.value().loom.archive_dir, "/tmp/cold");
  EXPECT_EQ(text.value().loom.demote_batch_chunks, 4u);
  EXPECT_FALSE(text.value().loom.enable_latency_metrics);
}

TEST_F(DaemonTest, SyncPolicyWiresThroughDaemonConfig) {
  // The durability knobs parse from both config surfaces: flag form with
  // dashes, file form with underscores.
  auto args = ParseDaemonConfigArgs({"--sync-policy=group", "--group-commit-bytes", "65536",
                                     "--group-commit-interval-ms=10"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args.value().loom.sync_policy, SyncPolicy::kGroup);
  EXPECT_EQ(args.value().loom.group_commit_bytes, 65536u);
  EXPECT_EQ(args.value().loom.group_commit_interval_ms, 10u);

  auto text = ParseDaemonConfigText(
      "sync_policy = every_block   # durability per flush\n"
      "group_commit_bytes = 4096\n");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text.value().loom.sync_policy, SyncPolicy::kEveryBlock);
  EXPECT_EQ(text.value().loom.group_commit_bytes, 4096u);

  // A daemon opened with them runs its engine under that policy.
  DaemonOptions opts;
  opts.loom.sync_policy = SyncPolicy::kGroup;
  opts.loom.chunk_size = 2 << 10;
  auto daemon = StartDaemon(opts);
  auto channel = daemon->AddSource(kAppSource);
  ASSERT_TRUE(channel.ok());
  for (int i = 0; i < 1000; ++i) {
    channel.value()->Publish(AppPayload(i));
  }
  daemon->Flush();
  EXPECT_EQ(daemon->records_ingested(), 1000u);
  EXPECT_EQ(daemon->engine()->options().sync_policy, SyncPolicy::kGroup);
  const std::string page = daemon->engine()->metrics()->RenderPrometheus();
  EXPECT_NE(page.find("loom_ingest_group_commits_total"), std::string::npos);
}

TEST_F(DaemonTest, ConfigParserRejectsBadInput) {
  DaemonOptions opts;
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "no_such_knob", "1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "chunk_size", "not_a_number").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyDaemonConfigOption(&opts, "enable_chunk_index", "maybe").code(),
            StatusCode::kInvalidArgument);
  // Keys of removed ingest modes are unknown now, not silently ignored.
  for (const char* removed :
       {"pipelined_ingest", "seal_shards", "finalize_inflight_chunks", "flush_inflight_blocks"}) {
    const Status st = ApplyDaemonConfigOption(&opts, removed, "1");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << removed;
    EXPECT_NE(st.message().find("unknown daemon config key"), std::string::npos) << removed;
  }
  EXPECT_FALSE(ParseDaemonConfigArgs({"--chunk-size"}).ok());       // missing value
  EXPECT_FALSE(ParseDaemonConfigArgs({"chunk-size", "1"}).ok());    // no -- prefix
  EXPECT_FALSE(ParseDaemonConfigText("chunk_size 4096\n").ok());    // no '='
}

}  // namespace
}  // namespace loom
