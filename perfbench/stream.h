// The benchmark's input stream and the engine schema it is captured into.
//
// Every workload replays the Redis case-study generator (src/workload):
// application request latencies in all three phases, syscall latencies from
// phase 2 and client TCP packets in phase 3, with six planted incidents in
// phase 3. The stream is generated once per run from --seed and kept in
// memory with per-source reference columns, so query answers can be checked
// against a brute-force evaluation.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench_support.h"
#include "src/core/loom.h"
#include "src/workload/case_studies.h"
#include "src/workload/records.h"

namespace perfbench {

using loom::TimestampNanos;

struct Stream {
  struct Event {
    uint32_t source_id = 0;
    TimestampNanos ts = 0;
    uint32_t offset = 0;  // into bytes
    uint32_t len = 0;
  };
  std::vector<Event> events;
  std::vector<uint8_t> bytes;
  std::vector<loom::Incident> incidents;
  TimestampNanos phase_start[4] = {0, 0, 0, 0};
  TimestampNanos phase_end[4] = {0, 0, 0, 0};
  uint64_t app_records = 0;
  uint64_t syscall_records = 0;
  uint64_t packet_records = 0;
  uint64_t payload_bytes = 0;
  // Record-log bytes (header + payload) of phase-3 events.
  uint64_t phase3_log_bytes = 0;

  // Reference columns, ts-ordered.
  std::vector<TimestampNanos> app_ts;
  std::vector<double> app_latency;
  std::vector<TimestampNanos> pkt_ts;
  std::vector<uint16_t> pkt_dport;

  std::span<const uint8_t> PayloadOf(const Event& e) const {
    return std::span<const uint8_t>(bytes.data() + e.offset, e.len);
  }
};

inline std::unique_ptr<Stream> GenerateStream(double scale, uint64_t seed) {
  auto s = std::make_unique<Stream>();
  loom::RedisWorkloadConfig config;
  config.scale = scale;
  config.phase_seconds = 10.0;
  config.seed = seed;
  loom::RedisWorkload gen(config);
  for (int p = 1; p <= 3; ++p) {
    s->phase_start[p] = gen.PhaseStart(p);
    s->phase_end[p] = gen.PhaseEnd(p);
  }
  while (auto ev = gen.Next()) {
    Stream::Event e;
    e.source_id = ev->source_id;
    e.ts = ev->ts;
    e.offset = static_cast<uint32_t>(s->bytes.size());
    e.len = static_cast<uint32_t>(ev->payload.size());
    s->bytes.insert(s->bytes.end(), ev->payload.begin(), ev->payload.end());
    s->events.push_back(e);
    s->payload_bytes += e.len;
    if (e.ts >= s->phase_start[3]) {
      s->phase3_log_bytes += loom::kRecordHeaderSize + e.len;
    }
    if (e.source_id == loom::kAppSource) {
      s->app_ts.push_back(e.ts);
      s->app_latency.push_back(loom::AppLatencyUs(ev->payload).value_or(0.0));
    } else if (e.source_id == loom::kPacketSource) {
      s->pkt_ts.push_back(e.ts);
      s->pkt_dport.push_back(loom::PacketDport(ev->payload).value_or(0));
    }
  }
  s->incidents = gen.incidents();
  s->app_records = gen.app_records();
  s->syscall_records = gen.syscall_records();
  s->packet_records = gen.packet_records();
  return s;
}

// Index range [first, last) of a ts-sorted column inside [lo, hi].
inline std::pair<size_t, size_t> RangeOf(const std::vector<TimestampNanos>& ts,
                                         TimestampNanos lo, TimestampNanos hi) {
  const size_t a = static_cast<size_t>(std::lower_bound(ts.begin(), ts.end(), lo) - ts.begin());
  const size_t b = static_cast<size_t>(std::upper_bound(ts.begin(), ts.end(), hi) - ts.begin());
  return {a, std::max(a, b)};
}

// The case-study schema: one source per stream, exponential latency
// histograms (1 us .. ~16 s), a sendto-only latency index and an
// exact-match index on the packet destination port.
struct Schema {
  uint32_t app_latency = 0;
  uint32_t syscall_latency = 0;
  uint32_t sendto_latency = 0;
  uint32_t packet_dport = 0;
};

inline loom::Status DefineSchema(loom::Loom* l, Schema* schema) {
  using loom::Loom;
  for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
    loom::Status st = l->DefineSource(src);
    if (!st.ok()) {
      return st;
    }
  }
  const auto latency = loom::HistogramSpec::Exponential(1.0, 2.0, 24).value();
  struct Def {
    uint32_t source;
    Loom::IndexFunc func;
    loom::HistogramSpec spec;
    uint32_t* out;
  };
  const Def defs[] = {
      {loom::kAppSource, [](std::span<const uint8_t> p) { return loom::AppLatencyUs(p); },
       latency, &schema->app_latency},
      {loom::kSyscallSource, [](std::span<const uint8_t> p) { return loom::SyscallLatencyUs(p); },
       latency, &schema->syscall_latency},
      {loom::kSyscallSource,
       [](std::span<const uint8_t> p) { return loom::SyscallLatencyFor(loom::kSyscallSendto, p); },
       latency, &schema->sendto_latency},
      {loom::kPacketSource,
       [](std::span<const uint8_t> p) -> std::optional<double> {
         auto dport = loom::PacketDport(p);
         if (!dport.has_value()) {
           return std::nullopt;
         }
         return static_cast<double>(*dport);
       },
       loom::HistogramSpec::Uniform(0.0, 65536.0, 64).value(), &schema->packet_dport},
  };
  for (const Def& d : defs) {
    auto id = l->DefineIndex(d.source, d.func, d.spec);
    if (!id.ok()) {
      return id.status();
    }
    *d.out = id.value();
  }
  return loom::Status::Ok();
}

// Counters of one capture (a fresh engine fed the whole stream, then Sync).
struct IngestSample {
  uint64_t records = 0;
  uint64_t failed = 0;
  double push_wall_s = 0;
  double push_cpu_ns = 0;       // pushing thread CPU
  double capture_cpu_ns = 0;    // process CPU from first push to Sync return
  double push_ivcsw = 0;
  double sync_ms = 0;           // Sync wall time (pipeline drain)
  double finalize_stall_ms = 0; // ingest-side finalize stall (registry delta)
  double writer_stall_ms = 0;   // record-log writer waiting on the flusher
  double chunks_sealed = 0;
  double pad_bytes = 0;         // record-log bytes that hold no record
};

inline double GaugeOr0(const loom::MetricsSnapshot& s, const std::string& name) {
  auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0.0 : it->second;
}
inline double CounterOr0(const loom::MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

// Pushes the whole stream on the calling thread, stepping `clock` to each
// event's virtual timestamp so arrival times equal generator timestamps,
// then Syncs every source. Traced runs record one span per 4096 pushes.
inline IngestSample Capture(loom::Loom* l, const Stream& s, loom::ManualClock* clock,
                            Tracer* tracer) {
  constexpr size_t kSpanBatch = 4096;
  IngestSample r;
  const loom::LoomStats before = l->stats();
  const loom::MetricsSnapshot mbefore = l->metrics()->Snapshot();
  const uint64_t proc0 = ProcessCpuNs();
  const uint64_t thr0 = ThreadCpuNs();
  const uint64_t ivcsw0 = ThreadIvcsw();
  const uint64_t wall0 = WallNs();
  for (size_t i = 0; i < s.events.size(); i += kSpanBatch) {
    Tracer::Scope span(tracer, "push_batch");
    const size_t end = std::min(s.events.size(), i + kSpanBatch);
    for (size_t j = i; j < end; ++j) {
      const Stream::Event& e = s.events[j];
      clock->SetNanos(e.ts);
      if (!l->Push(e.source_id, s.PayloadOf(e)).ok()) {
        ++r.failed;
      }
    }
  }
  const uint64_t wall1 = WallNs();
  const uint64_t thr1 = ThreadCpuNs();
  const uint64_t ivcsw1 = ThreadIvcsw();
  {
    Tracer::Scope span(tracer, "sync");
    for (uint32_t src : {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource}) {
      if (!l->Sync(src).ok()) {
        ++r.failed;
      }
    }
  }
  const uint64_t wall2 = WallNs();
  const uint64_t proc1 = ProcessCpuNs();
  const loom::LoomStats after = l->stats();
  const loom::MetricsSnapshot mafter = l->metrics()->Snapshot();
  r.records = s.events.size();
  r.push_wall_s = static_cast<double>(wall1 - wall0) * 1e-9;
  r.push_cpu_ns = static_cast<double>(thr1 - thr0);
  r.capture_cpu_ns = static_cast<double>(proc1 - proc0);
  r.push_ivcsw = static_cast<double>(ivcsw1 - ivcsw0);
  r.sync_ms = static_cast<double>(wall2 - wall1) * 1e-6;
  const std::string stall = "loom_ingest_finalize_stall_seconds_total";
  r.finalize_stall_ms = (GaugeOr0(mafter, stall) - GaugeOr0(mbefore, stall)) * 1e3;
  r.writer_stall_ms =
      static_cast<double>(after.record_log.writer_stall_nanos - before.record_log.writer_stall_nanos) *
      1e-6;
  r.chunks_sealed = static_cast<double>(after.chunks_finalized - before.chunks_finalized);
  // Record-log bytes that hold no record: chunk-tail and block padding.
  r.pad_bytes = static_cast<double>(after.record_log.bytes_appended -
                                    before.record_log.bytes_appended) -
                static_cast<double>(s.events.size() * loom::kRecordHeaderSize + s.payload_bytes);
  return r;
}

// Checks per-source kCount over the whole stream against the generated
// counts. Returns the number of mismatching sources (0..3).
inline int CheckSourceCounts(const loom::Loom* l, const Schema& schema, const Stream& s) {
  const loom::TimeRange all{0, s.phase_end[3]};
  const std::pair<uint32_t, uint64_t> want[] = {
      {schema.app_latency, s.app_records},
      {schema.syscall_latency, s.syscall_records},
      {schema.packet_dport, s.packet_records},
  };
  const uint32_t sources[] = {loom::kAppSource, loom::kSyscallSource, loom::kPacketSource};
  int bad = 0;
  for (int i = 0; i < 3; ++i) {
    auto n = l->IndexedAggregate(sources[i], want[i].first, all, loom::AggregateMethod::kCount);
    if (!n.ok() || static_cast<uint64_t>(n.value()) != want[i].second) {
      std::fprintf(stderr, "check: source %u count %s, want %llu\n", sources[i],
                   n.ok() ? std::to_string(n.value()).c_str() : n.status().ToString().c_str(),
                   static_cast<unsigned long long>(want[i].second));
      ++bad;
    }
  }
  return bad;
}

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
