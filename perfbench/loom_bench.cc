// End-to-end benchmark of Loom (see perfbench/README.md).
//
//   loom_bench --workload capture|investigate|history --seed N
//              --seconds S --trace 0|1 [--scale X] [--dir D] [--out D]
//
// Prints a run-conditions line, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). A traced
// run executes the workload twice in one process, untraced then traced, and
// reports the relative difference of each end-to-end metric as its tracing
// overhead. Only Loom's public API is used, with default LoomOptions apart
// from the data directory, the clock and (history) retention + archive_dir.

#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cfloat>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_support.h"
#include "perfbench/script.h"
#include "perfbench/stream.h"
#include "src/core/loom.h"
#include "src/query/drilldown.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using loom::Loom;
using loom::LoomOptions;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"push_cpu_ns_per_rec", "ns"},
      {"capture_cpu_ns_per_rec", "ns"},
      {"stored_bytes_per_user_byte", "ratio"},
      {"queries_per_s", "1/s"},
      {"query_p90_ms", "ms"},
      {"percentile_p50_ms", "ms"},
      {"valscan_p50_ms", "ms"},
      {"summary_agg_p50_ms", "ms"},
      {"rawscan_p50_ms", "ms"},
      {"exact_match_p50_ms", "ms"},
      {"drilldown_p50_ms", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"core.ingest_rec_per_s", "rec/s"},
        {"core.push_ivcsw_per_s", "1/s"},
        {"core.background_cpu_ns_per_rec", "ns"},
        {"core.sync_drain_ms", "ms"},
        {"core.finalize_stall_ms", "ms"},
        {"core.chunks_sealed", "count"},
        {"hybridlog.writer_stall_ms", "ms"},
        {"hybridlog.pad_bytes_per_user_byte", "ratio"},
        {"hybridlog.disk_reads_per_query", "count"},
        {"hybridlog.memory_reads_per_query", "count"},
        {"hybridlog.snapshot_fallbacks_per_query", "count"},
        {"index.summary_cache_hit_rate", "ratio"},
        {"index.summary_cache_evictions", "count"},
        {"index.summary_cache_used_bytes", "bytes"},
        {"index.chunk_idx_bytes_per_user_byte", "ratio"},
        {"index.ts_idx_bytes_per_user_byte", "ratio"},
    };
    for (int t = 0; t < kNumQTypes; ++t) {
      const std::string q = std::string("q.") + kQTypeName[t];
      d.push_back({q + ".chunks_considered", "count"});
      d.push_back({q + ".pruned_frac", "ratio"});
      d.push_back({q + ".examined_per_match", "ratio"});
      d.push_back({q + ".bytes_read", "bytes"});
      if (t != kDrillDown) {  // DrillDown takes no QueryTrace: no stage split
        d.push_back({q + ".plan_ms", "ms"});
        d.push_back({q + ".scan_ms", "ms"});
        d.push_back({q + ".merge_ms", "ms"});
        d.push_back({q + ".unattributed_ms", "ms"});
      }
    }
    d.push_back({"tier.demote_s", "s"});
    d.push_back({"tier.archives", "count"});
    d.push_back({"tier.archive_bytes_per_user_byte", "ratio"});
    for (int t = 0; t < kNumQTypes; ++t) {
      const std::string q = std::string("tier.") + kQTypeName[t];
      d.push_back({q + ".tier_considered", "count"});
      d.push_back({q + ".tier_pruned_frac", "ratio"});
      d.push_back({q + ".tier_bytes_read", "bytes"});
    }
    d.push_back({"query.topk_ms", "ms"});
    d.push_back({"query.correlate_ms", "ms"});
    d.push_back({"standing.windows_emitted", "count"});
    d.push_back({"standing.dropped", "count"});
    for (const MetricDef& m : EndToEndMetrics()) {
      d.push_back({"trace_overhead." + m.name, "ratio"});
    }
    d.push_back({"env.nproc", "count"});
    d.push_back({"env.kernel_mode", "enum"});
    d.push_back({"env.io_backend_mode", "enum"});
    d.push_back({"env.seal_shards", "count"});
    d.push_back({"env.push_ivcsw", "count"});
    return d;
  }();
  return defs;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  double scale = 0.05;
  std::string dir = ".bench_data";
  std::string out = ".bench_out";
};

// Run conditions, recorded in every output.
struct Conditions {
  std::string kernel = "?";
  std::string io_backend = "?";
  std::string ingest = "?";
  double kernel_mode = -1, io_mode = -1, seal_shards = -1;
  double push_ivcsw = 0;
};

void ReadConditions(const Loom* l, Conditions* c) {
  const loom::MetricsSnapshot m = l->metrics()->Snapshot();
  c->kernel_mode = GaugeOr0(m, "loom_query_kernel_mode");
  c->io_mode = GaugeOr0(m, "loom_ingest_io_backend_mode");
  c->seal_shards = GaugeOr0(m, "loom_ingest_seal_shards");
  c->kernel = c->kernel_mode == 1 ? "avx2" : c->kernel_mode == 2 ? "neon" : "scalar";
  c->io_backend = c->io_mode == 1
                      ? (GaugeOr0(m, "loom_ingest_io_write_fixed_mode") == 1 ? "io_uring_fixed"
                                                                               : "io_uring")
                      : "sync";
  c->ingest = c->seal_shards == 0 ? "inline"
                                  : "pipelined/" + std::to_string(static_cast<int>(c->seal_shards)) +
                                        "-shard";
}

std::string FsType(const std::string& path) {
  struct statfs sfs{};
  if (statfs(path.c_str(), &sfs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(sfs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sfs.f_type));
      return buf;
    }
  }
}

// One execution of a workload.
struct Outcome {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Conditions cond;
};

struct Engine {
  std::unique_ptr<loom::ManualClock> clock;  // outlives the engine using it
  std::unique_ptr<Loom> loom;
  Schema schema;
};

// Empties `dir` (and `archive_dir` when set) before an engine opens there,
// so no set-up timing includes deleting an earlier engine's files.
void ResetDirs(const LoomOptions& opts) {
  std::error_code ec;
  fs::remove_all(opts.dir, ec);
  fs::create_directories(opts.dir, ec);
  if (!opts.archive_dir.empty()) {
    fs::create_directories(opts.archive_dir, ec);
  }
}

// Opens an engine in a directory emptied by ResetDirs and defines the
// schema.
loom::Status OpenEngine(const LoomOptions& opts, Engine* e) {
  auto l = Loom::Open(opts);
  if (!l.ok()) {
    return l.status();
  }
  e->loom = std::move(l.value());
  return DefineSchema(e->loom.get(), &e->schema);
}

// Destroys the engine (flushing and syncing its logs) and returns the bytes
// it left on disk under `dir`.
uint64_t CloseEngine(Engine* e, const std::string& dir) {
  e->loom.reset();
  return AllocatedBytes(dir);
}

// Destroys a throwaway engine and deletes its files. The files are truncated
// first, so closing drops their dirty pages instead of syncing ~600 MB to
// disk: a run then writes one engine's logs, not one per set-up, and the
// disk traffic of earlier set-ups cannot slow later timed phases.
void DiscardEngine(Engine* e, const std::string& dir) {
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      fs::resize_file(it->path(), 0, ec);
    }
  }
  e->loom.reset();
  fs::remove_all(dir, ec);
}

// --- Script passes ---------------------------------------------------------

struct ScriptStats {
  std::vector<double> lat_ms[kNumQTypes];
  std::vector<double> all_ms;
  double busy_ns = 0;
  uint64_t steps = 0;
  uint64_t failed = 0;
};

// Runs `passes` passes of `steps`. Each answer must equal `expect` (when
// given) and hold the runner's internal invariants.
void RunPasses(ScriptRunner& runner, const std::vector<Step>& steps, int passes,
               const std::vector<Answer>* expect, ScriptStats* out) {
  for (int p = 0; p < passes; ++p) {
    double threshold = 0.0;
    for (size_t i = 0; i < steps.size(); ++i) {
      uint64_t ns = 0;
      const Answer a = runner.Run(steps[i], threshold, &ns);
      if (steps[i].type == kPercentile) {
        threshold = a.value;
      }
      const bool good = a.ok && (expect == nullptr || a == (*expect)[i]);
      if (!good) {
        ++out->failed;
        std::fprintf(stderr, "check: step %zu (%s) answer differs (ok=%d count=%llu)\n", i,
                     kQTypeName[steps[i].type], a.ok ? 1 : 0,
                     static_cast<unsigned long long>(a.count));
      }
      const double ms = static_cast<double>(ns) * 1e-6;
      out->lat_ms[steps[i].type].push_back(ms);
      out->all_ms.push_back(ms);
      out->busy_ns += static_cast<double>(ns);
      ++out->steps;
    }
  }
}

// The untimed verification pass: every answer is compared with the
// brute-force reference. Returns the answers for later passes to match.
std::vector<Answer> VerifyPass(const Loom* l, const Schema& schema, const Scene& scene,
                               const Stream& s, const std::vector<Step>& steps,
                               uint64_t* failed) {
  ScriptRunner runner(l, schema, scene, nullptr, nullptr);
  std::vector<Answer> answers;
  double threshold = 0.0;
  for (const Step& st : steps) {
    uint64_t ns = 0;
    const Answer a = runner.Run(st, threshold, &ns);
    const Answer want = Reference(s, scene, st, threshold);
    if (!(a == want)) {
      ++*failed;
      std::fprintf(stderr,
                   "check: %s [%llu,%llu] got ok=%d n=%llu v=%.17g v2=%.17g c=%llu; "
                   "want ok=%d n=%llu v=%.17g v2=%.17g c=%llu\n",
                   kQTypeName[st.type], static_cast<unsigned long long>(st.lo),
                   static_cast<unsigned long long>(st.hi), a.ok, static_cast<unsigned long long>(a.count),
                   a.value, a.value2, static_cast<unsigned long long>(a.check), want.ok,
                   static_cast<unsigned long long>(want.count), want.value, want.value2,
                   static_cast<unsigned long long>(want.check));
    }
    if (st.type == kPercentile) {
      threshold = a.value;
    }
    answers.push_back(a);
  }
  return answers;
}

void ScriptMetrics(const ScriptStats& st, std::map<std::string, double>* e2e) {
  static const char* const kP50[kNumQTypes] = {
      "percentile_p50_ms", "valscan_p50_ms",     "summary_agg_p50_ms",
      "rawscan_p50_ms",    "exact_match_p50_ms", "drilldown_p50_ms"};
  for (int t = 0; t < kNumQTypes; ++t) {
    (*e2e)[kP50[t]] = Median(st.lat_ms[t]);
  }
  (*e2e)["query_p90_ms"] = Quantile(st.all_ms, 0.9);
  (*e2e)["queries_per_s"] =
      st.busy_ns > 0 ? static_cast<double>(st.steps) / (st.busy_ns * 1e-9) : 0.0;
}

void TypeLayerMetrics(const TypeLayer* layers, std::map<std::string, double>* out) {
  for (int t = 0; t < kNumQTypes; ++t) {
    const TypeLayer& l = layers[t];
    const double n = std::max(1.0, l.steps);
    const std::string q = std::string("q.") + kQTypeName[t];
    (*out)[q + ".chunks_considered"] = l.chunks_considered / n;
    (*out)[q + ".pruned_frac"] = l.chunks_considered > 0 ? l.chunks_pruned / l.chunks_considered : 0;
    (*out)[q + ".examined_per_match"] =
        l.records_matched > 0 ? l.records_examined / l.records_matched : l.records_examined / n;
    (*out)[q + ".bytes_read"] = l.bytes_read / n;
    if (t != kDrillDown) {
      (*out)[q + ".plan_ms"] = l.plan_ns / n * 1e-6;
      (*out)[q + ".scan_ms"] = l.scan_ns / n * 1e-6;
      (*out)[q + ".merge_ms"] = l.merge_ns / n * 1e-6;
      (*out)[q + ".unattributed_ms"] = (l.total_ns - l.plan_ns - l.scan_ns - l.merge_ns) / n * 1e-6;
    }
    const std::string tq = std::string("tier.") + kQTypeName[t];
    (*out)[tq + ".tier_considered"] = l.tier_considered / n;
    (*out)[tq + ".tier_pruned_frac"] = l.tier_considered > 0 ? l.tier_pruned / l.tier_considered : 0;
    (*out)[tq + ".tier_bytes_read"] = l.tier_bytes / n;
  }
  const double dd = std::max(1.0, layers[kDrillDown].steps);
  (*out)["query.topk_ms"] = layers[kDrillDown].topk_ns / dd * 1e-6;
  (*out)["query.correlate_ms"] = layers[kDrillDown].correlate_ns / dd * 1e-6;
}

// Record-log read path and summary-cache counters over a script phase.
struct ReadCounters {
  loom::LoomStats s0;
  void Begin(const Loom* l) { s0 = l->stats(); }
  void End(const Loom* l, uint64_t steps, std::map<std::string, double>* out) const {
    const loom::LoomStats s1 = l->stats();
    const double n = std::max<double>(1.0, static_cast<double>(steps));
    (*out)["hybridlog.disk_reads_per_query"] =
        static_cast<double>(s1.record_log.disk_reads - s0.record_log.disk_reads) / n;
    (*out)["hybridlog.memory_reads_per_query"] =
        static_cast<double>(s1.record_log.memory_reads - s0.record_log.memory_reads) / n;
    (*out)["hybridlog.snapshot_fallbacks_per_query"] =
        static_cast<double>(s1.record_log.snapshot_fallbacks - s0.record_log.snapshot_fallbacks) / n;
    const double hits = static_cast<double>(s1.summary_cache.hits - s0.summary_cache.hits);
    const double misses = static_cast<double>(s1.summary_cache.misses - s0.summary_cache.misses);
    (*out)["index.summary_cache_hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    (*out)["index.summary_cache_evictions"] =
        static_cast<double>(s1.summary_cache.evictions - s0.summary_cache.evictions);
    (*out)["index.summary_cache_used_bytes"] = static_cast<double>(s1.summary_cache.bytes_used);
  }
};

// Ingest metrics (medians over the run's captures) into e2e and layer maps.
void IngestMetrics(const std::vector<IngestSample>& samples, double payload_bytes,
                   Outcome* o) {
  std::vector<double> push, capture, rate, ivcsw, bg, sync, stall, wstall, sealed, pad;
  for (const IngestSample& s : samples) {
    const double n = static_cast<double>(s.records);
    push.push_back(s.push_cpu_ns / n);
    capture.push_back(s.capture_cpu_ns / n);
    bg.push_back((s.capture_cpu_ns - s.push_cpu_ns) / n);
    rate.push_back(n / s.push_wall_s);
    ivcsw.push_back(s.push_ivcsw / s.push_wall_s);
    sync.push_back(s.sync_ms);
    stall.push_back(s.finalize_stall_ms);
    wstall.push_back(s.writer_stall_ms);
    sealed.push_back(s.chunks_sealed);
    pad.push_back(s.pad_bytes / payload_bytes);
    o->cond.push_ivcsw += s.push_ivcsw;
  }
  o->e2e["push_cpu_ns_per_rec"] = Median(push);
  o->e2e["capture_cpu_ns_per_rec"] = Median(capture);
  o->layer["core.ingest_rec_per_s"] = Median(rate);
  o->layer["core.push_ivcsw_per_s"] = Median(ivcsw);
  o->layer["core.background_cpu_ns_per_rec"] = Median(bg);
  o->layer["core.sync_drain_ms"] = Median(sync);
  o->layer["core.finalize_stall_ms"] = Median(stall);
  o->layer["hybridlog.writer_stall_ms"] = Median(wstall);
  o->layer["core.chunks_sealed"] = Median(sealed);
  o->layer["hybridlog.pad_bytes_per_user_byte"] = Median(pad);
}

void IndexFileMetrics(const std::string& dir, double payload_bytes, Outcome* o) {
  o->layer["index.chunk_idx_bytes_per_user_byte"] =
      static_cast<double>(AllocatedBytes(dir, "chunk.idx")) / payload_bytes;
  o->layer["index.ts_idx_bytes_per_user_byte"] =
      static_cast<double>(AllocatedBytes(dir, "ts.idx")) / payload_bytes;
}

// TopK(6) over phase 3 must return exactly the planted slow requests, and
// CorrelateAround must find a mangled packet near each. Returns failures.
uint64_t CheckIncidents(const Loom* l, const Schema& schema, const Stream& s) {
  loom::DrillDown dd(l);
  const loom::TimeRange p3{s.phase_start[3], s.phase_end[3]};
  auto hits = dd.TopK(loom::kAppSource, schema.app_latency, p3, s.incidents.size());
  if (!hits.ok() || hits->size() != s.incidents.size()) {
    std::fprintf(stderr, "check: TopK on phase 3 failed\n");
    return 1;
  }
  std::vector<TimestampNanos> got, want;
  for (const loom::RecordHit& h : hits.value()) {
    got.push_back(h.ts);
  }
  for (const loom::Incident& inc : s.incidents) {
    want.push_back(inc.request_ts);
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  uint64_t failed = got == want ? 0 : 1;
  std::vector<int> mangled(got.size(), 0);
  loom::Status st = dd.CorrelateAround(got, loom::kPacketSource, kCorrelateWindow,
                                       [&](size_t i, const loom::RecordView& r) {
                                         if (loom::PacketDport(r.payload) == loom::kMangledPort) {
                                           ++mangled[i];
                                         }
                                         return true;
                                       });
  for (int m : mangled) {
    failed += st.ok() && m > 0 ? 0 : 1;
  }
  if (failed != 0) {
    std::fprintf(stderr, "check: planted incidents not recovered (%llu failures)\n",
                 static_cast<unsigned long long>(failed));
  }
  return failed;
}


// --- Workloads --------------------------------------------------------------

struct Ctx {
  Args args;
  const Stream* stream = nullptr;
  std::string data;  // this run's data directory
  Tracer* tracer = nullptr;  // null = untraced
};

constexpr TimestampNanos kMs = loom::kNanosPerMilli;
constexpr TimestampNanos kSec = loom::kNanosPerSecond;

// How much work a run does follows from --seconds alone, never from
// elapsed time, so the number of queries and their windows depend only on
// --seed and --seconds. At --seconds 20 a run takes ~15 s on a 4-vCPU VM:
// investigate/history 6 set-ups (preloads) and 7/5 timed passes, capture 10
// captures and 5 passes.
constexpr int kOpenRepeats = 19;  // throwaway opens: capture's set-up is Open + schema

int Scaled(int seconds, int per, int lo, int hi) { return std::clamp(seconds / per, lo, hi); }

// Investigation windows: all in phase 3, where every source is on and the
// incidents are planted; half of the 100 ms / 1 s windows hold an incident.
Scene Phase3Scene(const Stream& s) {
  Scene sc;
  sc.region_lo = s.phase_start[3];
  sc.region_hi = s.phase_end[3];
  for (const loom::Incident& inc : s.incidents) {
    sc.app_anchors.push_back(inc.request_ts);
    sc.pkt_anchors.push_back(inc.packet_ts);
  }
  sc.strata = {
      {100 * kMs, 2 * kMs, false, false, 8},   {100 * kMs, 2 * kMs, true, false, 8},
      {1 * kSec, 20 * kMs, false, false, 24},  {1 * kSec, 20 * kMs, true, false, 24},
      {0, 200 * kMs, false, true, 2},
  };
  return sc;
}

// Archived windows: phase 1, which demotion moves wholly to the cold tier.
Scene ArchivedScene(const Stream& s) {
  Scene sc;
  sc.region_lo = s.phase_start[1];
  sc.region_hi = s.phase_end[1];
  sc.raw_source = loom::kAppSource;
  sc.corr_source = loom::kAppSource;
  sc.strata = {
      {100 * kMs, 2 * kMs, false, false, 16},
      {1 * kSec, 20 * kMs, false, false, 48},
      {0, 200 * kMs, false, true, 2},
  };
  return sc;
}

LoomOptions BaseOptions(const std::string& dir, loom::Clock* clock) {
  LoomOptions opts;
  opts.dir = dir;
  opts.clock = clock;
  return opts;
}

// The four standing queries of the investigate workload: 100 ms windows
// (virtual time), evaluated at seal while the stream is preloaded.
std::vector<loom::StandingQuerySpec> StandingSpecs(const Schema& schema) {
  auto spec = [](const char* name, uint32_t src, uint32_t idx, loom::StandingAggregate agg) {
    loom::StandingQuerySpec s;
    s.name = name;
    s.source_id = src;
    s.index_id = idx;
    s.aggregate = agg;
    s.window_nanos = 100 * kMs;
    return s;
  };
  return {spec("app_count", loom::kAppSource, schema.app_latency, loom::StandingAggregate::kCount),
          spec("app_max", loom::kAppSource, schema.app_latency, loom::StandingAggregate::kMax),
          spec("syscall_mean", loom::kSyscallSource, schema.syscall_latency,
               loom::StandingAggregate::kMean),
          spec("packet_count", loom::kPacketSource, schema.packet_dport,
               loom::StandingAggregate::kCount)};
}

loom::Status RegisterStanding(Loom* l, const Schema& schema) {
  for (const loom::StandingQuerySpec& s : StandingSpecs(schema)) {
    auto id = l->RegisterStandingQuery(s);
    if (!id.ok()) {
      return id.status();
    }
  }
  return loom::Status::Ok();
}

// Open + schema timings (seconds) of `n` throwaway engines: capture's
// set-up, whose single-digit-millisecond cost needs many samples.
std::vector<double> TimeOpens(const std::string& dir, int n, Outcome* o) {
  std::vector<double> samples;
  for (int i = 0; i < n; ++i) {
    Engine e;
    const LoomOptions opts = BaseOptions(dir, nullptr);
    ResetDirs(opts);
    const uint64_t t0 = WallNs();
    loom::Status st = OpenEngine(opts, &e);
    samples.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    ++o->attempted;
    if (!st.ok()) {
      ++o->failed;
      std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
    }
  }
  return samples;
}

// Every 16th emitted standing window must equal the one-shot aggregate over
// the same range. Returns failures; *sampled receives the windows checked.
uint64_t CheckStanding(const Loom* l, const Schema& schema,
                       const std::vector<loom::StandingEvent>& events, uint64_t* sampled) {
  const std::vector<loom::StandingQuerySpec> specs = StandingSpecs(schema);
  uint64_t bad = 0;
  size_t n = 0;
  for (const loom::StandingEvent& ev : events) {
    const loom::StandingWindowResult& w = ev.window;
    if (ev.kind != loom::StandingEvent::Kind::kWindow || n++ % 16 != 0 || w.query_id == 0 ||
        w.query_id > specs.size()) {
      continue;
    }
    const loom::StandingQuerySpec& spec = specs[w.query_id - 1];
    const loom::AggregateMethod method =
        spec.aggregate == loom::StandingAggregate::kCount ? loom::AggregateMethod::kCount
        : spec.aggregate == loom::StandingAggregate::kMax ? loom::AggregateMethod::kMax
                                                          : loom::AggregateMethod::kMean;
    auto v = l->IndexedAggregate(spec.source_id, spec.index_id, {w.window_start, w.window_end},
                                 method);
    const bool same = w.has_value ? v.ok() && v.value() == w.value
                                  : !v.ok() && v.status().code() == loom::StatusCode::kNotFound;
    ++*sampled;
    if (!same) {
      ++bad;
      std::fprintf(stderr, "check: standing %s window %llu differs\n", spec.name.c_str(),
                   static_cast<unsigned long long>(w.window_index));
    }
  }
  if (*sampled == 0) {
    ++bad;
    std::fprintf(stderr, "check: no standing windows emitted\n");
  }
  return bad;
}

// syncfs(2) on the filesystem holding `dir`.
void SyncFilesystem(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    syncfs(fd);
    close(fd);
  }
}

// An untimed capture into a throwaway engine at the start of every run. On a
// 4-vCPU VM, the first ~second of heavy page allocation after the machine
// idled ran 2x slower (10k+ involuntary context switches on the pushing
// thread); the warm-up absorbs that.
void WarmUp(const Ctx& c, Outcome* o) {
  Engine e;
  e.clock = std::make_unique<loom::ManualClock>(1);
  const std::string dir = c.data + "/warmup";
  const LoomOptions opts = BaseOptions(dir, e.clock.get());
  ResetDirs(opts);
  loom::Status st = OpenEngine(opts, &e);
  ++o->attempted;
  if (!st.ok()) {
    ++o->failed;
    std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
    return;
  }
  const IngestSample w = Capture(e.loom.get(), *c.stream, e.clock.get(), nullptr);
  o->attempted += w.records;
  o->failed += w.failed;
  DiscardEngine(&e, dir);
}

// Moves everything below the retention floor into archives.
loom::Status DemoteAll(Loom* l, Tracer* tracer) {
  for (;;) {
    const size_t before = l->ArchiveCount();
    Tracer::Scope span(tracer, "demote");
    loom::Status st = l->DemoteNow();
    if (!st.ok() || l->ArchiveCount() == before) {
      return st;
    }
  }
}

// Phase 1 must be served wholly from archives and phase 3 wholly hot, with
// the phase-1 count unchanged. Returns failures.
uint64_t CheckTiers(const Loom* l, const Schema& schema, const Stream& s) {
  uint64_t failed = 0;
  loom::QueryTrace t1, t3;
  auto n1 = l->IndexedAggregate(loom::kAppSource, schema.app_latency,
                                {s.phase_start[1], s.phase_end[1]}, loom::AggregateMethod::kCount,
                                0.0, &t1);
  const auto want = RangeOf(s.app_ts, s.phase_start[1], s.phase_end[1]);
  if (!n1.ok() || static_cast<uint64_t>(n1.value()) != want.second - want.first ||
      t1.tier_chunks_considered == 0 || t1.tier_chunks_considered != t1.chunks_considered) {
    std::fprintf(stderr, "check: phase 1 not wholly archived: %s\n", t1.ToString().c_str());
    ++failed;
  }
  auto n3 = l->IndexedAggregate(loom::kPacketSource, schema.packet_dport,
                                {s.phase_start[3], s.phase_end[3]}, loom::AggregateMethod::kCount,
                                0.0, &t3);
  if (!n3.ok() || static_cast<uint64_t>(n3.value()) != s.packet_records ||
      t3.tier_chunks_considered != 0) {
    std::fprintf(stderr, "check: phase 3 not wholly hot: %s\n", t3.ToString().c_str());
    ++failed;
  }
  return failed;
}

// The three preloaded workloads share one shape: `setups` engines are each
// opened and fed the whole stream (history also demotes); the first one is
// kept and answers the script, whose timed passes are spread between the
// later set-ups so that slow drifts of machine speed average out.
struct PreloadPlan {
  int setups = 0;
  int passes = 0;
  bool history = false;
  // Set-up is Open + schema only (capture); otherwise it is Open + schema +
  // preload + Sync (+ demotion).
  bool open_only = false;
  // Register the four standing queries before every preload (investigate).
  bool standing = false;
};

Outcome RunPreloaded(const Ctx& c, const PreloadPlan& plan) {
  Outcome o;
  WarmUp(c, &o);
  const Stream& s = *c.stream;
  const double payload = static_cast<double>(s.payload_bytes);
  const Scene scene = plan.history ? ArchivedScene(s) : Phase3Scene(s);
  const std::vector<Step> steps = MakeScript(scene, c.args.seed);
  std::vector<double> opens;
  if (plan.open_only) {
    opens = TimeOpens(c.data + "/open", kOpenRepeats, &o);
  }
  std::vector<IngestSample> samples;
  std::vector<double> setups, demotes;
  std::vector<Answer> expected;
  Engine q;  // the engine the script runs against
  TypeLayer layers[kNumQTypes];
  ScriptStats qs;
  ReadCounters rc;
  std::unique_ptr<ScriptRunner> runner;
  int passes_run = 0;
  for (int i = 0; i < plan.setups; ++i) {
    Engine t;
    Engine& e = i == 0 ? q : t;
    const std::string dir = c.data + (i == 0 ? "/query" : "/setup");
    e.clock = std::make_unique<loom::ManualClock>(1);
    LoomOptions opts = BaseOptions(dir, e.clock.get());
    if (plan.history) {
      // Keep phase 3 (plus padding slack and one block) hot; phases 1-2
      // fall below the floor and are demoted.
      opts.record_retain_bytes = s.phase3_log_bytes + s.phase3_log_bytes / 200 + (4u << 20);
      opts.archive_dir = dir + "/archive";
    }
    ResetDirs(opts);
    const uint64_t t0 = WallNs();
    loom::Status st = OpenEngine(opts, &e);
    opens.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
    if (st.ok() && plan.standing) {
      st = RegisterStanding(e.loom.get(), e.schema);
    }
    ++o.attempted;
    if (!st.ok()) {
      ++o.failed;
      std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
      return o;
    }
    std::shared_ptr<loom::StandingSubscription> sub;
    if (plan.standing && i == 0) {
      sub = e.loom->SubscribeStanding(0, 1 << 16);
    }
    samples.push_back(Capture(e.loom.get(), s, e.clock.get(), c.tracer));
    double setup = static_cast<double>(WallNs() - t0) * 1e-9;
    o.attempted += samples.back().records + 3;
    o.failed += samples.back().failed + CheckSourceCounts(e.loom.get(), e.schema, s);
    if (i == 0) {
      // Untimed: write the query engine's logs back now, so the kernel's
      // background writeback does not start in the middle of a later timed
      // phase (the preloads dirty several GB of page cache per run).
      SyncFilesystem(dir);
      if (sub != nullptr) {
        uint64_t sampled = 0;
        o.failed += CheckStanding(e.loom.get(), e.schema, sub->Poll(1 << 16, 0), &sampled);
        o.attempted += sampled;
        const loom::MetricsSnapshot m = e.loom->metrics()->Snapshot();
        o.layer["standing.windows_emitted"] = CounterOr0(m, "loom_standing_windows_emitted_total");
        o.layer["standing.dropped"] =
            CounterOr0(m, "loom_standing_events_dropped_total") + static_cast<double>(sub->dropped());
        sub->Close();
      }
      // Checked answers, outside the set-up timing; in history they are
      // recorded before demotion and every later pass must reproduce them.
      ReadConditions(e.loom.get(), &o.cond);
      o.failed += CheckIncidents(e.loom.get(), e.schema, s);
      expected = VerifyPass(e.loom.get(), e.schema, scene, s, steps, &o.failed);
      o.attempted += 1 + steps.size();
    }
    if (plan.history) {
      const uint64_t d0 = WallNs();
      st = DemoteAll(e.loom.get(), c.tracer);
      const double demote = static_cast<double>(WallNs() - d0) * 1e-9;
      demotes.push_back(demote);
      setup += demote;
      ++o.attempted;
      if (!st.ok()) {
        ++o.failed;
        std::fprintf(stderr, "demote: %s\n", st.ToString().c_str());
      }
      o.failed += CheckTiers(e.loom.get(), e.schema, s) + CheckSourceCounts(e.loom.get(), e.schema, s);
      o.attempted += 5;
      if (i == 0) {
        o.layer["tier.archives"] = static_cast<double>(e.loom->ArchiveCount());
      }
    }
    setups.push_back(setup);
    if (i == 0) {
      runner = std::make_unique<ScriptRunner>(q.loom.get(), q.schema, scene, c.tracer,
                                              c.tracer ? layers : nullptr);
      rc.Begin(q.loom.get());
    } else {
      DiscardEngine(&t, dir);
    }
    // Passes due after this set-up: plan.passes spread evenly over setups.
    const int due = (i + 1) * plan.passes / plan.setups;
    RunPasses(*runner, steps, due - passes_run, &expected, &qs);
    passes_run = due;
  }
  rc.End(q.loom.get(), qs.steps, &o.layer);
  o.attempted += qs.steps;
  o.failed += qs.failed;
  ScriptMetrics(qs, &o.e2e);
  TypeLayerMetrics(layers, &o.layer);
  runner.reset();
  const std::string qdir = c.data + "/query";
  const double stored = static_cast<double>(CloseEngine(&q, qdir));
  IngestMetrics(samples, payload, &o);
  IndexFileMetrics(qdir, payload, &o);
  if (plan.history) {
    o.layer["tier.demote_s"] = Median(demotes);
    o.layer["tier.archive_bytes_per_user_byte"] =
        static_cast<double>(AllocatedBytes(qdir + "/archive")) / payload;
  }
  o.e2e["setup_s"] = Median(plan.open_only ? opens : setups);
  o.e2e["stored_bytes_per_user_byte"] = stored / payload;
  return o;
}

Outcome RunWorkload(const Ctx& c) {
  const int sec = c.args.seconds;
  PreloadPlan plan;
  if (c.args.workload == "capture") {
    const int captures = Scaled(sec + 1, 2, 2, 16);
    plan = {captures, captures / 2, false, true, false};
  } else {
    const int setups = Scaled(sec, 3, 2, 10);
    const bool history = c.args.workload == "history";
    plan = {setups, history ? setups - 1 : setups + 1, history, false, !history};
  }
  return RunPreloaded(c, plan);
}

// --- Output -----------------------------------------------------------------

void PrintMetrics(const std::vector<MetricDef>& defs, const std::map<std::string, double>& values) {
  bool first = true;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", d.name.c_str(),
                std::isfinite(v) ? v : 0.0, d.unit.c_str());
    first = false;
  }
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--scale") a.scale = std::atof(v);
    else if (k == "--dir") a.dir = v;
    else if (k == "--out") a.out = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  if (a.workload != "capture" && a.workload != "investigate" && a.workload != "history") {
    std::fprintf(stderr, "--workload must be capture, investigate or history\n");
    return 2;
  }
  if (a.seconds < 1 || a.scale <= 0) {
    std::fprintf(stderr, "--seconds must be >= 1 and --scale > 0\n");
    return 2;
  }
  std::unique_ptr<Stream> stream = GenerateStream(a.scale, a.seed);
  Ctx c;
  c.args = a;
  c.stream = stream.get();
  c.data = a.dir + "/" + a.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(c.data, ec);
  const std::string fstype = FsType(c.data);

  Outcome o = RunWorkload(c);
  std::map<std::string, double> metrics = o.e2e;
  if (a.trace != 0) {
    Tracer tracer;
    c.tracer = &tracer;
    Outcome t = RunWorkload(c);
    for (const MetricDef& m : EndToEndMetrics()) {
      const double base = o.e2e[m.name];
      t.layer["trace_overhead." + m.name] = base != 0 ? t.e2e[m.name] / base - 1.0 : 0.0;
    }
    t.layer["env.push_ivcsw"] = t.cond.push_ivcsw;
    t.layer["env.nproc"] = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
    t.layer["env.kernel_mode"] = t.cond.kernel_mode;
    t.layer["env.io_backend_mode"] = t.cond.io_mode;
    t.layer["env.seal_shards"] = t.cond.seal_shards;
    metrics = t.layer;
    o.attempted += t.attempted;
    o.failed += t.failed;
    fs::create_directories(a.out, ec);
    const std::string path = a.out + "/spans-" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      tracer.WriteJsonLines(f);
      std::fclose(f);
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> self;
    tracer.AccumulateSelf(&self);
    std::printf("{\"span_self_ms\": {");
    bool first = true;
    for (const auto& [name, v] : self) {
      std::printf("%s\"%s\": {\"self_ms\": %.6f, \"spans\": %llu}", first ? "" : ", ", name.c_str(),
                  static_cast<double>(v.first) * 1e-6, static_cast<unsigned long long>(v.second));
      first = false;
    }
    std::printf("}, \"spans_file\": \"%s\"}\n", path.c_str());
  }
  fs::remove_all(c.data, ec);

  std::string env;
  for (const char* name : {"LOOM_INGEST", "LOOM_IO", "LOOM_SIMD"}) {
    if (const char* v = std::getenv(name)) {
      env += std::string(env.empty() ? "" : ", ") + "\"" + name + "\": \"" + v + "\"";
    }
  }
  std::printf(
      "{\"conditions\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"scale\": %g, \"records\": %zu, \"payload_bytes\": %llu, \"nproc\": %ld, "
      "\"kernel\": \"%s\", \"io_backend\": \"%s\", \"ingest\": \"%s\", \"env_overrides\": {%s}, "
      "\"data_fs\": \"%s\", \"push_ivcsw\": %.0f}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace, a.scale,
      stream->events.size(), static_cast<unsigned long long>(stream->payload_bytes),
      sysconf(_SC_NPROCESSORS_ONLN), o.cond.kernel.c_str(), o.cond.io_backend.c_str(),
      o.cond.ingest.c_str(), env.c_str(), fstype.c_str(), o.cond.push_ivcsw);

  bool correct = o.failed == 0;
  for (const MetricDef& m : EndToEndMetrics()) {
    const double v = o.e2e[m.name];
    if (!(std::isfinite(v) && v > 0)) {
      correct = false;
      std::fprintf(stderr, "metric %s = %g is not a positive number\n", m.name.c_str(), v);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  PrintMetrics(a.trace != 0 ? LayerMetrics() : EndToEndMetrics(), metrics);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
