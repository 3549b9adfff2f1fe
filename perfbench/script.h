// The seeded query script: six investigation query types over windows whose
// sizes are fixed per stratum and whose positions come from --seed.
//
//   percentile   IndexedAggregate(kPercentile, 99.99) on app latency  (Fig. 12 P1/P2 step 1)
//   valscan      IndexedScanValues above that threshold, same window  (P1/P2 step 2)
//   summary_agg  IndexedAggregate kMax then kCount on app latency     (P3 max latency)
//   rawscan      RawScan of one source over a narrow window
//   exact_match  IndexedScan on packet dport == kMangledPort          (Fig. 17 needle)
//   drilldown    DrillDown::TopK(6) + CorrelateAround +/-1 ms          (P3 packet dump)
//
// Every stratum contributes the same number of steps of every type, so a
// type's median always falls in the same window-size class whatever the
// seed; only window positions move. Answers are summarized into an Answer
// so a pass can be compared with a brute-force reference or with an
// earlier pass.

#ifndef PERFBENCH_SCRIPT_H_
#define PERFBENCH_SCRIPT_H_

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench_support.h"
#include "perfbench/stream.h"
#include "src/common/rng.h"
#include "src/core/loom.h"
#include "src/query/drilldown.h"

namespace perfbench {

enum QType { kPercentile = 0, kValScan, kSummaryAgg, kRawScan, kExactMatch, kDrillDown, kNumQTypes };
inline const char* const kQTypeName[kNumQTypes] = {"percentile",  "valscan",     "summary_agg",
                                                    "rawscan",     "exact_match", "drilldown"};

inline constexpr size_t kTopK = 6;
inline constexpr TimestampNanos kCorrelateWindow = loom::kNanosPerMilli;

// Where a script's windows live.
struct Scene {
  // Random windows are placed inside [region_lo, region_hi]; the "whole"
  // stratum is exactly that region.
  TimestampNanos region_lo = 0;
  TimestampNanos region_hi = 0;
  // Incident anchors: request times (app-latency queries) and mangled-packet
  // times (packet queries). Empty = anchored strata place windows randomly.
  std::vector<TimestampNanos> app_anchors;
  std::vector<TimestampNanos> pkt_anchors;
  uint32_t raw_source = loom::kPacketSource;
  uint32_t corr_source = loom::kPacketSource;

  struct Stratum {
    TimestampNanos width = 0;      // app / packet windows
    TimestampNanos raw_width = 0;  // rawscan windows
    bool anchored = false;
    bool whole = false;            // window = the whole region
    int reps = 1;
  };
  std::vector<Stratum> strata;
};

struct Step {
  QType type = kPercentile;
  uint64_t id = 0;  // 1-based, unique within the script
  TimestampNanos lo = 0;  // inclusive window
  TimestampNanos hi = 0;
};

// One script pass. Percentile steps are immediately followed by the valscan
// step over the same window, which uses the percentile answer as threshold.
// Window positions are stratified: the r-th of R random windows of a
// stratum starts at a seeded point of the r-th R-th of the region, and
// anchored windows take the incidents in turn from a seeded offset, so the
// share of windows that hold an incident hardly moves between seeds.
inline std::vector<Step> MakeScript(const Scene& scene, uint64_t seed) {
  loom::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<Step> steps;
  auto place = [&](const Scene::Stratum& st, int r, TimestampNanos width,
                   const std::vector<TimestampNanos>& anchors, uint64_t offset,
                   bool whole) -> std::pair<TimestampNanos, TimestampNanos> {
    if (whole) {
      return {scene.region_lo, scene.region_hi};
    }
    const TimestampNanos room = scene.region_hi - scene.region_lo - width;
    TimestampNanos lo = 0;
    if (st.anchored && !anchors.empty()) {
      const TimestampNanos a = anchors[(offset + static_cast<uint64_t>(r)) % anchors.size()];
      const auto back = static_cast<TimestampNanos>(
          static_cast<double>(width) * rng.NextUniform(0.1, 0.9));
      lo = a > scene.region_lo + back ? a - back : scene.region_lo;
    } else {
      const double at = (static_cast<double>(r) + rng.NextDouble()) / static_cast<double>(st.reps);
      lo = scene.region_lo + static_cast<TimestampNanos>(at * static_cast<double>(room));
    }
    lo = std::min(lo, scene.region_lo + room);
    return {lo, lo + width - 1};
  };
  for (const Scene::Stratum& st : scene.strata) {
    const uint64_t app_offset = rng.Next64();
    const uint64_t pkt_offset = rng.Next64();
    for (int r = 0; r < st.reps; ++r) {
      for (int t = 0; t < kNumQTypes; ++t) {
        const QType type = static_cast<QType>(t);
        if (type == kValScan) {
          Step v = steps.back();  // the percentile step just emitted
          v.type = kValScan;
          v.id = steps.size() + 1;
          steps.push_back(v);
          continue;
        }
        const bool packets = type == kRawScan || type == kExactMatch;
        const auto w = place(st, r, type == kRawScan ? st.raw_width : st.width,
                             packets ? scene.pkt_anchors : scene.app_anchors,
                             packets ? pkt_offset : app_offset, st.whole && type != kRawScan);
        steps.push_back(Step{type, steps.size() + 1, w.first, w.second});
      }
    }
  }
  // Page back in time: newest windows first, whole-region windows last. A
  // whole-region pass leaves the summary cache holding the newest part of
  // the region, so this order makes the share of cached windows depend on
  // window positions (stratified above) rather than on query order.
  auto is_whole = [&](const Step& st) {
    return st.lo == scene.region_lo && st.hi == scene.region_hi;
  };
  std::stable_sort(steps.begin(), steps.end(), [&](const Step& a, const Step& b) {
    if (is_whole(a) != is_whole(b)) {
      return !is_whole(a);
    }
    return a.lo > b.lo;
  });
  for (size_t i = 0; i < steps.size(); ++i) {
    steps[i].id = i + 1;
  }
  return steps;
}

// Summary of one step's result, compared field by field.
struct Answer {
  bool ok = false;     // status OK and internal invariants held
  uint64_t count = 0;
  double value = 0.0;
  double value2 = 0.0;
  uint64_t check = 0;  // sum of result timestamps (or mangled-packet count)
  bool operator==(const Answer& o) const {
    return ok == o.ok && count == o.count && value == o.value && value2 == o.value2 &&
           check == o.check;
  }
};

// Per-type layer counters, summed over steps (traced runs only).
struct TypeLayer {
  double steps = 0;
  double chunks_considered = 0;
  double chunks_pruned = 0;
  double records_examined = 0;
  double records_matched = 0;
  double bytes_read = 0;
  double plan_ns = 0, scan_ns = 0, merge_ns = 0, total_ns = 0;
  double tier_considered = 0, tier_pruned = 0, tier_bytes = 0;
  double topk_ns = 0, correlate_ns = 0;

  void Add(const loom::QueryTrace& t) {
    chunks_considered += static_cast<double>(t.chunks_considered);
    chunks_pruned += static_cast<double>(t.chunks_pruned);
    records_examined += static_cast<double>(t.records_examined);
    records_matched += static_cast<double>(t.records_matched);
    bytes_read += static_cast<double>(t.bytes_read);
    plan_ns += static_cast<double>(t.plan_nanos);
    scan_ns += static_cast<double>(t.scan_nanos);
    merge_ns += static_cast<double>(t.merge_nanos);
    total_ns += static_cast<double>(t.total_nanos);
    tier_considered += static_cast<double>(t.tier_chunks_considered);
    tier_pruned += static_cast<double>(t.tier_chunks_pruned);
    tier_bytes += static_cast<double>(t.tier_bytes_read);
  }
};

class ScriptRunner {
 public:
  // `layers` (nullable) receives per-type QueryTrace sums; passing it is
  // what makes the runner hand QueryTraces to the engine.
  ScriptRunner(const loom::Loom* l, const Schema& schema, const Scene& scene, Tracer* tracer,
               TypeLayer* layers)
      : l_(l), dd_(l), schema_(schema), scene_(scene), tracer_(tracer), layers_(layers) {}

  // Runs one step; *latency_ns receives the wall time of the engine calls.
  // `threshold` is the preceding percentile answer (valscan only).
  Answer Run(const Step& step, double threshold, uint64_t* latency_ns) {
    const loom::TimeRange w{step.lo, step.hi};
    loom::QueryTrace trace;
    loom::QueryTrace* tr = layers_ != nullptr ? &trace : nullptr;
    Answer a;
    // DrillDown takes no QueryTrace: its layer numbers are counter deltas.
    loom::MetricsSnapshot m0;
    if (layers_ != nullptr && step.type == kDrillDown) {
      m0 = l_->metrics()->Snapshot();
    }
    Tracer::Scope span(tracer_, kQTypeName[step.type], step.id);
    const uint64_t t0 = WallNs();
    switch (step.type) {
      case kPercentile: {
        Tracer::Scope call(tracer_, "IndexedAggregate");
        auto v = l_->IndexedAggregate(loom::kAppSource, schema_.app_latency, w,
                                      loom::AggregateMethod::kPercentile, 99.99, tr);
        a.ok = v.ok() && std::isfinite(v.value());
        a.value = v.ok() ? v.value() : 0.0;
        break;
      }
      case kValScan: {
        Tracer::Scope call(tracer_, "IndexedScanValues");
        double max = -DBL_MAX;
        bool in_range = true;
        loom::Status st = l_->IndexedScanValues(
            loom::kAppSource, schema_.app_latency, w, {threshold, DBL_MAX},
            [&](double v, const loom::RecordView& r) {
              ++a.count;
              max = std::max(max, v);
              a.check += r.ts;
              in_range = in_range && v >= threshold && w.Contains(r.ts);
              return true;
            },
            tr);
        a.ok = st.ok() && in_range && a.count > 0;
        a.value = max;
        break;
      }
      case kSummaryAgg: {
        Tracer::Scope call(tracer_, "IndexedAggregate");
        loom::QueryTrace trace2;
        auto mx = l_->IndexedAggregate(loom::kAppSource, schema_.app_latency, w,
                                       loom::AggregateMethod::kMax, 0.0, tr);
        auto n = l_->IndexedAggregate(loom::kAppSource, schema_.app_latency, w,
                                      loom::AggregateMethod::kCount, 0.0,
                                      tr != nullptr ? &trace2 : nullptr);
        if (tr != nullptr) {
          layers_[kSummaryAgg].Add(trace2);
        }
        a.ok = mx.ok() && n.ok() && n.value() > 0;
        a.value = mx.ok() ? mx.value() : 0.0;
        a.count = n.ok() ? static_cast<uint64_t>(n.value()) : 0;
        break;
      }
      case kRawScan: {
        Tracer::Scope call(tracer_, "RawScan");
        TimestampNanos prev = ~0ull;
        bool ordered = true;
        loom::Status st = l_->RawScan(
            scene_.raw_source, w,
            [&](const loom::RecordView& r) {
              ++a.count;
              a.check += r.ts;
              ordered = ordered && r.ts <= prev && w.Contains(r.ts) &&
                        r.source_id == scene_.raw_source;
              prev = r.ts;
              return true;
            },
            tr);
        a.ok = st.ok() && ordered;
        break;
      }
      case kExactMatch: {
        Tracer::Scope call(tracer_, "IndexedScan");
        bool exact = true;
        const double port = static_cast<double>(loom::kMangledPort);
        loom::Status st = l_->IndexedScan(
            loom::kPacketSource, schema_.packet_dport, w, {port, port},
            [&](const loom::RecordView& r) {
              ++a.count;
              a.check += r.ts;
              exact = exact && loom::PacketDport(r.payload) == loom::kMangledPort &&
                      w.Contains(r.ts);
              return true;
            },
            tr);
        a.ok = st.ok() && exact;
        break;
      }
      case kDrillDown: {
        std::vector<TimestampNanos> anchors;
        const uint64_t k0 = WallNs();
        {
          Tracer::Scope call(tracer_, "TopK");
          auto hits = dd_.TopK(loom::kAppSource, schema_.app_latency, w, kTopK);
          a.ok = hits.ok() && hits->size() == kTopK;
          if (hits.ok()) {
            double prev = DBL_MAX;
            for (const loom::RecordHit& h : hits.value()) {
              a.ok = a.ok && h.value <= prev && w.Contains(h.ts);
              prev = h.value;
              a.value += h.value;
              anchors.push_back(h.ts);
            }
            a.count = hits->size();
          }
        }
        const uint64_t k1 = WallNs();
        {
          Tracer::Scope call(tracer_, "CorrelateAround");
          loom::Status st = dd_.CorrelateAround(
              anchors, scene_.corr_source, kCorrelateWindow,
              [&](size_t, const loom::RecordView& r) {
                a.value2 += 1.0;
                if (r.source_id == loom::kPacketSource &&
                    loom::PacketDport(r.payload) == loom::kMangledPort) {
                  ++a.check;
                }
                return true;
              });
          a.ok = a.ok && st.ok();
        }
        if (layers_ != nullptr) {
          layers_[kDrillDown].topk_ns += static_cast<double>(k1 - k0);
          layers_[kDrillDown].correlate_ns += static_cast<double>(WallNs() - k1);
        }
        break;
      }
      default:
        break;
    }
    *latency_ns = WallNs() - t0;
    if (layers_ != nullptr) {
      TypeLayer& tl = layers_[step.type];
      tl.steps += 1;
      if (step.type == kDrillDown) {
        const loom::MetricsSnapshot m1 = l_->metrics()->Snapshot();
        auto d = [&](const char* name) { return CounterOr0(m1, name) - CounterOr0(m0, name); };
        tl.chunks_considered += d("loom_query_chunks_considered_total");
        tl.chunks_pruned += d("loom_query_chunks_pruned_total");
        tl.records_examined += d("loom_query_records_examined_total");
        tl.records_matched += static_cast<double>(a.count);
        tl.bytes_read += d("loom_query_read_bytes");
        tl.tier_considered += d("loom_tier_blocks_considered_total");
        tl.tier_pruned += d("loom_tier_blocks_pruned_total");
        tl.tier_bytes += d("loom_tier_read_bytes");
        tl.total_ns += static_cast<double>(*latency_ns);
      } else {
        tl.Add(trace);
      }
    }
    return a;
  }

 private:
  const loom::Loom* l_;
  loom::DrillDown dd_;
  const Schema& schema_;
  const Scene& scene_;
  Tracer* tracer_;
  TypeLayer* layers_;
};

// Brute-force answer of a step over the in-memory stream. Mirrors the engine's definitions: nearest-rank percentile, value
// ranges inclusive, TopK by descending value.
inline Answer Reference(const Stream& s, const Scene& scene, const Step& step, double threshold) {
  Answer a;
  a.ok = true;
  const auto app = RangeOf(s.app_ts, step.lo, step.hi);
  const auto pkt = RangeOf(s.pkt_ts, step.lo, step.hi);
  switch (step.type) {
    case kPercentile: {
      std::vector<double> v(s.app_latency.begin() + static_cast<long>(app.first),
                            s.app_latency.begin() + static_cast<long>(app.second));
      if (v.empty()) {
        a.ok = false;
        break;
      }
      uint64_t rank = static_cast<uint64_t>(std::ceil(99.99 / 100.0 * static_cast<double>(v.size())));
      rank = std::max<uint64_t>(1, std::min<uint64_t>(rank, v.size()));
      std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
      a.value = v[rank - 1];
      break;
    }
    case kValScan: {
      double max = -DBL_MAX;
      for (size_t i = app.first; i < app.second; ++i) {
        if (s.app_latency[i] >= threshold) {
          ++a.count;
          max = std::max(max, s.app_latency[i]);
          a.check += s.app_ts[i];
        }
      }
      a.ok = a.count > 0;
      a.value = max;
      break;
    }
    case kSummaryAgg: {
      double max = -DBL_MAX;
      for (size_t i = app.first; i < app.second; ++i) {
        max = std::max(max, s.app_latency[i]);
      }
      a.count = app.second - app.first;
      a.ok = a.count > 0;
      a.value = max;
      break;
    }
    case kRawScan: {
      const bool use_app = scene.raw_source == loom::kAppSource;
      const auto& ts = use_app ? s.app_ts : s.pkt_ts;
      const auto r = use_app ? app : pkt;
      for (size_t i = r.first; i < r.second; ++i) {
        a.check += ts[i];
      }
      a.count = r.second - r.first;
      break;
    }
    case kExactMatch: {
      for (size_t i = pkt.first; i < pkt.second; ++i) {
        if (s.pkt_dport[i] == loom::kMangledPort) {
          ++a.count;
          a.check += s.pkt_ts[i];
        }
      }
      break;
    }
    case kDrillDown: {
      std::vector<std::pair<double, TimestampNanos>> v;
      for (size_t i = app.first; i < app.second; ++i) {
        v.emplace_back(s.app_latency[i], s.app_ts[i]);
      }
      const size_t k = std::min(kTopK, v.size());
      std::partial_sort(v.begin(), v.begin() + static_cast<long>(k), v.end(),
                        [](const auto& x, const auto& y) { return x.first > y.first; });
      a.ok = k == kTopK;
      a.count = k;
      const bool corr_app = scene.corr_source == loom::kAppSource;
      for (size_t i = 0; i < k; ++i) {
        a.value += v[i].first;
        const TimestampNanos t = v[i].second;
        const TimestampNanos lo = t > kCorrelateWindow ? t - kCorrelateWindow : 0;
        const auto& col = corr_app ? s.app_ts : s.pkt_ts;
        const auto r = RangeOf(col, lo, t + kCorrelateWindow);
        a.value2 += static_cast<double>(r.second - r.first);
        if (!corr_app) {
          for (size_t j = r.first; j < r.second; ++j) {
            a.check += s.pkt_dport[j] == loom::kMangledPort ? 1 : 0;
          }
        }
      }
      break;
    }
    default:
      break;
  }
  return a;
}

}  // namespace perfbench

#endif  // PERFBENCH_SCRIPT_H_
