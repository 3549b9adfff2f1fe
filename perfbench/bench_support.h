// Measurement helpers for the end-to-end benchmark (loom_bench): wall and CPU
// clocks, context-switch counts, order statistics, on-disk footprint, and the
// span tracer used by traced runs.
//
// Spans are recorded only around calls into Loom's public API (a push batch,
// Sync, DemoteNow, each query, each DrillDown step), all from the benchmark's
// one thread, so spans nest strictly and a span's self time is its duration
// minus the durations of its direct children.

#ifndef PERFBENCH_BENCH_SUPPORT_H_
#define PERFBENCH_BENCH_SUPPORT_H_

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}
inline uint64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
inline uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
inline uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

// Involuntary context switches of the calling thread so far.
inline uint64_t ThreadIvcsw() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<uint64_t>(ru.ru_nivcsw);
}

// Linear-interpolated quantile, q in [0, 1] (the median of an even count is
// the mean of the middle two). Returns 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Bytes allocated on disk (st_blocks, so punched holes do not count) by
// every regular file under `dir`, or only by the file named `name` when
// given.
inline uint64_t AllocatedBytes(const std::string& dir, const std::string& name = "") {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) {
    return 0;
  }
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) {
      continue;
    }
    if (!name.empty() && it->path().filename() != name) {
      continue;
    }
    struct stat st{};
    if (stat(it->path().c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_blocks) * 512ull;
    }
  }
  return total;
}

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    uint64_t step = 0;    // script step id (0 outside the script)
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  // RAII span; a null tracer makes it a no-op, so call sites need no branch.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, uint64_t step = 0) : t_(t) {
      if (t_ != nullptr) {
        idx_ = t_->Begin(name, step);
      }
    }
    ~Scope() {
      if (t_ != nullptr) {
        t_->End(idx_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    size_t idx_ = 0;
  };

  // Self time per span name, in nanoseconds, with span counts.
  void AccumulateSelf(std::map<std::string, std::pair<uint64_t, uint64_t>>* out) const {
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& slot = (*out)[s.name];
      slot.first += (s.end_ns - s.start_ns) - std::min(child_ns[i], s.end_ns - s.start_ns);
      slot.second += 1;
    }
  }

  void WriteJsonLines(FILE* f) const {
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"step\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.step), s.name.c_str(),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }

 private:
  size_t Begin(const char* name, uint64_t step) {
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back() + 1;
    s.step = step != 0 || open_.empty() ? step : spans_[open_.back()].step;
    s.start_ns = WallNs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void End(size_t idx) {
    spans_[idx].end_ns = WallNs();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indexes of open spans, innermost last
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_SUPPORT_H_
