#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Measurement helpers shared by every workload: a log-linear latency
// histogram, the run report and its JSON line, and small readers for
// /proc and histogram snapshots.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency histogram with 64 linear sub-buckets per power of two (1.6%
/// relative width). Cheap enough to record every transaction of a run;
/// percentiles interpolate by rank inside the bucket, so they are not
/// quantized to bucket edges.
class LogHist {
 public:
  static constexpr int kSub = 64;
  static constexpr int kSubBits = 6;

  void Record(uint64_t v) {
    ++buckets_[Index(v)];
    ++count_;
  }
  void Merge(const LogHist& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }

  /// Value at quantile p in [0,1]; 0 for an empty histogram.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    const double rank = p * static_cast<double>(count_ - 1);
    double cum = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      const double n = static_cast<double>(buckets_[i]);
      if (n == 0) continue;
      if (cum + n > rank) {
        const double lo = static_cast<double>(Lower(i));
        const double hi = static_cast<double>(Lower(i + 1));
        return lo + (hi - lo) * ((rank - cum + 0.5) / n);
      }
      cum += n;
    }
    return static_cast<double>(Lower(buckets_.size()));
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const uint64_t m = (v >> (e - kSubBits)) & (kSub - 1);
    return static_cast<size_t>((e - kSubBits + 1) * kSub) + m;
  }
  static uint64_t Lower(size_t i) {
    if (i < static_cast<size_t>(kSub)) return i;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    const uint64_t m = i % kSub;
    if (e >= 63) return ~0ULL;
    return (uint64_t{1} << e) + (m << (e - kSubBits));
  }

  std::array<uint64_t, (64 - kSubBits + 1) * kSub> buckets_{};
  uint64_t count_ = 0;
};

/// Percentile of an engine phase histogram (power-of-two buckets), in
/// microseconds, interpolated by rank inside the bucket holding it.
inline double PhaseUs(const mv3c::obs::HistogramSnapshot& h, double p) {
  if (h.count == 0) return 0;
  const double rank = p * static_cast<double>(h.count - 1);
  double cum = 0;
  for (int i = 0; i < mv3c::obs::kHistogramBuckets; ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n == 0) continue;
    if (cum + n > rank) {
      const double lo = i == 0 ? 0 : std::ldexp(1.0, i);
      double hi = std::ldexp(1.0, i + 1);
      hi = std::min(hi, static_cast<double>(h.max_ticks) + 1);
      const double ticks = lo + (hi - lo) * ((rank - cum + 0.5) / n);
      return ticks / h.ticks_per_ns / 1e3;
    }
    cum += n;
  }
  return static_cast<double>(h.max_ticks) / h.ticks_per_ns / 1e3;
}

/// A field of /proc/<pid>/status in KiB (VmHWM, VmRSS); -1 if absent.
inline double ProcStatusKib(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  return -1;
}

/// Aggregate CPU ticks from /proc/stat: time stolen by the hypervisor and
/// the total, so a run can report how much of the box it did not get.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

inline CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

inline double StealPct(const CpuTicks& a, const CpuTicks& b) {
  const uint64_t total = b.total - a.total;
  return total == 0 ? 0 : 100.0 * static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(total);
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// One run's outcome: the operation counts, the correctness verdict with
/// its reasons, and the metrics of both kinds (main prints the kind the
/// run was asked for).
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // each one fails the run
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit)});
  }
  void Layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
  void Fail(std::string why) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    errors.push_back(std::move(why));
  }
  bool correct() const { return errors.empty(); }

  std::string Json(bool trace) const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    const auto& ms = trace ? per_layer : end_to_end;
    for (size_t i = 0; i < ms.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof(num), "%.10g", ms[i].value);
      if (i != 0) out += ", ";
      out += "\"" + ms[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
             ms[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
