#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans recorded by the benchmark around its calls into each layer. A
// traced run keeps them in memory (a bounded buffer per thread) and writes
// them out as Chrome trace_event JSON when it ends; every span, kept or
// not, also feeds its layer's duration and self-time totals. A span's self
// time is its duration minus the time its children cover.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class Layer : uint8_t {
  kSubmit,       // one logical transaction, first submission to outcome
  kBegin,        // Executor::Begin (mvcc start timestamp, active slot)
  kStep,         // Executor::Step (execute/repair + validate + commit)
  kMaintenance,  // TransactionManager::CollectGarbage and queue cleanup
  kNumLayers,
};

inline const char* LayerName(Layer l) {
  static constexpr const char* kNames[] = {"submit", "begin", "step",
                                           "maintenance"};
  return kNames[static_cast<int>(l)];
}

class Tracer {
 public:
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
    LogHist dur;
  };

  Tracer(bool on, uint32_t tid, size_t cap = 20000)
      : on_(on), tid_(tid), cap_(cap) {}

  bool on() const { return on_; }
  uint64_t NewId() { return (uint64_t{tid_} << 40) | ++seq_; }

  /// Records one finished span. `child_ns` is the time its child spans
  /// cover, so self time = (t1 - t0) - child_ns.
  void Add(Layer layer, uint64_t id, uint64_t parent, uint64_t t0,
           uint64_t t1, uint64_t child_ns = 0) {
    const uint64_t d = t1 - t0;
    Totals& t = totals_[static_cast<int>(layer)];
    ++t.count;
    t.total_ns += d;
    t.self_ns += d > child_ns ? d - child_ns : 0;
    t.dur.Record(d);
    if (spans_.size() < cap_) {
      spans_.push_back({t0, t1, id, parent, layer});
    } else {
      ++dropped_;
    }
  }

  const Totals& totals(Layer l) const { return totals_[static_cast<int>(l)]; }
  void MergeTotals(const Tracer& o) {
    for (int i = 0; i < static_cast<int>(Layer::kNumLayers); ++i) {
      totals_[i].count += o.totals_[i].count;
      totals_[i].total_ns += o.totals_[i].total_ns;
      totals_[i].self_ns += o.totals_[i].self_ns;
      totals_[i].dur.Merge(o.totals_[i].dur);
    }
  }

  /// Appends this tracer's kept spans to a trace_event array body.
  void AppendJson(FILE* f, uint64_t origin_ns, bool* first) const {
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   *first ? "" : ",\n", LayerName(s.layer), tid_,
                   static_cast<double>(s.t0 - origin_ns) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      *first = false;
    }
  }
  uint64_t dropped() const { return dropped_; }
  uint64_t first_start() const {
    uint64_t t = ~0ULL;
    for (const Span& s : spans_) t = s.t0 < t ? s.t0 : t;
    return t;
  }

 private:
  struct Span {
    uint64_t t0, t1, id, parent;
    Layer layer;
  };
  bool on_;
  uint32_t tid_;
  size_t cap_;
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  Totals totals_[static_cast<int>(Layer::kNumLayers)];
};

/// Writes every tracer's kept spans to `path` (Chrome trace_event JSON),
/// with times relative to the earliest kept span.
inline bool WriteTrace(const std::string& path,
                       const std::vector<const Tracer*>& tracers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin_ns = ~0ULL;
  for (const Tracer* t : tracers) {
    origin_ns = std::min(origin_ns, t->first_start());
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  uint64_t dropped = 0;
  for (const Tracer* t : tracers) {
    t->AppendJson(f, origin_ns, &first);
    dropped += t->dropped();
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_not_kept\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
