#ifndef MV3C_OBS_METRICS_H_
#define MV3C_OBS_METRICS_H_

// Unified observability layer (DESIGN §5d): named counters plus
// log-bucketed (power-of-2, HDR-style) latency histograms for the
// per-transaction phases, shared by all five engines so that benchmark
// reports compare like with like (the CCBench lesson: protocol comparisons
// are only trustworthy with uniform, low-overhead phase instrumentation).
//
// Counters are plain uint64_t fields owned by the engines
// (src/obs/engine_stats.h); the registry only *views* them through
// registered (name, pointer, merge-rule) triples, so an increment costs
// exactly what it cost before this layer existed. Phase timers are sampled
// per transaction (kPhaseSampleEvery) and the event tracer sits behind a
// runtime enable flag (obs/trace.h), so both are always compiled in.
//
// Timing uses the TSC directly (rdtsc on x86, a steady_clock fallback
// elsewhere): a scoped timer is two register reads plus one bucket
// increment (lock-free on single-threaded executor registries, behind a
// spin lock on shared ones), cheap enough to leave on in benchmark builds
// (see EXPERIMENTS.md "Phase breakdown methodology" for the fig7a ON/OFF
// measurement).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/spinlock.h"

#if !defined(__x86_64__) && !defined(__i386__)
#include <chrono>
#endif

namespace mv3c::obs {

/// The per-transaction phase taxonomy (after Larson et al.): where a
/// transaction's wall-clock time goes between Begin and completion, plus
/// the two maintenance phases that run on behalf of all transactions.
enum class Phase : uint8_t {
  kExecute = 0,   // running the program / re-execution after restart
  kValidate,      // pre-validation & marking outside the critical section
  kRepair,        // MV3C Repair (Algorithm 2) rounds
  kCommit,        // the commit critical section (incl. in-lock delta work)
  kGc,            // TransactionManager::CollectGarbage
  kArenaRetire,   // VersionArena slab retirement/recycling
  kLogSerialize,  // WAL: write-set serialization inside the commit lock
  kLogFlush,      // WAL: one group-commit epoch round (drain+append+fsync)
  kCheckpoint,    // WAL: one fuzzy checkpoint (scan+stream+manifest publish)
  kNumPhases,
};

inline constexpr int kNumPhases = static_cast<int>(Phase::kNumPhases);

inline const char* PhaseName(Phase p) {
  static constexpr const char* kNames[kNumPhases] = {
      "execute",      "validate",  "repair",   "commit",
      "gc",           "arena_retire", "log_serialize", "log_flush",
      "checkpoint"};
  return kNames[static_cast<int>(p)];
}

/// How a counter aggregates when snapshots from several executors/threads
/// merge into one report: summed (events) or maxed (high-water marks).
enum class MergeKind : uint8_t { kSum, kMax };

/// Whether RecordPhase may be called from several threads concurrently.
/// Per-executor registries are single-threaded by construction and skip
/// the lock (an uncontended atomic exchange still costs ~20 cycles — real
/// money against a sub-100 ns validate phase); the TransactionManager's
/// registry (arena retirement can fire from any thread dropping the last
/// slab reference) and the shared SV-engine registries stay synchronized.
enum class RecordSync : uint8_t { kUnsynchronized, kSynchronized };

/// Phase timing is sampled at transaction granularity: every
/// kPhaseSampleEvery-th transaction has all of its phases timed, the rest
/// skip the timers entirely (a ScopedPhaseTimer with a null registry reads
/// no TSC). rdtsc costs ~17 ns on a virtualized container and is an
/// optimizer barrier, so timing every phase of every transaction costs
/// ~10% on fig7a's sub-2 µs transactions; 1-in-16 sampling drops that
/// under the noise floor while a quick fig7a run still collects thousands
/// of samples per phase. Histogram `count` is therefore the number of
/// *sampled* phase executions (≈ total/16), and `max` is the sampled max.
/// GC and arena-retire events are rare and stay always-timed.
inline constexpr uint32_t kPhaseSampleEvery = 16;

/// Per-owner sampling counter. Tick() is true once every
/// kPhaseSampleEvery calls (including the first, so short tests and
/// single-shot transactions still record).
class PhaseSampler {
 public:
  bool Tick() { return (n_++ % kPhaseSampleEvery) == 0; }

 private:
  uint32_t n_ = 0;
};

inline constexpr int kHistogramBuckets = 64;

/// Immutable copy of one histogram, in TSC ticks plus the tick->ns rate at
/// snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum_ticks = 0;
  uint64_t max_ticks = 0;
  double ticks_per_ns = 1.0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  void Merge(const HistogramSnapshot& o) {
    count += o.count;
    sum_ticks += o.sum_ticks;
    if (o.max_ticks > max_ticks) max_ticks = o.max_ticks;
    if (o.count != 0) ticks_per_ns = o.ticks_per_ns;
    for (int i = 0; i < kHistogramBuckets; ++i) buckets[i] += o.buckets[i];
  }

  /// Value at quantile `p` in [0,1], in ticks. Buckets hold powers of two,
  /// so the answer is the upper edge of the bucket containing the p-th
  /// sample, clamped to the exact observed maximum — which makes the
  /// single-sample case exact and p=1 always return max_ticks.
  uint64_t PercentileTicks(double p) const {
    if (count == 0) return 0;
    if (p < 0) p = 0;
    if (p > 1) p = 1;
    uint64_t target = static_cast<uint64_t>(p * static_cast<double>(count));
    if (static_cast<double>(target) < p * static_cast<double>(count)) {
      ++target;  // ceil(p * count)
    }
    if (target == 0) target = 1;
    uint64_t cum = 0;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      cum += buckets[i];
      if (cum >= target) {
        const uint64_t upper =
            i >= 63 ? ~0ULL : (uint64_t{1} << (i + 1)) - 1;
        return upper < max_ticks ? upper : max_ticks;
      }
    }
    return max_ticks;
  }

  double PercentileNs(double p) const {
    return static_cast<double>(PercentileTicks(p)) / ticks_per_ns;
  }
  double MaxNs() const {
    return static_cast<double>(max_ticks) / ticks_per_ns;
  }
  double MeanNs() const {
    if (count == 0) return 0;
    return static_cast<double>(sum_ticks) / static_cast<double>(count) /
           ticks_per_ns;
  }
};

/// Merged, self-describing copy of a registry: named counters (with their
/// merge rules) plus one histogram snapshot per phase. This is what
/// bench/runners.h aggregates across executors and what benches serialize,
/// replacing the per-engine duck-typed field remapping.
struct MetricsSnapshot {
  struct Counter {
    std::string name;
    uint64_t value = 0;
    MergeKind kind = MergeKind::kSum;
  };

  std::vector<Counter> counters;
  std::array<HistogramSnapshot, kNumPhases> phases{};

  void Merge(const MetricsSnapshot& o) {
    for (const Counter& c : o.counters) {
      Counter* mine = Find(c.name);
      if (mine == nullptr) {
        counters.push_back(c);
      } else if (c.kind == MergeKind::kMax) {
        if (c.value > mine->value) mine->value = c.value;
      } else {
        mine->value += c.value;
      }
    }
    for (int i = 0; i < kNumPhases; ++i) phases[i].Merge(o.phases[i]);
  }

  /// Value of a named counter; 0 if the engine never registered it (the
  /// uniform way benches ask for another engine's native counters).
  uint64_t Value(std::string_view name) const {
    for (const Counter& c : counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  bool Has(std::string_view name) const {
    for (const Counter& c : counters) {
      if (c.name == name) return true;
    }
    return false;
  }

  const HistogramSnapshot& phase(Phase p) const {
    return phases[static_cast<int>(p)];
  }

  /// {"commits":123,...} — native names, insertion order.
  std::string CountersJson() const {
    std::string out = "{";
    for (const Counter& c : counters) {
      if (out.size() > 1) out += ",";
      out += "\"";
      out += c.name;
      out += "\":";
      out += std::to_string(c.value);
    }
    out += "}";
    return out;
  }

  /// {"execute":{"count":N,"p50_ns":...,"p99_ns":...,"max_ns":...},...}
  /// Phases with no samples are omitted (e.g. repair for OMVCC).
  std::string PhasesJson() const {
    std::string out = "{";
    for (int i = 0; i < kNumPhases; ++i) {
      const HistogramSnapshot& h = phases[i];
      if (h.count == 0) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"%s\":{\"count\":%llu,\"p50_ns\":%.0f,"
                    "\"p99_ns\":%.0f,\"max_ns\":%.0f}",
                    PhaseName(static_cast<Phase>(i)),
                    static_cast<unsigned long long>(h.count),
                    h.PercentileNs(0.50), h.PercentileNs(0.99), h.MaxNs());
      if (out.size() > 1) out += ",";
      out += buf;
    }
    out += "}";
    return out;
  }

 private:
  Counter* Find(std::string_view name) {
    for (Counter& c : counters) {
      if (c.name == name) return &c;
    }
    return nullptr;
  }
};

/// Raw timestamp-counter read; the histogram unit. On x86 this is rdtsc
/// (~20 cycles, no serialization — phase durations are long enough that
/// out-of-order skew is noise); elsewhere steady_clock nanoseconds.
inline uint64_t TscNow() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// TSC ticks per nanosecond, calibrated once (lazily) against
/// steady_clock. Defined in metrics.cc.
double TscTicksPerNs();

/// Log-bucketed latency histogram: bucket i counts values in
/// [2^i, 2^(i+1)) ticks (bucket 0 covers {0,1}). Recording is a bit-scan
/// plus three adds; merge and percentiles run at snapshot time only.
/// Not internally synchronized — MetricsRegistry serializes access.
class LatencyHistogram {
 public:
  static int BucketOf(uint64_t v) {
    return v == 0 ? 0 : std::bit_width(v) - 1;
  }

  void Record(uint64_t ticks) {
    ++buckets_[BucketOf(ticks)];
    ++count_;
    sum_ += ticks;
    if (ticks > max_) max_ = ticks;
  }

  void Merge(const LatencyHistogram& o) {
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
    for (int i = 0; i < kHistogramBuckets; ++i) buckets_[i] += o.buckets_[i];
  }

  uint64_t count() const { return count_; }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    s.count = count_;
    s.sum_ticks = sum_;
    s.max_ticks = max_;
    s.ticks_per_ns = TscTicksPerNs();
    s.buckets = buckets_;
    return s;
  }

 private:
  std::array<uint64_t, kHistogramBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

/// One registry per metrics-owning component (executor, transaction
/// manager, SV engine). Counters are registered views onto fields that the
/// owner keeps incrementing directly; phase recordings go into per-phase
/// histograms, locked or lock-free per the RecordSync policy chosen at
/// construction (executors opt out of the lock; the manager's registry
/// takes rare GC/arena events from any thread and stays synchronized).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(RecordSync sync = RecordSync::kSynchronized)
      : sync_(sync) {}
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers `field` under `name`. The field must outlive the registry's
  /// last Snapshot(); `name` must be a literal (not copied).
  void RegisterCounter(const char* name, const uint64_t* field,
                       MergeKind kind = MergeKind::kSum) {
    counters_.push_back({name, field, nullptr, kind});
  }

  /// Registers an atomic counter view. Engine counters are plain uint64_t
  /// because each is owned by one thread and snapshotted after a quiesce;
  /// components whose counters are written concurrently with Snapshot()
  /// (the serving front-end, scraped live by /metrics) register atomics so
  /// a scrape is a relaxed load, not a data race.
  void RegisterAtomicCounter(const char* name,
                             const std::atomic<uint64_t>* field,
                             MergeKind kind = MergeKind::kSum) {
    counters_.push_back({name, nullptr, field, kind});
  }

  void RecordPhase(Phase p, uint64_t ticks) {
    if (sync_ == RecordSync::kSynchronized) {
      SpinLockGuard g(lock_);
      hist_[static_cast<int>(p)].Record(ticks);
    } else {
      hist_[static_cast<int>(p)].Record(ticks);
    }
  }

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot s;
    s.counters.reserve(counters_.size());
    for (const CounterRef& c : counters_) {
      const uint64_t v = c.field != nullptr
                             ? *c.field
                             : c.atomic_field->load(std::memory_order_relaxed);
      s.counters.push_back({c.name, v, c.kind});
    }
    SpinLockGuard g(lock_);
    for (int i = 0; i < kNumPhases; ++i) s.phases[i] = hist_[i].Snapshot();
    return s;
  }

 private:
  struct CounterRef {
    const char* name;
    const uint64_t* field;                      // exactly one of these two
    const std::atomic<uint64_t>* atomic_field;  // is non-null
    MergeKind kind;
  };

  /// RegisterCounter runs during single-threaded engine setup, before any
  /// worker can call Snapshot (DESIGN §5d); lock_ covers the histograms,
  /// not the registration list.
  // mv3c-lint: allow(guarded_by_coverage)
  std::vector<CounterRef> counters_;
  const RecordSync sync_;
  mutable SpinLock lock_;
  /// Deliberately NOT MV3C_GUARDED_BY(lock_): whether the lock covers the
  /// histograms is the RecordSync policy chosen at construction — executor
  /// registries are single-threaded and record lock-free (DESIGN §5d), the
  /// manager's registry synchronizes. A conditional capability is outside
  /// the static model; the TSan jobs cover the lock-free contract.
  // mv3c-lint: allow(guarded_by_coverage)
  LatencyHistogram hist_[kNumPhases];
};

/// RAII phase timer: reads the TSC at construction and records the delta
/// into `registry`'s phase histogram at scope exit. A null registry makes
/// it inert and TSC-free — the per-transaction sampling path (executors
/// pass null for unsampled transactions) and the arena before its registry
/// is attached both ride on this.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(MetricsRegistry* registry, Phase phase)
      : registry_(registry), phase_(phase),
        start_(registry != nullptr ? TscNow() : 0) {}
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;
  ~ScopedPhaseTimer() {
    if (registry_ != nullptr) {
      registry_->RecordPhase(phase_, TscNow() - start_);
    }
  }

 private:
  MetricsRegistry* registry_;
  Phase phase_;
  uint64_t start_;
};

}  // namespace mv3c::obs

#endif  // MV3C_OBS_METRICS_H_
