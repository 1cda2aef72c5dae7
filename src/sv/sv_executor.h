#ifndef MV3C_SV_SV_EXECUTOR_H_
#define MV3C_SV_SV_EXECUTOR_H_

#include <algorithm>
#include <functional>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "obs/engine_stats.h"  // SvStats (migrated to the obs layer)
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sv/sv_transaction.h"
#include "wal/log_manager.h"

namespace mv3c {

/// Step-based driver adapter for the single-version engines, so OCC and
/// SILO plug into the same WindowDriver/ThreadDriver as the MVCC engines.
/// `Engine` provides `bool Commit(sv::SvTransaction&)`; OCC shares one
/// engine across executors (global validation mutex), SILO takes one per
/// executor. The retry policy bounds the abort-and-retry loop — precisely
/// the livelock regime CCBench shows dominating OCC at high contention.
template <typename Engine>
class SvExecutor {
 public:
  using Program = std::function<ExecStatus(sv::SvTransaction&)>;

  explicit SvExecutor(Engine* engine, RetryPolicy policy = {})
      : engine_(engine), ctrl_(policy) {
    obs::RegisterCounters(&metrics_, &stats_);
  }

  void Reset(Program program) {
    program_ = std::move(program);
    ctrl_.Reset();
    txn_.Clear();
  }

  /// Single-version OCC has no global begin (no timestamp to draw); the
  /// executor-local sequence number stands in for a txn id in traces.
  void Begin() {
    // Per-transaction phase-timing sample (obs::kPhaseSampleEvery).
    timed_metrics_ = sampler_.Tick() ? &metrics_ : nullptr;
    MV3C_TRACE_EVENT(obs::TraceEvent::kBegin, ++seq_);
  }

  StepResult Step() {
    txn_.Clear();
    ExecStatus st;
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kExecute);
      st = program_(txn_);
    }
    if (st == ExecStatus::kUserAbort) {
      ++stats_.user_aborts;
      MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, seq_);
      return StepResult::kUserAborted;
    }
    MV3C_DCHECK(st == ExecStatus::kOk);
    // An injected validation failure must be decided *before* Commit runs:
    // a successful Commit installs the write set, after which pretending
    // failure would double-apply the writes on retry.
    bool injected = false;
    if (MV3C_FAILPOINT(failpoint::Site::kSvCommitValidate)) {
      ++stats_.failpoint_trips;
      injected = true;
    }
    bool committed = false;
    uint64_t commit_tid = 0;
    uint64_t wal_epoch = 0;
    if (!injected) {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kCommit);
      committed = engine_->Commit(txn_, timed_metrics_ != nullptr,
                                  &commit_tid, &wal_epoch);
    }
    if (committed) {
      ++stats_.commits;
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, seq_);
      // Group-commit durability wait (sync ack) — shared with every other
      // transaction in the epoch; a no-op under async ack or when nothing
      // was logged. A false return means the log crashed; the commit is
      // installed in memory either way, crash tests read the log state.
      if (wal_ != nullptr && wal_epoch != 0) {
        (void)wal_->WaitCommitDurable(wal_epoch);
      }
      return StepResult::kCommitted;
    }
    ++stats_.validation_failures;
    MV3C_TRACE_EVENT(obs::TraceEvent::kValidateFail, seq_);
    const RetryDecision d = ctrl_.OnFailure();
    stats_.max_rounds = std::max<uint64_t>(stats_.max_rounds,
                                           ctrl_.attempts());
    stats_.backoff_us = ctrl_.backoff_us_total();
    if (d == RetryDecision::kGiveUp) {
      txn_.Clear();
      ++stats_.exhausted;
      MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, seq_);
      return StepResult::kExhausted;
    }
    return StepResult::kNeedsRetry;
  }

  /// Runs the transaction to completion; bounded by the attempt budget.
  StepResult Run(Program program) {
    Reset(std::move(program));
    Begin();
    StepResult r;
    do {
      r = Step();
    } while (r == StepResult::kNeedsRetry);
    return r;
  }

  /// Run() for callers that cannot tolerate failure (population loaders,
  /// test fixtures): checks the transaction committed. [[nodiscard]] on
  /// StepResult forces every other Run call site to consume its result.
  void MustRun(Program program) {
    MV3C_CHECK(Run(std::move(program)) == StepResult::kCommitted);
  }

  /// Starvation backstop for drivers: abandons the in-flight transaction.
  /// Single-version transactions buffer writes locally, so dropping the
  /// read/write sets is a complete rollback.
  StepResult GiveUp() {
    txn_.Clear();
    ++stats_.exhausted;
    MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, seq_);
    return StepResult::kExhausted;
  }

  sv::SvTransaction& txn() { return txn_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const SvStats& stats() const { return stats_; }
  uint32_t attempts() const { return ctrl_.attempts(); }

  /// Attaches the log for commit-durability waits. The engine must be
  /// attached separately (engine->set_wal) — OCC shares one engine across
  /// executors, so the two lifetimes differ.
  void set_wal(wal::LogManager* lm) { wal_ = lm; }

 private:
  Engine* engine_;
  RetryController ctrl_;
  sv::SvTransaction txn_;
  Program program_;
  SvStats stats_;
  // Executor registries are single-threaded; recording skips the lock.
  // timed_metrics_ is the per-transaction sampling decision (Begin()).
  obs::MetricsRegistry metrics_{obs::RecordSync::kUnsynchronized};
  obs::MetricsRegistry* timed_metrics_ = nullptr;
  obs::PhaseSampler sampler_;
  uint64_t seq_ = 0;
  wal::LogManager* wal_ = nullptr;
};

}  // namespace mv3c

#endif  // MV3C_SV_SV_EXECUTOR_H_
