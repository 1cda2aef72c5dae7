#ifndef MV3C_OMVCC_OMVCC_TRANSACTION_H_
#define MV3C_OMVCC_OMVCC_TRANSACTION_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/retry_policy.h"
#include "common/status.h"
#include "mvcc/predicate.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"
#include "obs/engine_stats.h"  // OmvccStats (migrated to the obs layer)
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mv3c {

/// The OMVCC baseline (paper §2.1; the optimistic MVCC of Neumann et al.
/// that MV3C builds on): transactions gather a flat list of predicates for
/// their reads, validate them with precision locking against the undo
/// buffers of concurrently committed transactions, and on any conflict —
/// read-write at validation, or write-write during execution — abort, roll
/// back, and restart from scratch.
///
/// Programs are the MV3C DSL programs (mv3c_transaction.h), run inline:
/// OMVCC is MV3C with repair replaced by restart (§2.3). Each read
/// registers one flat predicate and calls its closure immediately; nothing
/// is stored — no graph, no nodes, no closure copies — so the closures run
/// in program order and every fail-fast abort point stays where a
/// straight-line program would put it. Writes are always fail-fast.
class OmvccTransaction {
 public:
  explicit OmvccTransaction(TransactionManager* mgr)
      : mgr_(mgr), inner_(mgr) {}
  OmvccTransaction(const OmvccTransaction&) = delete;
  OmvccTransaction& operator=(const OmvccTransaction&) = delete;
  ~OmvccTransaction() { ClearPredicates(); }

  Transaction& inner() { return inner_; }
  TransactionManager* manager() const { return mgr_; }
  OmvccStats& stats() { return stats_; }

  /// Point lookup by primary key; registers a key-equality predicate and
  /// calls `closure(*this, object, row)` as Mv3cTransaction::Lookup does.
  template <typename TableT, typename Closure>
  ExecStatus Lookup(TableT& table, const typename TableT::Key& key,
                    ColumnMask monitored, Closure&& closure) {
    Register<KeyEqCriterion<TableT>>(monitored, &table, key);
    typename TableT::Object* obj = table.Find(key);
    const auto* v = obj == nullptr ? nullptr : inner_.ReadVersion(table, obj);
    return closure(*this, obj, v == nullptr ? nullptr : &v->data());
  }

  /// Full-table scan with a row filter; registers a filter predicate.
  /// OMVCC has no repair, so `reuse_result_set` (§4.2) has nothing to
  /// reuse and is ignored.
  template <typename TableT, typename Closure>
  ExecStatus Scan(TableT& table,
                  std::function<bool(const typename TableT::Row&)> filter,
                  ColumnMask monitored, bool /*reuse_result_set*/,
                  Closure&& closure) {
    Register<RowFilterCriterion<TableT>>(monitored, &table, filter);
    std::vector<ScanResultEntry<TableT>> entries;
    table.ForEachObject([&](typename TableT::Object& obj) {
      const auto* v = obj.ReadVisible(inner_.start_ts(), inner_.txn_id());
      if (v != nullptr && filter(v->data())) {
        entries.push_back({&obj, v->data()});
      }
    });
    return closure(*this, entries);
  }

  /// Ordered-index range scan; registers a key-range predicate. Arguments
  /// as in Mv3cTransaction::RangeScan.
  template <typename TableT, typename IndexT, typename Closure>
  ExecStatus RangeScan(
      TableT& table, const IndexT& index, const typename IndexT::KeyType& lo,
      const typename IndexT::KeyType& hi,
      typename KeyRangeCriterion<TableT, typename IndexT::KeyType>::Extract
          extract,
      std::function<bool(const typename TableT::Row&)> filter,
      ColumnMask monitored, size_t limit, bool reverse, Closure&& closure) {
    using SecKey = typename IndexT::KeyType;
    Register<KeyRangeCriterion<TableT, SecKey>>(monitored, &table, lo, hi,
                                                std::move(extract), filter);
    std::vector<ScanResultEntry<TableT>> entries;
    auto visit = [&](const SecKey&, typename TableT::Object* obj) -> bool {
      const auto* v = obj->ReadVisible(inner_.start_ts(), inner_.txn_id());
      if (v != nullptr && (filter == nullptr || filter(v->data()))) {
        entries.push_back({obj, v->data()});
        if (limit != 0 && entries.size() >= limit) return false;
      }
      return true;
    };
    if (reverse) {
      index.ScanRangeReverse(lo, hi, visit);
    } else {
      index.ScanRange(lo, hi, visit);
    }
    return closure(*this, entries);
  }

  /// Update; always fail-fast (OMVCC has no tolerance for multiple
  /// uncommitted versions, §2.3.1), so the MV3C program's `blind` flag and
  /// per-operation policy are ignored.
  template <typename TableT>
  ExecStatus UpdateRow(TableT& table, typename TableT::Object* obj,
                       const typename TableT::Row& new_data,
                       ColumnMask modified, bool /*blind*/ = false,
                       std::optional<WwPolicy> /*policy_override*/ = {}) {
    const WriteStatus ws = inner_.Update(table, obj, new_data, modified,
                                         /*blind=*/false,
                                         WwPolicy::kFailFast);
    return ws == WriteStatus::kWwConflict ? ExecStatus::kWriteWriteConflict
                                          : ExecStatus::kOk;
  }

  template <typename TableT>
  WriteStatus InsertRow(TableT& table, const typename TableT::Key& key,
                        const typename TableT::Row& data,
                        typename TableT::Object** out_obj = nullptr) {
    return inner_.Insert(table, key, data, out_obj);
  }

  template <typename TableT>
  ExecStatus DeleteRow(TableT& table, typename TableT::Object* obj) {
    const WriteStatus ws = inner_.Delete(table, obj);
    return ws == WriteStatus::kWwConflict ? ExecStatus::kWriteWriteConflict
                                          : ExecStatus::kOk;
  }

  /// OMVCC cannot express a blind write (§2.4.1): it registers the key
  /// predicate and does a fail-fast read-modify-write, so concurrent blind
  /// updates of one row conflict here but not in MV3C (§6.1.1). No-op if
  /// the key has no visible row, as in MV3C.
  template <typename TableT, typename Setter>
  ExecStatus BlindUpdate(TableT& table, const typename TableT::Key& key,
                         ColumnMask modified, Setter&& setter) {
    return Lookup(table, key, modified,
                  [&](OmvccTransaction& t, typename TableT::Object* obj,
                      const typename TableT::Row* row) {
                    if (row == nullptr) return ExecStatus::kOk;
                    typename TableT::Row copy = *row;
                    setter(copy);
                    return t.UpdateRow(table, obj, copy, modified);
                  });
  }

  // --- lifecycle ---

  /// Pre-validation outside the critical section; stops at the first
  /// conflict (OMVCC cannot use more than one, §2.4).
  bool Prevalidate() {
    CommittedRecord* head = mgr_->rc_head();
    bool clean = Validate(head);
    if (clean && MV3C_FAILPOINT(failpoint::Site::kPrevalidate)) {
      // Injected validation failure: OMVCC restarts from scratch on any
      // conflict, so pretending one exists is always safe.
      ++stats_.failpoint_trips;
      clean = false;
    }
    if (head != nullptr) inner_.set_validated_up_to(head->commit_ts);
    return clean;
  }

  /// Validation pass starting at `from`; early-exits on the first match.
  bool Validate(CommittedRecord* from) {
    return TransactionManager::ForEachConcurrentVersion(
        from, inner_.validated_up_to(), [&](const VersionBase& v) {
          for (const PredicateBase* p : predicates_) {
            if (p->ConflictsWith(v)) return false;  // abort the walk
          }
          return true;
        });
  }

  bool ReadOnly() const { return inner_.undo_buffer().empty(); }

  void RollbackAll() {
    stats_.versions_discarded += inner_.undo_buffer().size();
    inner_.RollbackWrites();
    ClearPredicates();
  }

  /// Drops the predicate list (end of transaction); memory returns to the
  /// pool for the next program.
  void ClearPredicates() {
    for (PredicateBase* p : predicates_) pool_.Destroy(p);
    predicates_.clear();
  }

  size_t PredicateCount() const { return predicates_.size(); }

 private:
  template <typename Criterion, typename... Args>
  void Register(ColumnMask monitored, Args&&... args) {
    auto* pred = pool_.Create<Criterion>(std::forward<Args>(args)...);
    pred->set_monitored(monitored);
    predicates_.push_back(pred);
  }

  TransactionManager* mgr_;
  Transaction inner_;
  PredicatePool pool_;
  std::vector<PredicateBase*> predicates_;
  OmvccStats stats_;
};

/// Step-based driver for OMVCC transactions: every failure path — user
/// abort excepted — rolls back and re-executes the program from scratch
/// with a fresh start timestamp. The retry policy bounds the restart loop:
/// OMVCC has no repair to escalate to, so the ladder degenerates to
/// restart-with-backoff until the budget runs out (kExhausted).
class OmvccExecutor {
 public:
  using Program = std::function<ExecStatus(OmvccTransaction&)>;

  explicit OmvccExecutor(TransactionManager* mgr, RetryPolicy policy = {})
      : ctrl_(policy), txn_(mgr) {
    obs::RegisterCounters(&metrics_, &txn_.stats());
  }

  void Reset(Program program) {
    program_ = std::move(program);
    ctrl_.Reset();
    txn_.ClearPredicates();  // drop state from the previous transaction
  }

  void Begin() {
    txn_.manager()->Begin(&txn_.inner());
    // Per-transaction phase-timing sample (obs::kPhaseSampleEvery).
    timed_metrics_ = sampler_.Tick() ? &metrics_ : nullptr;
    MV3C_TRACE_EVENT(obs::TraceEvent::kBegin, txn_.inner().txn_id());
  }

  StepResult Step() {
    ExecStatus st;
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kExecute);
      st = program_(txn_);
    }
    if (st == ExecStatus::kUserAbort) {
      txn_.RollbackAll();
      txn_.manager()->FinishAborted(&txn_.inner());
      ++txn_.stats().user_aborts;
      MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, txn_.inner().txn_id());
      return StepResult::kUserAborted;
    }
    if (st == ExecStatus::kWriteWriteConflict) {
      txn_.RollbackAll();
      txn_.manager()->Restart(&txn_.inner());
      ++txn_.stats().ww_restarts;
      return FailRound();
    }
    if (txn_.ReadOnly()) {
      txn_.manager()->CommitReadOnly(&txn_.inner());
      last_commit_ts_ = txn_.inner().start_ts();
      ++txn_.stats().commits;
      txn_.ClearPredicates();
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, txn_.inner().txn_id());
      return StepResult::kCommitted;
    }
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kValidate);
      if (!txn_.Prevalidate()) {
        txn_.manager()->Retimestamp(&txn_.inner());
        return FailValidation();
      }
    }
    bool committed;
    {
      obs::ScopedPhaseTimer timer(timed_metrics_, obs::Phase::kCommit);
      committed = txn_.manager()->TryCommit(
          &txn_.inner(),
          [this](CommittedRecord* head) {
            bool ok = txn_.Validate(head);
            if (ok && MV3C_FAILPOINT(failpoint::Site::kCommitDelta)) {
              ++txn_.stats().failpoint_trips;
              ok = false;
            }
            return ok;
          },
          &last_commit_ts_);
    }
    if (committed) {
      ++txn_.stats().commits;
      txn_.ClearPredicates();
      MV3C_TRACE_EVENT(obs::TraceEvent::kCommit, txn_.inner().txn_id());
      // Outside the kCommit timer: the group-commit wait is epoch-scale
      // and would swamp the commit-phase histogram.
      (void)txn_.manager()->WalWaitDurable(&txn_.inner());
      return StepResult::kCommitted;
    }
    return FailValidation();
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
  StepResult GiveUp() { return FinishExhausted(); }

  OmvccTransaction& txn() { return txn_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const OmvccStats& stats() const {
    return const_cast<OmvccExecutor*>(this)->txn_.stats();
  }
  Timestamp last_commit_ts() const { return last_commit_ts_; }
  uint32_t attempts() const { return ctrl_.attempts(); }

 private:
  StepResult FailValidation() {
    // Abort and restart from scratch: the new start timestamp was drawn in
    // the critical section; the restarted execution reads at it, so the
    // validation watermark resets to it.
    txn_.RollbackAll();
    txn_.inner().ResetValidationWatermark();
    ++txn_.stats().validation_failures;
    MV3C_TRACE_EVENT(obs::TraceEvent::kValidateFail, txn_.inner().txn_id());
    return FailRound();
  }

  StepResult FailRound() {
    const RetryDecision d = ctrl_.OnFailure();
    OmvccStats& s = txn_.stats();
    s.max_rounds = std::max<uint64_t>(s.max_rounds, ctrl_.attempts());
    s.backoff_us = ctrl_.backoff_us_total();
    if (d == RetryDecision::kGiveUp) return FinishExhausted();
    return StepResult::kNeedsRetry;
  }

  StepResult FinishExhausted() {
    txn_.RollbackAll();
    txn_.manager()->FinishAborted(&txn_.inner());
    ++txn_.stats().exhausted;
    MV3C_TRACE_EVENT(obs::TraceEvent::kAbort, txn_.inner().txn_id());
    return StepResult::kExhausted;
  }

  RetryController ctrl_;
  OmvccTransaction txn_;
  Program program_;
  Timestamp last_commit_ts_ = 0;
  // Executor registries are single-threaded; recording skips the lock.
  // timed_metrics_ is the per-transaction sampling decision (Begin()).
  obs::MetricsRegistry metrics_{obs::RecordSync::kUnsynchronized};
  obs::MetricsRegistry* timed_metrics_ = nullptr;
  obs::PhaseSampler sampler_;
};

}  // namespace mv3c

#endif  // MV3C_OMVCC_OMVCC_TRANSACTION_H_
