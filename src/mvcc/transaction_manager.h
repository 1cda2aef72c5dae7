#ifndef MV3C_MVCC_TRANSACTION_MANAGER_H_
#define MV3C_MVCC_TRANSACTION_MANAGER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

#include "common/epoch_clock.h"
#include "common/failpoint.h"
#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"
#include "mvcc/gc.h"
#include "mvcc/timestamp.h"
#include "mvcc/transaction.h"
#include "mvcc/version_arena.h"
#include "obs/metrics.h"
#include "wal/log_mvcc.h"

namespace mv3c {

/// The shared transaction-management state of the MVCC substrate (paper
/// §5): the recently-committed list, the active-transaction registry, and
/// the decentralized timestamp substrate (DESIGN §5h). One instance serves
/// both the OMVCC and the MV3C engine — that shared validation surface is
/// exactly what makes the two interoperable (§3).
///
/// Timestamp substrate (DESIGN §5h). There is no start-and-commit
/// sequence. Instead:
///   * `commit_hwm_` is the high-water mark of published commit
///     timestamps. It is stored (seq_cst, under commit_lock_) as the last
///     step of publication, so any thread that reads value `h` is
///     guaranteed every version committed at or below `h` is fully
///     published — reading the mark IS acquiring a consistent snapshot.
///   * Begin is lock-free: start = hwm + 1, register the slot, then check
///     `trim_floor_` (the reclaim protocol below). No timestamp is
///     consumed — concurrent transactions may share a start value.
///   * Commit TIDs are epoch-composed (timestamp.h): allocated at
///     >= hwm + 2 under commit_lock_, shaped onto the committing worker's
///     lane, with the epoch component read from the shared EpochClock the
///     WAL's flush rounds advance. The +2 gap keeps start values disjoint
///     from commit timestamps, preserving the strict `ts < start`
///     visibility bound with no equality cases.
///
/// Concurrency protocol:
///   * Commit-time (delta) validation, commit-TID allocation and version
///     publication still happen inside the short spin-locked critical
///     section, matching the paper's requirement that "the whole process
///     of validating a transaction, and drawing a commit timestamp or a
///     new start timestamp ... is done in a short critical section"
///     (§2.5). The expensive part of validation — matching against
///     everything committed since the transaction's start — runs *outside*
///     the critical section as a pre-validation pass (§5 "Parallel
///     Validation"); only records that committed after that pass are
///     re-checked inside.
///   * Begin, Retimestamp and Restart no longer take the lock at all: a
///     fresh start timestamp is just a seq_cst read of the high-water
///     mark. §2.5's "drawing ... a new start timestamp" inside the
///     critical section existed to keep the draw consistent with
///     concurrent publication; the hwm read gives the same guarantee
///     without serializing (see the class invariant above).
///   * Repair (MV3C) and restart (OMVCC) run entirely outside the critical
///     section, concurrently with other transactions.
///
/// Reclaim protocol (lock-free Begin vs. trimming). A beginner is
/// invisible to watermark scans between its hwm read and its slot
/// registration, so every reclaimer first publishes its watermark cap into
/// `trim_floor_` (seq_cst) and only then scans the slot table;
/// symmetrically Begin registers its slot (seq_cst) and only then loads
/// `trim_floor_`. By the seq_cst total order one of the two sides must see
/// the other: either the scan sees the slot (watermark <= start) or the
/// beginner sees the floor and retries at a fresh start. The cap itself is
/// hwm + 1 — never beyond the newest published commit — which both keeps
/// the floor from running away on an idle system and guarantees a
/// concurrent unregistered beginner (start >= some hwm + 1) can at worst
/// tie the cap, and a tie never unlinks a version the beginner needs
/// (truncation keeps the newest committed version below the watermark).
class TransactionManager {
 public:
  static constexpr size_t kMaxActive = 1024;
  static constexpr Timestamp kIdleSlot = ~0ULL;
  /// Begin retries the trim-floor check a few times lock-free, then falls
  /// back to one commit_lock_ acquisition (the mark is frozen under the
  /// lock, so the check deterministically passes).
  static constexpr int kBeginRetryRounds = 8;

  TransactionManager() {
    for (auto& s : active_) s.start.store(kIdleSlot, std::memory_order_relaxed);
    // Manager-level maintenance counters live on the shared registry so the
    // bench aggregation sees them next to the per-executor engine counters.
    metrics_.RegisterCounter("gc_rounds", &gc_rounds_);
    metrics_.RegisterCounter("gc_nodes_freed", &gc_nodes_freed_);
    // Bumped under commit_lock_ (like wal_sync_waits_ under the WAL's mu_);
    // nonzero only when lock-free Begins lost the trim-floor race past the
    // retry budget — the convoy-diagnosis counter for the §5h substrate.
    metrics_.RegisterCounter("begin_lock_fallbacks", &begin_lock_fallbacks_);
    arena_.set_metrics(&metrics_);
  }
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;
  ~TransactionManager() {
    TrimRecentlyCommitted(kDeadVersion);
    gc_.CollectAll();
  }

  /// Starts `t`: lock-free. Draws a per-lane transaction id, adopts
  /// `commit_hwm_ + 1` as the start timestamp (no sequence is consumed —
  /// concurrent transactions may share a start), registers the slot, and
  /// runs the reclaim-protocol floor check (class comment).
  void Begin(Transaction* t) MV3C_EXCLUDES(commit_lock_) {
    const uint32_t lane = ThisThreadTidLane();
    const Timestamp id = ComposeTxnId(
        lane, lanes_[lane].txn_tick.fetch_add(1, std::memory_order_relaxed));
    Timestamp start = commit_hwm_.load(std::memory_order_seq_cst) + 1;
    const uint32_t slot = AcquireSlot(start);
    int rounds = 0;
    while (trim_floor_.load(std::memory_order_seq_cst) > start) {
      if (++rounds > kBeginRetryRounds) {
        SpinLockGuard g(commit_lock_);
        ++begin_lock_fallbacks_;
        start = commit_hwm_.load(std::memory_order_seq_cst) + 1;
        active_[slot].start.store(start, std::memory_order_seq_cst);
        break;  // hwm (hence the floor cap) is frozen under the lock
      }
      begin_floor_retries_.fetch_add(1, std::memory_order_relaxed);
      start = commit_hwm_.load(std::memory_order_seq_cst) + 1;
      active_[slot].start.store(start, std::memory_order_seq_cst);
    }
    t->OnBegin(start, id, slot);
  }

  /// Head of the recently-committed list (newest first).
  CommittedRecord* rc_head() const {
    return rc_head_.load(std::memory_order_acquire);
  }

  /// Walks committed versions of recently-committed records newer than
  /// `min_commit_ts_exclusive`, starting at `from` (newest first). Commit
  /// timestamps decrease strictly along the list, so the walk stops at the
  /// first record at or below the bound. Calls `fn(const VersionBase&)`;
  /// if fn returns false the walk aborts. Returns false iff aborted by fn.
  template <typename Fn>
  static bool ForEachConcurrentVersion(CommittedRecord* from,
                                       Timestamp min_commit_ts_exclusive,
                                       Fn&& fn) {
    for (CommittedRecord* r = from; r != nullptr;
         r = r->next.load(std::memory_order_acquire)) {
      if (r->commit_ts <= min_commit_ts_exclusive) break;
      for (const VersionBase* v : r->versions) {
        if (!fn(*v)) return false;
      }
    }
    return true;
  }

  /// Attempts to commit `t`.
  ///
  /// `revalidate(CommittedRecord* from)` must run the engine's validation
  /// over records newer than t->validated_up_to() starting at `from` and
  /// return true iff the transaction is still valid (the pre-validation
  /// pass outside the lock has already covered everything older). On
  /// success the commit TID is allocated, versions are published, the
  /// record is appended to the recently-committed list, and the
  /// transaction leaves the active table; `*commit_ts_out` (optional)
  /// receives the commit timestamp. On failure the transaction stays
  /// active with a fresh start timestamp and the caller runs
  /// repair/restart outside.
  template <typename RevalidateFn>
  [[nodiscard]] bool TryCommit(Transaction* t, RevalidateFn&& revalidate,
                               Timestamp* commit_ts_out = nullptr)
      MV3C_EXCLUDES(commit_lock_) {
    SpinLockGuard g(commit_lock_);
    ExecStatus (*no_repair)() = nullptr;
    return CommitLocked(t, revalidate, no_repair, commit_ts_out) ==
           ExecStatus::kOk;
  }

  /// §4.3 exclusive repair: like TryCommit, but on validation failure the
  /// engine's `repair()` runs *inside* the critical section; since no other
  /// transaction can commit meanwhile, the repaired transaction commits
  /// immediately afterwards without another validation round. Returns the
  /// repair ExecStatus (kOk implies committed); a non-kOk status leaves the
  /// transaction active with a fresh start timestamp so the caller can
  /// handle the abort/restart outside the lock.
  template <typename RevalidateFn, typename RepairFn>
  ExecStatus TryCommitExclusive(Transaction* t, RevalidateFn&& revalidate,
                                RepairFn&& repair,
                                Timestamp* commit_ts_out = nullptr)
      MV3C_EXCLUDES(commit_lock_) {
    SpinLockGuard g(commit_lock_);
    return CommitLocked(t, revalidate, &repair, commit_ts_out);
  }

  /// Draws a fresh start timestamp for a transaction staying in the
  /// repair path (validation failed during pre-validation, outside the
  /// commit critical section). Keeps the validation watermark. Lock-free:
  /// the transaction's slot stays registered throughout, so no reclaim
  /// watermark can pass its (old, smaller) start while the new one is
  /// adopted — the trim-floor check Begin needs is unnecessary here.
  void Retimestamp(Transaction* t) {
    // Delay/yield injection point: widens the window between a failed
    // pre-validation and the repair round so concurrent commits can slip
    // in (the repeated-invalidation schedule the chaos tests force).
    (void)MV3C_FAILPOINT(failpoint::Site::kRetimestamp);
    RefreshStartTs(t);
  }

  /// Commits a transaction with an empty write set without validation:
  /// a read-only transaction reads a consistent snapshot and serializes at
  /// its start timestamp (§5, Appendix A).
  void CommitReadOnly(Transaction* t) {
    MV3C_CHECK(t->undo_buffer().empty());
    ReleaseSlot(t->slot());
  }

  /// Draws a fresh start timestamp for a transaction that rolled back its
  /// writes and restarts from scratch (user-abort-free restart paths:
  /// fail-fast write-write conflicts, OMVCC validation failure). Lock-free
  /// for the same reason as Retimestamp.
  void Restart(Transaction* t) {
    RefreshStartTs(t);
    t->ResetValidationWatermark();
  }

  /// Removes a user-aborted transaction from the active table. The caller
  /// must have rolled back its writes already.
  void FinishAborted(Transaction* t) { ReleaseSlot(t->slot()); }

  /// A checkpoint reader's hold on the MVCC history: while pinned, the GC
  /// watermark cannot pass `ts`, so every version visible at `ts` survives
  /// the scan.
  struct SnapshotPin {
    Timestamp ts = 0;
    uint32_t slot = 0;
  };

  /// Pins a consistent read-only snapshot at `commit_hwm_ + 1`, exactly
  /// like Begin pins a transaction's start — but under commit_lock_, NOT
  /// lock-free. The lock matters for the checkpoint/WAL cut (DESIGN §5g):
  /// a committer midway through its critical section may already have an
  /// epoch tag drawn (and flushed durable) while its hwm store is still
  /// pending; a lock-free pin could slip between the two and take a
  /// snapshot that misses a commit whose epoch the checkpoint then
  /// truncates. Taking the lock waits such a committer out, restoring the
  /// invariant "invisible at pin.ts => epoch tag drawn after the durable
  /// cut was read". The hwm is not advanced: readers need no unique
  /// timestamp, and the slot registration under the lock needs no
  /// trim-floor check (the floor cap <= hwm + 1 = pin.ts is frozen).
  SnapshotPin PinSnapshot() MV3C_EXCLUDES(commit_lock_) {
    SpinLockGuard g(commit_lock_);
    SnapshotPin pin;
    pin.ts = commit_hwm_.load(std::memory_order_relaxed) + 1;
    pin.slot = AcquireSlot(pin.ts);
    return pin;
  }

  void ReleaseSnapshot(const SnapshotPin& pin) { ReleaseSlot(pin.slot); }

  /// Oldest start timestamp among active transactions, or kIdleSlot
  /// ("infinity") if none are active. A plain observer: reclaim paths must
  /// go through AcquireReclaimCuts (which runs the trim-floor protocol
  /// before this scan); direct callers may only use the value for
  /// operations that cannot invalidate an unregistered beginner's
  /// snapshot (e.g. dropping index entries for tombstoned rows — any
  /// future start exceeds every published commit, so it sees the
  /// tombstone regardless).
  Timestamp OldestActiveStart() const {
    Timestamp oldest = kIdleSlot;
    for (const Slot& s : active_) {
      const Timestamp v = s.start.load(std::memory_order_seq_cst);
      if (v < oldest) oldest = v;
    }
    return oldest;
  }

  /// The retirement era for the GC: one past the newest published commit.
  /// A retired node is freed only once the reclaim watermark strictly
  /// exceeds its era, i.e. once no registered transaction's start is at or
  /// below it (gc.h).
  Timestamp CurrentEra() const {
    return commit_hwm_.load(std::memory_order_seq_cst) + 1;
  }

  /// Reclamation bounds, computed with the trim-floor protocol (class
  /// comment): `trim` bounds RC-list trimming and version-chain truncation
  /// (both capped at hwm + 1, so a concurrent unregistered beginner can at
  /// worst tie it — safe, see class comment); `free_below` bounds the
  /// GC's freeing of already-unlinked nodes (capped one higher: an
  /// unlinked node is unreachable from any chain head, so a beginner that
  /// ties its era cannot be standing on it — only registered transactions
  /// at or below the era can, and the OldestActiveStart term covers
  /// those).
  struct ReclaimCuts {
    Timestamp trim;
    Timestamp free_below;
  };
  ReclaimCuts AcquireReclaimCuts() {
    const Timestamp cap = commit_hwm_.load(std::memory_order_seq_cst) + 1;
    // Publish the floor BEFORE scanning the slot table; pairs with Begin's
    // register-then-check (seq_cst on both sides).
    Timestamp floor = trim_floor_.load(std::memory_order_seq_cst);
    while (floor < cap && !trim_floor_.compare_exchange_weak(
                              floor, cap, std::memory_order_seq_cst)) {
    }
    const Timestamp oldest = OldestActiveStart();
    return {std::min(cap, oldest), std::min(cap + 1, oldest)};
  }

  GarbageCollector& gc() { return gc_; }

  /// Version/record memory for every transaction under this manager.
  /// The arena is the last member destroyed here that touches version
  /// memory (declared before gc_, destroyed after it), and tables are
  /// destroyed before their manager throughout the codebase, so every
  /// Destroy() precedes the slabs' release.
  VersionArena& arena() { return arena_; }
  const VersionArena& arena() const { return arena_; }

  /// Trims the recently-committed list and frees retired garbage. Called
  /// periodically by execution drivers; rate limiting is the caller's
  /// business. The whole pass is one kGc phase sample; drivers are
  /// single-threaded per manager for maintenance, so the plain counters
  /// need no synchronization.
  void CollectGarbage() {
    obs::ScopedPhaseTimer timer(&metrics_, obs::Phase::kGc);
    const ReclaimCuts cuts = AcquireReclaimCuts();
    TrimRecentlyCommitted(cuts.trim);
    gc_nodes_freed_ += gc_.Collect(cuts.free_below);
    ++gc_rounds_;
    // Recycle slabs whose retirement a kGcReclaim firing parked; same
    // drains-once-injection-stops contract as the node-level backlog.
    arena_.DrainDeferred();
  }

  /// Manager-level metrics (GC rounds/freed counters, begin_lock_fallbacks,
  /// kGc and kArenaRetire phase histograms). Benchmarks merge this with
  /// executor registries.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Lock-free Begins that lost a trim-floor race and retried (relaxed;
  /// diagnosis only — the contract test asserts the protocol, not the
  /// count).
  uint64_t begin_floor_retries() const {
    return begin_floor_retries_.load(std::memory_order_relaxed);
  }

  /// The shared epoch counter (commit-TID epochs + WAL flush rounds).
  EpochClock& epoch_clock() { return epoch_clock_; }

  /// Turns on durability: commits of WAL-registered tables serialize their
  /// final write set into the group-commit log (DESIGN §5f), whose flush
  /// rounds advance this manager's epoch clock — redo-block epoch tags and
  /// commit-TID epoch components stay aligned (tag >= TsEpoch(commit_ts)).
  /// Call before any transaction runs; the writer thread lives until the
  /// manager (or DisableWal) tears it down.
  void EnableWal(const wal::WalConfig& config) {
    wal_ = std::make_unique<wal::LogManager>(config, &epoch_clock_);
  }
  /// Joins the writer thread and closes the log (final flush included).
  void DisableWal() { wal_.reset(); }
  wal::LogManager* wal() { return wal_.get(); }

  /// Blocks until `t`'s last commit is durable per the configured ack mode
  /// (a shared group-commit wait under sync ack, a no-op under async ack).
  /// Without a log attached it returns true immediately, so executors call
  /// it unconditionally. Returns false iff the log crashed before the
  /// commit became durable.
  bool WalWaitDurable(Transaction* t) {
    if (wal_ != nullptr && t->wal_epoch() != 0) {
      return wal_->WaitCommitDurable(t->wal_epoch());
    }
    return true;
  }

  /// Recovery hook: raises the commit high-water mark past `ts` (and the
  /// epoch clock to `ts`'s epoch) so versions replayed with commit
  /// timestamps up to `ts` are visible to — and older than — every
  /// transaction started afterwards. Runs before any transaction starts.
  void AdvanceClockTo(Timestamp ts) MV3C_EXCLUDES(commit_lock_) {
    SpinLockGuard g(commit_lock_);
    if (commit_hwm_.load(std::memory_order_relaxed) < ts) {
      commit_hwm_.store(ts, std::memory_order_seq_cst);
    }
    epoch_clock_.AdvanceTo(TsEpoch(ts));
  }

  /// Number of records currently reachable in the RC list; metrics/tests.
  size_t RecentlyCommittedLength() const {
    size_t n = 0;
    for (CommittedRecord* r = rc_head(); r != nullptr;
         r = r->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  struct alignas(MV3C_CACHELINE_SIZE) Slot {
    std::atomic<Timestamp> start;
  };

  /// Per-lane TID state, one cache line per worker lane.
  struct alignas(MV3C_CACHELINE_SIZE) TidLane {
    /// Last commit TID stamped with this lane. Written under commit_lock_
    /// only (the annotation can't say so from a nested struct); redundant
    /// with the hwm floor, kept to make per-lane monotonicity manifest.
    Timestamp last_commit = 0;
    /// Transaction-id tick; relaxed fetch_add, unique via the lane bits.
    std::atomic<uint64_t> txn_tick{0};
  };

  /// The one shared commit path (TryCommit and TryCommitExclusive both
  /// land here): delta revalidation, TID allocation, publication, redo
  /// logging, hwm release. `repair == nullptr` is TryCommit's no-repair
  /// mode — on validation failure the transaction is retimestamped and a
  /// non-kOk sentinel status is returned (the caller only maps it to
  /// `false`; it is never surfaced).
  template <typename RevalidateFn, typename RepairFn>
  ExecStatus CommitLocked(Transaction* t, RevalidateFn&& revalidate,
                          RepairFn* repair, Timestamp* commit_ts_out)
      MV3C_REQUIRES(commit_lock_) {
    CommittedRecord* head = rc_head();
    const bool valid = revalidate(head);
    if (head != nullptr) t->set_validated_up_to(head->commit_ts);
    if (!valid) {
      RetimestampLocked(t);
      if (repair == nullptr) return ExecStatus::kWriteWriteConflict;
      const ExecStatus st = (*repair)();
      if (st != ExecStatus::kOk) return st;
    }
    const Timestamp c = AllocCommitTidLocked();
    CommittedRecord* rec = t->PublishCommit(c);
    if (rec != nullptr) {
      rec->next.store(head, std::memory_order_relaxed);
      rc_head_.store(rec, std::memory_order_release);
      LogCommitLocked(t, rec, c);
    }
    // Delay/yield injection point: widens the window in which the record
    // is already reachable from rc_head_ but c is not yet below any fresh
    // start (RefreshStartTs).
    (void)MV3C_FAILPOINT(failpoint::Site::kCommitPublish);
    // The hwm store is the publication point (class comment): seq_cst,
    // strictly after the versions and the RC record are in place.
    commit_hwm_.store(c, std::memory_order_seq_cst);
    ReleaseSlot(t->slot());
    if (commit_ts_out != nullptr) *commit_ts_out = c;
    return ExecStatus::kOk;
  }

  /// Allocates the next commit TID (timestamp.h layout): value floor is
  /// hwm + 2 (the start-gap invariant) raised to the current epoch's
  /// range, then shaped onto the committing worker's lane. Rolling past
  /// the epoch's value range advances the shared clock, so the TID's
  /// epoch component never exceeds the epoch tag LogCommitLocked draws
  /// moments later.
  Timestamp AllocCommitTidLocked() MV3C_REQUIRES(commit_lock_) {
    const uint32_t lane = ThisThreadTidLane();
    const uint64_t epoch = epoch_clock_.Current();
    Timestamp floor = commit_hwm_.load(std::memory_order_relaxed) + 2;
    floor = std::max(floor, lanes_[lane].last_commit + 1);
    floor = std::max(floor, EpochFirstTs(epoch));
    const Timestamp c = ShapeToLane(floor, lane);
    lanes_[lane].last_commit = c;
    if (TsEpoch(c) > epoch) epoch_clock_.AdvanceTo(TsEpoch(c));
    MV3C_CHECK(IsCommitTs(c));
    return c;
  }

  /// Serializes a just-published commit into the redo log; caller holds
  /// commit_lock_ (the versions can't be GC'd and the write set is final —
  /// for MV3C, final *after* repair). A no-op without a log attached.
  void LogCommitLocked(Transaction* t, const CommittedRecord* rec,
                       Timestamp c) MV3C_REQUIRES(commit_lock_) {
    if (wal_ != nullptr) {
      wal::LogBuffer* buf = t->wal_buffer();
      t->set_wal_epoch(
          wal::LogMvccCommit(*wal_, buf, *rec, c, t->wal_repaired()));
      t->set_wal_buffer(buf);
    }
  }

  /// Adopts a fresh start timestamp for a still-registered transaction.
  /// The slot already holds the old (smaller) start, so no reclaim
  /// watermark can have passed it; the in-place store only raises the
  /// slot's value, which can never shrink a concurrent watermark scan
  /// below what the transaction needs.
  ///
  /// The fresh start need not exceed the invalidator's commit timestamp:
  /// CommitLocked links its record into the RC list before it stores the
  /// hwm, so a lock-free pre-validation can see (and mark itself invalid
  /// against) a commit that `fresh` still cannot read. A repair at `fresh`
  /// then reads the row as it was before that commit, so the validation
  /// watermark drops to `fresh - 1`: the next pass re-examines every
  /// record the fresh start cannot see instead of skipping it.
  void RefreshStartTs(Transaction* t) {
    const Timestamp fresh = commit_hwm_.load(std::memory_order_seq_cst) + 1;
    active_[t->slot()].start.store(fresh, std::memory_order_seq_cst);
    t->OnNewStartTs(fresh);
    t->ClampValidatedUpTo(fresh - 1);
  }

  /// In-critical-section variant (TryCommit's failure path): same body,
  /// named separately so the locked context stays visible at call sites.
  void RetimestampLocked(Transaction* t) MV3C_REQUIRES(commit_lock_) {
    RefreshStartTs(t);
  }

  uint32_t AcquireSlot(Timestamp start) {
    const uint32_t hint = slot_hint_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < kMaxActive; ++i) {
      const uint32_t idx = (hint + i) % kMaxActive;
      Timestamp expected = kIdleSlot;
      if (active_[idx].start.compare_exchange_strong(
              expected, start, std::memory_order_seq_cst)) {
        return idx;
      }
    }
    MV3C_CHECK(false && "active-transaction table exhausted");
    return 0;
  }

  void ReleaseSlot(uint32_t slot) {
    active_[slot].start.store(kIdleSlot, std::memory_order_release);
  }

  /// Unlinks RC records whose commit timestamp is below `watermark` (no
  /// active transaction can need them for validation) and retires them.
  /// Safe against lock-free Begins via the era discipline: the nodes are
  /// retired at era hwm + 1, and the GC frees an era only once every
  /// registered start strictly exceeds it. A later beginner whose start
  /// exceeds the era must have read a hwm store sequenced after this
  /// unlink (hwm only advances under commit_lock_, which we hold), so its
  /// rc_head read cannot reach the unlinked nodes.
  void TrimRecentlyCommitted(Timestamp watermark)
      MV3C_EXCLUDES(commit_lock_) {
    SpinLockGuard g(commit_lock_);
    CommittedRecord* prev = nullptr;
    CommittedRecord* cur = rc_head();
    while (cur != nullptr && cur->commit_ts >= watermark) {
      prev = cur;
      cur = cur->next.load(std::memory_order_acquire);
    }
    if (cur == nullptr) return;
    if (prev == nullptr) {
      rc_head_.store(nullptr, std::memory_order_release);
    } else {
      prev->next.store(nullptr, std::memory_order_release);
    }
    const Timestamp era = CurrentEra();
    while (cur != nullptr) {
      CommittedRecord* next = cur->next.load(std::memory_order_acquire);
      gc_.RetireRecord(cur, era);
      cur = next;
    }
  }

  /// High-water mark of published commit TIDs. Stores happen only under
  /// commit_lock_ (publication, AdvanceClockTo), always seq_cst, always
  /// after the commit's versions are fully in place; reads are lock-free
  /// everywhere (Begin, RefreshStartTs, CurrentEra, reclaim caps). Same
  /// guarded-writes/lock-free-reads split as rc_head_ below.
  alignas(MV3C_CACHELINE_SIZE) std::atomic<Timestamp> commit_hwm_{0};
  /// Reclaim-protocol floor (class comment): monotone, only ever holds
  /// past `hwm + 1` caps.
  alignas(MV3C_CACHELINE_SIZE) std::atomic<Timestamp> trim_floor_{0};
  /// rc_head_ stays an atomic, not MV3C_GUARDED_BY(commit_lock_): readers
  /// (pre-validation, ForEachConcurrentVersion) chase it lock-free; every
  /// *store* happens with commit_lock_ held (CommitLocked publication,
  /// TrimRecentlyCommitted unlinking).
  alignas(MV3C_CACHELINE_SIZE) std::atomic<CommittedRecord*> rc_head_{nullptr};
  SpinLock commit_lock_;
  EpochClock epoch_clock_;
  std::atomic<uint32_t> slot_hint_{0};
  Slot active_[kMaxActive];
  /// TidLane::last_commit is written only under commit_lock_ (NextCommitTs);
  /// the capability lives two declarations up but GUARDED_BY cannot reach
  /// into a nested struct's field from here. txn_tick is atomic.
  // mv3c-lint: allow(guarded_by_coverage)
  TidLane lanes_[kMaxTidLanes];
  std::atomic<uint64_t> begin_floor_retries_{0};
  /// Maintenance counters: CollectGarbage is documented single-caller
  /// (one maintenance thread), so these stay plain — making them atomic
  /// would misrepresent the contract the chaos suite enforces.
  // mv3c-lint: allow(guarded_by_coverage)
  uint64_t gc_rounds_ = 0;
  // mv3c-lint: allow(guarded_by_coverage)
  uint64_t gc_nodes_freed_ = 0;
  uint64_t begin_lock_fallbacks_ MV3C_GUARDED_BY(commit_lock_) = 0;
  // Declaration order is teardown-load-bearing: metrics_ before arena_
  // (slab retirement during arena teardown records kArenaRetire samples),
  // arena_ before gc_ (slabs outlive GC teardown).
  obs::MetricsRegistry metrics_;
  VersionArena arena_;
  GarbageCollector gc_;
  // Last member: the log (and its writer thread) tears down first, before
  // gc_/arena_/metrics_ — the writer owns no version memory but its final
  // flush must not outlive any state a hook could touch. The pointer is
  // set during config-phase EnableWal/DisableWal (no workers yet) and read
  // lock-free on the commit path, so it carries no capability annotation.
  // mv3c-lint: allow(guarded_by_coverage)
  std::unique_ptr<wal::LogManager> wal_;
};

// --- Transaction methods that need the manager ---

inline void Transaction::Retire(VersionBase* v) {
  mgr_->gc().RetireVersion(v, mgr_->CurrentEra());
}

inline VersionArena& Transaction::arena() const { return mgr_->arena(); }

inline void Transaction::MaybeTruncateChain(DataObjectBase* obj) {
  constexpr uint32_t kTruncateThreshold = 48;
  if (MV3C_LIKELY(obj->ApproxChainLength() < kTruncateThreshold)) return;
  TransactionManager* mgr = mgr_;
  // Worker-thread truncation must run the reclaim protocol (trim-floor
  // publish before the slot scan), not a bare OldestActiveStart.
  obj->TruncateOlderThan(mgr->AcquireReclaimCuts().trim,
                         [mgr](VersionBase* dead) {
                           mgr->gc().RetireVersion(dead, mgr->CurrentEra());
                         });
}

}  // namespace mv3c

#endif  // MV3C_MVCC_TRANSACTION_MANAGER_H_
