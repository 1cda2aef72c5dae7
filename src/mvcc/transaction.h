#ifndef MV3C_MVCC_TRANSACTION_H_
#define MV3C_MVCC_TRANSACTION_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/column_mask.h"
#include "common/macros.h"
#include "mvcc/data_object.h"
#include "mvcc/gc.h"
#include "mvcc/predicate.h"
#include "mvcc/table.h"
#include "mvcc/timestamp.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"

namespace mv3c {

namespace wal {
class LogBuffer;
}  // namespace wal

class TransactionManager;

/// Outcome of a single write primitive.
enum class WriteStatus {
  kOk,
  /// Fail-fast write-write conflict (paper §2.3.1): a foreign uncommitted
  /// version exists, or a committed version newer than our start timestamp.
  kWwConflict,
  /// Insert found a live visible row with the same key.
  kDuplicateKey,
};

/// Core transaction state shared by the OMVCC and MV3C engines: start
/// timestamp, transaction id, and the undo buffer (the ordered list of
/// versions this transaction created, paper §2.1/§2.2).
///
/// The typed read/write primitives below implement snapshot reads
/// (Definition 2.3), versioned updates/inserts/deletes with the per-table
/// write-write policy, rollback, and commit publication (including the
/// newest-version-per-object rule of Definition 2.2 and the §2.4.1 chain
/// move). Predicate bookkeeping — what distinguishes OMVCC's flat list from
/// MV3C's predicate graph — lives in the engine-specific wrappers.
class Transaction {
 public:
  explicit Transaction(TransactionManager* mgr) : mgr_(mgr) {}
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TransactionManager* manager() const { return mgr_; }
  Timestamp start_ts() const { return start_ts_; }
  Timestamp txn_id() const { return txn_id_; }

  /// Reads the visible version of `obj` (nullptr if none or deleted).
  template <typename TableT>
  const Version<typename TableT::Row>* ReadVersion(
      const TableT& table, const typename TableT::Object* obj) const {
    return obj->ReadVisible(start_ts_, txn_id_);
  }

  /// Creates a new version of `obj` carrying `new_data`. `blind` marks a
  /// blind write (§2.4.1): the writer did not read the row's current value
  /// for the fields it changed, so the write cannot conflict. The MV3C
  /// facade registers the returned version with the creating predicate.
  template <typename TableT>
  WriteStatus Update(TableT& table, typename TableT::Object* obj,
                     const typename TableT::Row& new_data, ColumnMask modified,
                     bool blind, WwPolicy policy,
                     Version<typename TableT::Row>** out = nullptr) {
    using Row = typename TableT::Row;
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, new_data);
    v->set_modified_columns(modified);
    v->set_blind_write(blind);
    if (obj->Push(v, policy, start_ts_, txn_id_) !=
        DataObjectBase::PushResult::kOk) {
      // Never linked, never observed: freed immediately, through the same
      // arena path as GC-retired versions (no more inline-delete asymmetry).
      VersionArena::Destroy(v);
      return WriteStatus::kWwConflict;
    }
    RegisterVersion(v);
    MaybeTruncateChain(obj);
    if (out != nullptr) *out = v;
    return WriteStatus::kOk;
  }

  /// Inserts a row. Always fail-fast on write-write conflicts (§2.3.1:
  /// operations that create or remove keys never interleave). Returns
  /// kDuplicateKey if a live row with this key is visible.
  template <typename TableT>
  WriteStatus Insert(TableT& table, const typename TableT::Key& key,
                     const typename TableT::Row& data,
                     typename TableT::Object** out_obj = nullptr,
                     Version<typename TableT::Row>** out_version = nullptr) {
    using Row = typename TableT::Row;
    typename TableT::Object* obj = table.GetOrCreate(key);
    if (obj->ReadVisible(start_ts_, txn_id_) != nullptr) {
      return WriteStatus::kDuplicateKey;
    }
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, data);
    v->set_modified_columns(ColumnMask::All());
    v->set_is_insert(true);
    if (obj->Push(v, WwPolicy::kFailFast, start_ts_, txn_id_) !=
        DataObjectBase::PushResult::kOk) {
      VersionArena::Destroy(v);  // never linked
      return WriteStatus::kWwConflict;
    }
    RegisterVersion(v);
    if (out_obj != nullptr) *out_obj = obj;
    if (out_version != nullptr) *out_version = v;
    return WriteStatus::kOk;
  }

  /// Deletes a row by appending a tombstone version. The tombstone carries
  /// the before-image payload so range/filter criteria can evaluate it.
  /// Always fail-fast (§2.3.1).
  template <typename TableT>
  WriteStatus Delete(TableT& table, typename TableT::Object* obj,
                     Version<typename TableT::Row>** out_version = nullptr) {
    using Row = typename TableT::Row;
    const Version<Row>* before = obj->ReadVisible(start_ts_, txn_id_);
    MV3C_CHECK(before != nullptr);
    auto* v = arena().Create<Version<Row>>(&table, obj, txn_id_, before->data());
    v->set_modified_columns(ColumnMask::All());
    v->set_tombstone(true);
    if (obj->Push(v, WwPolicy::kFailFast, start_ts_, txn_id_) !=
        DataObjectBase::PushResult::kOk) {
      VersionArena::Destroy(v);  // never linked
      return WriteStatus::kWwConflict;
    }
    RegisterVersion(v);
    if (out_version != nullptr) *out_version = v;
    return WriteStatus::kOk;
  }

  /// Unlinks and retires every version this transaction created (rollback
  /// on user abort or full restart).
  void RollbackWrites() {
    for (VersionBase* v : undo_) {
      v->object()->Unlink(v);
      Retire(v);
    }
    undo_.clear();
  }

  /// Unlinks and retires one version (MV3C repair pruning, Algorithm 2
  /// lines 7 and 10: "remove them from the undo buffer").
  void PruneVersion(VersionBase* v) {
    auto it = std::find(undo_.begin(), undo_.end(), v);
    MV3C_CHECK(it != undo_.end());
    undo_.erase(it);
    v->object()->Unlink(v);
    Retire(v);
  }

  /// Commits all versions at `commit_ts`: enforces Definition 2.2 (only
  /// the newest version per object survives; superseded ones are unlinked),
  /// performs the §2.4.1 move where needed, and returns the recently-
  /// committed record (nullptr for read-only transactions). Must be called
  /// from inside the manager's commit critical section.
  CommittedRecord* PublishCommit(Timestamp commit_ts) {
    if (undo_.empty()) return nullptr;
    auto* rec = arena().Create<CommittedRecord>();
    rec->commit_ts = commit_ts;
    rec->versions.reserve(undo_.size());
    // Per-object union of modified-column masks: the surviving (newest)
    // version represents the transaction's whole effect on the object, so
    // its mask for validation purposes is the union, and columns outside
    // the union are merged from the latest committed version (making
    // partial-column writes compose with concurrent committers).
    //
    // One forward pass folds each object's masks into a scratch table and
    // records the undo position of its newest version; the publishing pass
    // then walks the undo buffer newest-first and looks each object up.
    // Both are linear; the table is reused across commits.
    const uint32_t n = static_cast<uint32_t>(undo_.size());
    ResetPublishTable(n);
    for (uint32_t i = 0; i < n; ++i) {
      PublishSlot& s = PublishSlotFor(undo_[i]->object());
      s.effect |= undo_[i]->modified_columns();
      s.newest = i;
    }
    for (uint32_t i = n; i-- > 0;) {
      VersionBase* v = undo_[i];
      const PublishSlot& e = PublishSlotFor(v->object());
      if (e.newest != i) {
        // An older version of an object whose newest version this commit
        // publishes: it never becomes visible (Definition 2.2).
        v->object()->Unlink(v);
        Retire(v);
        continue;
      }
      if (!v->is_insert() && !v->tombstone() &&
          e.effect != ColumnMask::All()) {
        const VersionBase* base = v->object()->LatestCommitted();
        if (base != nullptr && !base->tombstone()) {
          v->MergeColumnsFrom(*base, e.effect);
        }
      }
      v->set_modified_columns(e.effect);
      VersionBase* committed = v->object()->CommitVersion(v, commit_ts);
      if (committed != v) Retire(v);  // the §2.4.1 move used a clone
      rec->versions.push_back(committed);
    }
    undo_.clear();
    return rec;
  }

  const std::vector<VersionBase*>& undo_buffer() const { return undo_; }

  // --- manager-facing lifecycle hooks (see TransactionManager) ---

  void OnBegin(Timestamp start, Timestamp id, uint32_t slot) {
    start_ts_ = start;
    txn_id_ = id;
    slot_ = slot;
    validated_up_to_ = start;
    wal_epoch_ = 0;
    wal_repaired_ = false;
  }
  void OnNewStartTs(Timestamp start) { start_ts_ = start; }
  uint32_t slot() const { return slot_; }

  /// Highest commit timestamp already covered by a validation pass. Every
  /// recently-committed record with commit_ts <= this value has been
  /// matched against the transaction's predicates (or committed before the
  /// transaction's current lifetime); later passes only examine newer
  /// records. Initialized to the start timestamp; kept across repair
  /// rounds (§2.5), reset on a full restart.
  Timestamp validated_up_to() const { return validated_up_to_; }
  void set_validated_up_to(Timestamp ts) {
    if (ts > validated_up_to_) validated_up_to_ = ts;
  }
  void ClampValidatedUpTo(Timestamp ts) {
    if (ts < validated_up_to_) validated_up_to_ = ts;
  }
  void ResetValidationWatermark() { validated_up_to_ = start_ts_; }

  // --- durability hooks (inert pointers/flags without a log attached) ---

  /// Per-worker WAL staging buffer; the manager's commit path creates one
  /// lazily for this transaction context and reuses it across Begins.
  wal::LogBuffer* wal_buffer() const { return wal_buffer_; }
  void set_wal_buffer(wal::LogBuffer* b) { wal_buffer_ = b; }

  /// Epoch the last commit's redo records were tagged with; 0 when nothing
  /// was logged. The executor waits for this to become durable.
  uint64_t wal_epoch() const { return wal_epoch_; }
  void set_wal_epoch(uint64_t e) { wal_epoch_ = e; }

  /// Set by the MV3C executor when the transaction went through at least
  /// one repair round before committing; stamped on its redo records
  /// (kFlagRepaired) so tests can assert only the final write set is
  /// logged. Reset by OnBegin.
  bool wal_repaired() const { return wal_repaired_; }
  void set_wal_repaired() { wal_repaired_ = true; }

 private:
  void RegisterVersion(VersionBase* v) { undo_.push_back(v); }

  /// PublishCommit's scratch: an open-addressed table (linear probing,
  /// power-of-two size, at least twice the undo length) from object to the
  /// union of its versions' masks and the undo position of the newest one.
  struct PublishSlot {
    const DataObjectBase* object = nullptr;
    uint32_t newest = 0;
    ColumnMask effect;
  };

  void ResetPublishTable(uint32_t n) {
    size_t slots = 8;
    while (slots < 2 * size_t{n}) slots <<= 1;
    publish_.assign(slots, PublishSlot{});
  }

  /// Fibonacci hashing of the object address (the top log2(size) bits of
  /// the product); claims an empty slot on a miss.
  PublishSlot& PublishSlotFor(const DataObjectBase* obj) {
    const size_t mask = publish_.size() - 1;
    const int shift = std::countl_zero(publish_.size()) + 1;
    size_t i = static_cast<size_t>(
        (reinterpret_cast<uintptr_t>(obj) * 0x9E3779B97F4A7C15ull) >> shift);
    while (publish_[i].object != obj && publish_[i].object != nullptr) {
      i = (i + 1) & mask;
    }
    publish_[i].object = obj;
    return publish_[i];
  }

  // Defined in transaction_manager.h (needs the manager's GC and clock).
  void Retire(VersionBase* v);
  void MaybeTruncateChain(DataObjectBase* obj);
  VersionArena& arena() const;

  TransactionManager* mgr_;
  Timestamp start_ts_ = 0;
  Timestamp txn_id_ = 0;
  uint32_t slot_ = ~0u;
  std::vector<VersionBase*> undo_;
  std::vector<PublishSlot> publish_;
  Timestamp validated_up_to_ = 0;
  wal::LogBuffer* wal_buffer_ = nullptr;
  uint64_t wal_epoch_ = 0;
  bool wal_repaired_ = false;
};

}  // namespace mv3c

#endif  // MV3C_MVCC_TRANSACTION_H_
