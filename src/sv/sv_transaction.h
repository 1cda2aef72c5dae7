#ifndef MV3C_SV_SV_TRANSACTION_H_
#define MV3C_SV_SV_TRANSACTION_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "common/column_mask.h"
#include "common/macros.h"
#include "common/status.h"
#include "mvcc/predicate.h"    // ScanResultEntry
#include "mvcc/transaction.h"  // WriteStatus, WwPolicy
#include "sv/sv_table.h"

namespace mv3c::sv {

/// Read-set entry: the TID word observed for a record (including ABSENT
/// observations, which protect repeatable non-existence).
struct SvRead {
  const std::atomic<uint64_t>* tid_word;
  uint64_t observed;
};

/// Node-set entry: an ordered-index shard version observed by a range
/// scan; re-validated at commit to catch phantoms (Silo's node-set
/// technique, reused by our OCC for simplicity).
struct SvNode {
  const std::atomic<uint64_t>* version;
  uint64_t observed;
};

/// Write-set entry. Row images live in the transaction's byte arena and
/// are installed with StorePayload while the record is locked.
struct SvWrite {
  enum class Op : uint8_t { kUpdate, kInsert, kDelete };
  std::atomic<uint64_t>* tid_word;
  std::atomic<uint64_t>* dst;  // the record's payload words
  size_t size;
  size_t buf_offset;
  Op op;
  /// Durability identity: the owning table's wal_id (0 when the table is
  /// not WAL-registered — the redo serializer skips such entries) and the
  /// record's stored key (stable address, deque arena).
  uint32_t wal_table_id;
  uint32_t key_bytes;
  const void* key;
};

/// The read phase of a single-version optimistic transaction: collects
/// read, node and write sets; the commit protocol (OCC or SILO) consumes
/// them.
///
/// Programs are the MV3C DSL programs (mv3c_transaction.h), run inline as
/// OmvccTransaction runs them: each read calls its closure immediately and
/// nothing is stored but the read, node and write sets. Writes are
/// buffered until commit, so there is no write-write conflict to detect
/// during execution; an InsertRow that finds a live key reports one, and
/// the executor retries the round.
///
/// A transaction may read and write one record any number of times: a
/// read of a record in the write set returns the latest buffered image
/// (read-your-own-writes), so a TPC-C New-Order naming the same stock row
/// twice applies both lines' updates, and every write is buffered and
/// installed in program order.
///
/// Row images are bump-allocated into a per-transaction byte arena that is
/// reused across transactions — the single-version mirror of the MVCC
/// VersionArena (DESIGN §5c): the hot path never touches the system
/// allocator, and Clear() bounds the retained capacity so one oversized
/// transaction cannot pin memory forever.
class SvTransaction {
 public:
  /// Retained-capacity bound: a transaction whose write buffer grew past
  /// this is released back to the allocator at Clear() instead of kept.
  static constexpr size_t kMaxRetainedArenaBytes = 64 * 1024;

  SvTransaction() { arena_.reserve(4096); }
  SvTransaction(const SvTransaction&) = delete;
  SvTransaction& operator=(const SvTransaction&) = delete;

  /// Point lookup by primary key; calls `closure(*this, object, row)` as
  /// Mv3cTransaction::Lookup does, with `row` nullptr if the row is absent.
  /// A key that was never inserted gets an ABSENT record, so its
  /// non-existence is validated like any other read.
  template <typename TableT, typename Closure>
  ExecStatus Lookup(TableT& table, const typename TableT::Key& key,
                    ColumnMask /*monitored*/, Closure&& closure) {
    typename TableT::Object* rec = table.GetOrCreate(key);
    typename TableT::Row row;
    const bool live = ReadRecord(rec, &row);
    return closure(*this, rec, live ? &row : nullptr);
  }

  /// Ordered-index range scan, arguments as in Mv3cTransaction::RangeScan.
  /// The shard version is observed before the scan (phantom validation
  /// replaces the MVCC key-range predicate, so `extract` and `monitored`
  /// are unused); every visited record joins the read set, and ABSENT rows
  /// are skipped before `limit` applies, so a reverse limit-1 scan falls
  /// through to the newest live row.
  template <typename TableT, typename IndexT, typename Extract,
            typename Closure>
  ExecStatus RangeScan(
      TableT& /*table*/, const IndexT& index,
      const typename IndexT::KeyType& lo, const typename IndexT::KeyType& hi,
      Extract&& /*extract*/,
      std::function<bool(const typename TableT::Row&)> filter,
      ColumnMask /*monitored*/, size_t limit, bool reverse,
      Closure&& closure) {
    const std::atomic<uint64_t>& version = index.ShardVersionRef(lo);
    nodes_.push_back({&version, version.load(std::memory_order_acquire)});
    std::vector<ScanResultEntry<TableT>> entries;
    auto visit = [&](const typename IndexT::KeyType&,
                     typename TableT::Object* rec) -> bool {
      typename TableT::Row row;
      if (!ReadRecord(rec, &row)) return true;
      if (filter != nullptr && !filter(row)) return true;
      entries.push_back({rec, row});
      return limit == 0 || entries.size() < limit;
    };
    if (reverse) {
      index.ScanRangeReverse(lo, hi, visit);
    } else {
      index.ScanRange(lo, hi, visit);
    }
    return closure(*this, entries);
  }

  /// Buffers an update. Single-version writes are whole-row and always
  /// deferred to commit, so the MV3C program's column mask, `blind` flag
  /// and per-operation policy are ignored.
  template <typename TableT>
  ExecStatus UpdateRow(TableT& table, typename TableT::Object* rec,
                       const typename TableT::Row& new_row,
                       ColumnMask /*modified*/, bool /*blind*/ = false,
                       std::optional<WwPolicy> /*policy_override*/ = {}) {
    Buffer(table, rec, &new_row, SvWrite::Op::kUpdate);
    return ExecStatus::kOk;
  }

  /// Buffers an insert; returns kDuplicateKey if a live row with the key
  /// exists (the observation is registered either way, so a racing insert
  /// is caught at validation).
  template <typename TableT>
  WriteStatus InsertRow(TableT& table, const typename TableT::Key& key,
                        const typename TableT::Row& row,
                        typename TableT::Object** out_obj = nullptr) {
    typename TableT::Object* rec = table.GetOrCreate(key);
    typename TableT::Row current;
    if (ReadRecord(rec, &current)) return WriteStatus::kDuplicateKey;
    Buffer(table, rec, &row, SvWrite::Op::kInsert);
    if (out_obj != nullptr) *out_obj = rec;
    return WriteStatus::kOk;
  }

  /// Buffers a delete of a record previously read.
  template <typename TableT>
  ExecStatus DeleteRow(TableT& table, typename TableT::Object* rec) {
    Buffer<TableT>(table, rec, nullptr, SvWrite::Op::kDelete);
    return ExecStatus::kOk;
  }

  const std::vector<SvRead>& reads() const { return reads_; }
  const std::vector<SvNode>& nodes() const { return nodes_; }
  const std::vector<SvWrite>& writes() const { return writes_; }
  const uint8_t* arena() const { return arena_.data(); }

  void Clear() {
    reads_.clear();
    nodes_.clear();
    for (const SvWrite& w : writes_) {
      const size_t bit = FilterBit(w.tid_word);
      write_filter_[bit / 64] &= ~(1ULL << (bit % 64));
    }
    writes_.clear();
    if (arena_.capacity() > kMaxRetainedArenaBytes) {
      arena_ = {};
      arena_.reserve(4096);
    } else {
      arena_.clear();
    }
  }

  /// True if the record owning `word` is in this transaction's write set
  /// (used by SILO read validation: locked-by-me is fine).
  bool WritesWord(const std::atomic<uint64_t>* word) const {
    return LastWrite(word) != nullptr;
  }

  /// The newest write-set entry for `word`, or nullptr. Most reads touch
  /// records the transaction never wrote (a Delivery scans every delivered
  /// NEW-ORDER ghost of its districts), so a Bloom filter over the write
  /// set answers them without walking it.
  const SvWrite* LastWrite(const std::atomic<uint64_t>* word) const {
    const size_t bit = FilterBit(word);
    if ((write_filter_[bit / 64] & (1ULL << (bit % 64))) == 0) return nullptr;
    for (size_t i = writes_.size(); i > 0; --i) {
      if (writes_[i - 1].tid_word == word) return &writes_[i - 1];
    }
    return nullptr;
  }

 private:
  /// Reads `rec` for this transaction into `*out`: the latest buffered
  /// image if the transaction wrote the record, otherwise a stable
  /// committed snapshot whose TID word joins the read set. Returns false
  /// if the row is absent or deleted.
  template <typename Object, typename Row>
  bool ReadRecord(Object* rec, Row* out) {
    if (const SvWrite* w = LastWrite(&rec->tid)) {
      if (w->op == SvWrite::Op::kDelete) return false;
      std::memcpy(out, arena_.data() + w->buf_offset, sizeof(Row));
      return true;
    }
    const uint64_t word = rec->ReadStable(out);
    reads_.push_back({&rec->tid, word});
    return !IsAbsent(word);
  }

  template <typename TableT>
  void Buffer(TableT& table, typename TableT::Object* rec,
              const typename TableT::Row* row, SvWrite::Op op) {
    const size_t size = row == nullptr ? 0 : sizeof(*row);
    const size_t off = row == nullptr ? 0 : Push(row, size);
    writes_.push_back({&rec->tid, rec->payload(), size, off, op,
                       table.wal_id(),
                       static_cast<uint32_t>(sizeof(rec->key())),
                       &rec->key()});
    const size_t bit = FilterBit(&rec->tid);
    write_filter_[bit / 64] |= 1ULL << (bit % 64);
  }

  // 8192 bits keep a Delivery's ~130 writes at a ~2% false-positive
  // rate; Clear() resets only the bits its writes set.
  static constexpr int kFilterLog2 = 13;
  static size_t FilterBit(const void* p) {
    return static_cast<size_t>((reinterpret_cast<uintptr_t>(p) >> 3) *
                               0x9E3779B97F4A7C15ULL) >>
           (64 - kFilterLog2);
  }

  size_t Push(const void* src, size_t n) {
    const size_t off = arena_.size();
    arena_.resize(off + n);
    std::memcpy(arena_.data() + off, src, n);
    return off;
  }

  std::vector<SvRead> reads_;
  std::vector<SvNode> nodes_;
  std::vector<SvWrite> writes_;
  uint64_t write_filter_[(size_t{1} << kFilterLog2) / 64] = {};
  std::vector<uint8_t> arena_;
};

/// Installs the write set at `commit_tid`; every record must be locked (or
/// the caller must hold the global validation mutex).
inline void InstallWrites(const SvTransaction& t, uint64_t commit_tid) {
  for (const SvWrite& w : t.writes()) {
    if (w.op != SvWrite::Op::kDelete) {
      StorePayload(w.dst, t.arena() + w.buf_offset, w.size);
    }
    // If a later entry targets the same record (a transaction may write a
    // record more than once), defer the TID publication — publishing now
    // would drop the lock while the later copy is still pending and let
    // readers accept a torn row.
    if (t.LastWrite(w.tid_word) != &w) continue;
    uint64_t word = commit_tid;
    if (w.op == SvWrite::Op::kDelete) word |= kAbsentBit;
    w.tid_word->store(word, std::memory_order_release);
  }
}

}  // namespace mv3c::sv

#endif  // MV3C_SV_SV_TRANSACTION_H_
