#ifndef MV3C_SV_SV_TABLE_H_
#define MV3C_SV_SV_TABLE_H_

#include <atomic>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>

#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"
#include "index/cuckoo_map.h"

namespace mv3c {

/// Single-version in-memory storage shared by the OCC and SILO baselines
/// (the paper compares against THEDB's OCC and SILO implementations on
/// TPC-C, §6.1.1). Each record carries one Silo-style TID word:
///
///   bit 63: LOCK   — held by a committing writer
///   bit 62: ABSENT — the slot exists but holds no live row
///   bits 0..61     — the record's version number (grows on every commit)
///
/// Readers copy the row optimistically and retry until they observe the
/// same unlocked TID before and after the copy.
namespace sv {

inline constexpr uint64_t kLockBit = 1ULL << 63;
inline constexpr uint64_t kAbsentBit = 1ULL << 62;
inline constexpr uint64_t kTidMask = kAbsentBit - 1;

inline bool IsLocked(uint64_t w) { return (w & kLockBit) != 0; }
inline bool IsAbsent(uint64_t w) { return (w & kAbsentBit) != 0; }

/// Seqlock payload copies. A record's row lives in 8-byte atomic words,
/// read and written with relaxed accesses, so a reader racing an install
/// sees at worst a torn row, which its TID re-check rejects, and never a
/// C++ data race. `n` is the row size; the last word is zero-padded.
inline void LoadPayload(void* dst, const std::atomic<uint64_t>* words,
                        size_t n) {
  auto* out = static_cast<unsigned char*>(dst);
  const size_t full = n / 8;
  for (size_t i = 0; i < full; ++i) {
    const uint64_t w = words[i].load(std::memory_order_relaxed);
    std::memcpy(out + 8 * i, &w, 8);
  }
  if (n % 8 != 0) {
    const uint64_t w = words[full].load(std::memory_order_relaxed);
    std::memcpy(out + 8 * full, &w, n % 8);
  }
}

inline void StorePayload(std::atomic<uint64_t>* words, const void* src,
                         size_t n) {
  const auto* in = static_cast<const unsigned char*>(src);
  const size_t full = n / 8;
  for (size_t i = 0; i < full; ++i) {
    uint64_t w;
    std::memcpy(&w, in + 8 * i, 8);
    words[i].store(w, std::memory_order_relaxed);
  }
  if (n % 8 != 0) {
    uint64_t w = 0;
    std::memcpy(&w, in + 8 * full, n % 8);
    words[full].store(w, std::memory_order_relaxed);
  }
}

/// One record: TID word, the row payload in place, and the owning key. The
/// key is stored on the record (set once at allocation, immutable after)
/// so the redo serializer and scan consumers can reach it without an index
/// lookup; record addresses are stable (deque arena), so pointers to it
/// stay valid for the transaction's lifetime.
template <typename K, typename Row>
struct Record {
  static_assert(std::is_trivially_copyable_v<Row>,
                "single-version rows are copied bytewise");
  static_assert(std::is_trivially_copyable_v<K>,
                "single-version keys are logged with memcpy");
  explicit Record(const K& k) : key_(k) {}

  const K& key() const { return key_; }

  /// The row's words: writers store into them (StorePayload) only while
  /// they hold the record's lock or no transaction runs.
  std::atomic<uint64_t>* payload() { return payload_; }

  /// Optimistically reads a stable snapshot of the row; returns the TID
  /// word observed (possibly ABSENT). Spins across concurrent installs.
  uint64_t ReadStable(Row* out) const {
    while (true) {
      const uint64_t v1 = tid.load(std::memory_order_acquire);
      if (IsLocked(v1)) continue;
      LoadPayload(out, payload_, sizeof(Row));
      std::atomic_thread_fence(std::memory_order_acquire);
      const uint64_t v2 = tid.load(std::memory_order_acquire);
      if (v1 == v2) return v1;
    }
  }

  std::atomic<uint64_t> tid{kAbsentBit};

 private:
  std::atomic<uint64_t> payload_[(sizeof(Row) + 7) / 8]{};
  K key_;
};

/// A single-version table: cuckoo index from key to arena-allocated
/// records. Records are never physically removed; deletion sets ABSENT.
template <typename K, typename RowT>
class SvTable {
 public:
  using Key = K;
  using Row = RowT;
  using Object = Record<K, RowT>;

  explicit SvTable(std::string name, size_t expected_rows = 1024)
      : name_(std::move(name)), index_(expected_rows) {}
  SvTable(const SvTable&) = delete;
  SvTable& operator=(const SvTable&) = delete;

  const std::string& name() const { return name_; }

  Object* Find(const K& key) const {
    Object* r = nullptr;
    (void)index_.Find(key, &r);  // miss leaves r nullptr, the signal
    return r;
  }

  /// Returns the record for `key`, creating an ABSENT one if needed.
  Object* GetOrCreate(const K& key) {
    Object* r = Find(key);
    if (r != nullptr) return r;
    Object* fresh = Allocate(key);
    if (index_.Insert(key, fresh)) return fresh;
    MV3C_CHECK(index_.Find(key, &r));  // insert loser: winner must exist
    return r;
  }

  /// Non-transactional load (initial population, WAL replay): installs the
  /// row, present, at `tid` (1 for population; replay passes the record's
  /// commit TID).
  void LoadRow(const K& key, const RowT& row, uint64_t tid = 1) {
    Object* r = GetOrCreate(key);
    StorePayload(r->payload(), &row, sizeof(RowT));
    r->tid.store(tid & kTidMask, std::memory_order_release);
  }

  /// Non-transactional delete (WAL replay of a tombstone record): marks
  /// the row ABSENT at `tid`.
  void LoadTombstone(const K& key, uint64_t tid = 1) {
    Object* r = GetOrCreate(key);
    r->tid.store((tid & kTidMask) | kAbsentBit, std::memory_order_release);
  }

  /// Conditional loads for checkpoint-based recovery: the WAL suffix may
  /// replay a commit the checkpoint already captured (the fuzzy scan races
  /// installs of epochs past the cut), so a load only applies when its TID
  /// is at least as new as what the record holds. Equal TIDs re-apply: the
  /// suffix record is then the very commit the checkpoint captured (or a
  /// later write of the same multi-write transaction), so re-application
  /// is idempotent — and required for last-write-wins within one TID.
  /// Fresh records carry version 0 (the ABSENT sentinel masks to 0), so
  /// loading into an empty table degenerates to the unconditional paths.
  void LoadRowIfNewer(const K& key, const RowT& row, uint64_t tid) {
    Object* r = GetOrCreate(key);
    if ((tid & kTidMask) <
        (r->tid.load(std::memory_order_acquire) & kTidMask)) {
      return;
    }
    StorePayload(r->payload(), &row, sizeof(RowT));
    r->tid.store(tid & kTidMask, std::memory_order_release);
  }

  void LoadTombstoneIfNewer(const K& key, uint64_t tid) {
    Object* r = GetOrCreate(key);
    if ((tid & kTidMask) <
        (r->tid.load(std::memory_order_acquire) & kTidMask)) {
      return;
    }
    r->tid.store((tid & kTidMask) | kAbsentBit, std::memory_order_release);
  }

  size_t RecordCount() const { return index_.Size(); }

  /// Applies `fn(const K&, const Object&)` to every record, live or ABSENT
  /// (weakly consistent under concurrent inserts); state digests filter
  /// visibility themselves.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    index_.ForEach([&fn](const K& k, Object* r) { fn(k, *r); });
  }

  /// Durability identity, mirroring TableBase::wal_id on the MVCC side:
  /// nonzero once the table is registered with a wal::Catalog.
  uint32_t wal_id() const { return wal_id_; }
  void set_wal_id(uint32_t id) { wal_id_ = id; }

  /// Approximate record-arena footprint; the single-version counterpart of
  /// VersionArena's held_bytes, reported by bench/overhead_memory.
  size_t ApproxArenaBytes() const {
    SpinLockGuard g(arena_lock_);
    return arena_.size() * sizeof(Object);
  }

 private:
  Object* Allocate(const K& key) {
    SpinLockGuard g(arena_lock_);
    arena_.emplace_back(key);
    return &arena_.back();
  }

  const std::string name_;
  CuckooMap<K, Object*> index_;
  mutable SpinLock arena_lock_;
  std::deque<Object> arena_ MV3C_GUARDED_BY(arena_lock_);
  /// Registration-phase metadata: set_wal_id runs while the catalog wires
  /// tables to the log, before any worker starts; read-only afterwards.
  // mv3c-lint: allow(guarded_by_coverage)
  uint32_t wal_id_ = 0;
};

}  // namespace sv
}  // namespace mv3c

#endif  // MV3C_SV_SV_TABLE_H_
