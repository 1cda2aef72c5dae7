#ifndef MV3C_WAL_STATE_HASH_H_
#define MV3C_WAL_STATE_HASH_H_

#include <cstdint>
#include <cstring>

#include "common/crc32.h"
#include "mvcc/table.h"
#include "mvcc/timestamp.h"
#include "sv/sv_table.h"

namespace mv3c::wal {

/// Order-independent digest of a table's visible committed state, used by
/// the recovery-equivalence tests: digest the pre-crash tables, replay the
/// log into fresh tables, digest again, compare. Per-row hashes combine by
/// wrapping addition, so the (arbitrary, insert-order-dependent) cuckoo
/// iteration order of the two tables does not matter. Rows are hashed as
/// raw bytes — the same memcpy pipeline the log uses — so padding bytes
/// are identical on both sides (rows are value-initialized everywhere).
struct TableDigest {
  uint64_t hash = 0;
  uint64_t live_rows = 0;

  bool operator==(const TableDigest& o) const {
    return hash == o.hash && live_rows == o.live_rows;
  }
  bool operator!=(const TableDigest& o) const { return !(*this == o); }
};

namespace digest_internal {

/// splitmix64 finalizer: spreads the 32-bit CRC over 64 bits before the
/// commutative sum so colliding low bits don't cancel.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

inline uint64_t RowHash(const void* key, size_t key_bytes, const void* row,
                        size_t row_bytes) {
  uint32_t c = crc32::Compute(key, key_bytes);
  c = crc32::Extend(c, row, row_bytes);
  return Mix((static_cast<uint64_t>(key_bytes) << 32) | c);
}

}  // namespace digest_internal

/// Digest of an MVCC table's latest-committed visible state (what a fresh
/// read-only transaction would see). Must not run concurrently with
/// writers.
template <typename TableT>
TableDigest DigestMvccTable(const TableT& table) {
  using Row = typename TableT::Row;
  TableDigest d;
  table.ForEachObject([&](const typename TableT::Object& obj) {
    // Visible-state read: newest committed version, any committer.
    const Version<Row>* v = obj.ReadVisible(kTxnIdBase - 1, /*txn_id=*/0);
    if (v == nullptr) return;  // never committed, or deleted
    d.hash += digest_internal::RowHash(&obj.key(), sizeof(obj.key()),
                                       &v->data(), sizeof(Row));
    ++d.live_rows;
  });
  return d;
}

/// Digest of a single-version table's live rows. Must not run concurrently
/// with writers.
template <typename SvTableT>
TableDigest DigestSvTable(const SvTableT& table) {
  using K = typename SvTableT::Key;
  using Row = typename SvTableT::Row;
  TableDigest d;
  table.ForEachRecord([&](const K& key, const sv::Record<K, Row>& rec) {
    Row row;
    if (sv::IsAbsent(rec.ReadStable(&row))) return;
    d.hash += digest_internal::RowHash(&key, sizeof(K), &row, sizeof(Row));
    ++d.live_rows;
  });
  return d;
}

}  // namespace mv3c::wal

#endif  // MV3C_WAL_STATE_HASH_H_
