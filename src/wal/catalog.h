#ifndef MV3C_WAL_CATALOG_H_
#define MV3C_WAL_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "mvcc/transaction_manager.h"
#include "mvcc/version.h"
#include "sv/sv_table.h"
#include "wal/checkpoint.h"
#include "wal/recovery.h"
#include "wal/wal_format.h"

namespace mv3c::wal {

/// Maps stable table ids to live tables, in both directions: registration
/// stamps the table's wal_id (turning its commits into redo records), and
/// Recover() replays a log directory's records back into the registered
/// tables. The same Catalog value (same ids, same registration order) must
/// be constructed before the workload runs and before recovery — the id is
/// the only identity the log carries.
///
/// Registration also builds the type-erased checkpoint closures: a scan
/// (streaming the table's snapshot state as WAL-framed records) and the
/// shared load path — checkpoint segments reuse the WAL record format, so
/// the SAME binding that replays a log record loads a checkpoint record.
/// That is how the checkpointer (wal::Checkpointer, below both storage
/// engines in the link graph) stays ignorant of MVCC and SV table types.
///
/// Replay is non-transactional: ReplayLogDir hands records over sorted by
/// commit_ts — merging the streams of a partitioned log (epoch order
/// across streams, timestamp order within an epoch) behind that one
/// callback, capped at the durable cut (recovery.h) — and each binding
/// applies them with the tables' load paths
/// (version Push for MVCC, if-newer LoadRow/LoadTombstone for SV).
/// Applying in ascending commit order keeps MVCC chains head-newest and
/// makes SV last-write-wins trivially correct. Checkpoint loading is
/// parallel per table — bindings of distinct tables touch disjoint
/// indexes/chains, and the shared commit-clock watermark is an atomic.
class Catalog {
 public:
  /// Registers an MVCC table. `mgr` owns the VersionArena that replayed
  /// versions are allocated from, and gets its commit clock advanced past
  /// the replayed timestamps at the end of Recover() so post-recovery
  /// transactions order after the replayed history.
  template <typename TableT>
  void RegisterMvcc(uint32_t id, TableT* table, TransactionManager* mgr) {
    static_assert(TableT::kWalEncodable,
                  "WAL-registered tables need trivially copyable key/row");
    using K = typename TableT::Key;
    using Row = typename TableT::Row;
    // No padding bits allowed: the log and the recovery-equivalence digest
    // are byte-level, but struct assignment is free to skip padding, so a
    // padded type would not round-trip deterministically. Add explicit
    // zero-initialized `pad_` members to the struct to satisfy this.
    static_assert(std::has_unique_object_representations_v<K> &&
                      std::has_unique_object_representations_v<Row>,
                  "WAL-registered key/row types must have no padding bytes");
    MV3C_CHECK(id != TableBase::kNoWalId);
    table->set_wal_id(id);
    AddManager(mgr);
    AddBinding(id, [this, table, mgr](const RecordView& r) {
      MV3C_CHECK(r.header.key_bytes == sizeof(K));
      K key;
      std::memcpy(&key, r.key, sizeof(K));
      typename TableT::Object* obj = table->GetOrCreate(key);
      Row row{};
      if (r.header.type == static_cast<uint8_t>(RecordType::kUpsert)) {
        MV3C_CHECK(r.header.val_bytes == sizeof(Row));
        std::memcpy(&row, r.val, sizeof(Row));
      } else {
        MV3C_CHECK(r.header.val_bytes == 0);
      }
      auto* v = mgr->arena().Create<Version<Row>>(table, obj,
                                                  r.header.commit_ts, row);
      v->set_modified_columns(ColumnMask(r.header.column_mask));
      v->set_tombstone(r.header.type ==
                       static_cast<uint8_t>(RecordType::kDelete));
      v->set_is_insert((r.header.flags & kFlagInsert) != 0);
      // kAllowMultiple skips the fail-fast conflict scan (there are no
      // concurrent writers of THIS table during replay — checkpoint
      // loading parallelizes across tables, never within one); ascending
      // commit_ts keeps the chain ordered newest-first.
      MV3C_CHECK(obj->Push(v, WwPolicy::kAllowMultiple, /*start_ts=*/0,
                           /*txn_id=*/0) == DataObjectBase::PushResult::kOk);
      NoteMvccTs(r.header.commit_ts);
    });
    // Checkpoint scan: the newest committed version visible at the pinned
    // snapshot timestamp, per object — exactly what FindVisible(scan_ts)
    // returns for a reader that began at scan_ts. Tombstones are captured
    // too: dropping them would let the recovered commit clock fall below a
    // deletion's timestamp and a later commit could push an older-ts
    // version onto the chain head.
    AddCkptSource(
        id, CkptTableKind::kMvcc, mgr,
        [table](uint64_t scan_ts, const CheckpointSink& sink) {
          table->ForEachObject([&](const typename TableT::Object& obj) {
            const VersionBase* v = obj.FindVisible(scan_ts, /*txn_id=*/0);
            if (v == nullptr) return;  // never committed before the pin
            const bool del = v->tombstone();
            RecordHeader h{};
            h.table_id = table->wal_id();
            h.commit_ts = v->ts();
            h.column_mask = ~0ULL;  // full row image
            h.key_bytes = sizeof(K);
            h.val_bytes = del ? 0 : sizeof(Row);
            h.type = static_cast<uint8_t>(del ? RecordType::kDelete
                                              : RecordType::kUpsert);
            // The loaded version is each chain's base: no earlier
            // committed version exists in the recovered image.
            h.flags = kFlagInsert;
            sink(h, &obj.key(),
                 del ? nullptr
                     : &static_cast<const Version<Row>&>(*v).data());
          });
        });
  }

  /// Registers a single-version table (OCC/SILO). Replay uses the
  /// non-transactional if-newer load paths; commit_ts is the Silo-style
  /// TID. If-newer (instead of unconditional last-write-wins) makes the
  /// same binding correct for checkpoint-based recovery, where the WAL
  /// suffix can replay commits the fuzzy scan already captured; for
  /// genesis replay the ascending-TID sort makes the two equivalent.
  template <typename SvTableT>
  void RegisterSv(uint32_t id, SvTableT* table) {
    using K = typename SvTableT::Key;
    using Row = typename SvTableT::Row;
    // Same no-padding contract as RegisterMvcc (see the comment there).
    static_assert(std::has_unique_object_representations_v<K> &&
                      std::has_unique_object_representations_v<Row>,
                  "WAL-registered key/row types must have no padding bytes");
    MV3C_CHECK(id != 0);
    table->set_wal_id(id);
    AddBinding(id, [table](const RecordView& r) {
      MV3C_CHECK(r.header.key_bytes == sizeof(K));
      K key;
      std::memcpy(&key, r.key, sizeof(K));
      if (r.header.type == static_cast<uint8_t>(RecordType::kUpsert)) {
        MV3C_CHECK(r.header.val_bytes == sizeof(Row));
        Row row;
        std::memcpy(&row, r.val, sizeof(Row));
        table->LoadRowIfNewer(key, row, r.header.commit_ts);
      } else {
        table->LoadTombstoneIfNewer(key, r.header.commit_ts);
      }
    });
    // Checkpoint scan: a fuzzy per-record pass through the optimistic read
    // protocol. Each image carries the TID it was captured at; the
    // if-newer load path reconciles it against the replayed WAL suffix.
    AddCkptSource(
        id, CkptTableKind::kSv, /*mgr=*/nullptr,
        [table](uint64_t /*scan_ts*/, const CheckpointSink& sink) {
          table->ForEachRecord([&](const K& key,
                                   const sv::Record<K, Row>& rec) {
            Row row;
            const uint64_t w = rec.ReadStable(&row);
            if ((w & sv::kTidMask) == 0) return;  // never committed
            const bool del = sv::IsAbsent(w);
            RecordHeader h{};
            h.table_id = table->wal_id();
            h.commit_ts = w & sv::kTidMask;
            h.column_mask = ~0ULL;
            h.key_bytes = sizeof(K);
            h.val_bytes = del ? 0 : sizeof(Row);
            h.type = static_cast<uint8_t>(del ? RecordType::kDelete
                                              : RecordType::kUpsert);
            sink(h, &key, del ? nullptr : &row);
          });
        });
  }

  /// Applies one record; false means the table id is unknown to this
  /// catalog (ReplayLogDir counts those and continues).
  bool Apply(const RecordView& r) {
    auto it = bindings_.find(r.header.table_id);
    if (it == bindings_.end()) return false;
    it->second(r);
    return true;
  }

  /// Opens one checkpoint round's sources: pins a snapshot on every
  /// registered TransactionManager (the Checkpointer calls this strictly
  /// AFTER reading the durable epoch — see wal::Checkpointer) and returns
  /// the per-table scans with their scan timestamps fixed. The returned
  /// release hook drops every pin; until it runs, the GC watermark cannot
  /// pass any scan_ts.
  CheckpointSources OpenCheckpointSources() {
    struct PinEntry {
      TransactionManager* mgr;
      TransactionManager::SnapshotPin pin;
    };
    auto pins = std::make_shared<std::vector<PinEntry>>();
    for (TransactionManager* mgr : managers_) {
      pins->push_back({mgr, mgr->PinSnapshot()});
    }
    CheckpointSources out;
    for (const CkptSourceBinding& b : ckpt_sources_) {
      uint64_t scan_ts = 0;
      if (b.mgr != nullptr) {
        for (const PinEntry& p : *pins) {
          if (p.mgr == b.mgr) {
            scan_ts = p.pin.ts;
            break;
          }
        }
      }
      CheckpointTableSource src;
      src.table_id = b.table_id;
      src.kind = b.kind;
      src.scan_ts = scan_ts;
      src.scan = [scan = b.scan, scan_ts](const CheckpointSink& sink) {
        scan(scan_ts, sink);
      };
      out.tables.push_back(std::move(src));
    }
    out.release = [pins] {
      for (const PinEntry& p : *pins) p.mgr->ReleaseSnapshot(p.pin);
      pins->clear();
    };
    return out;
  }

  /// Convenience for constructing a Checkpointer over this catalog.
  std::function<CheckpointSources()> CheckpointSourceProvider() {
    return [this] { return OpenCheckpointSources(); };
  }

  /// Genesis recovery: replays every durable record under `dir` into the
  /// registered tables, then advances each registered TransactionManager's
  /// clock past the largest replayed MVCC commit timestamp. Ignores
  /// checkpoints — recovery time grows with history length; prefer
  /// RecoverWithCheckpoints once a checkpointer runs.
  RecoveryReport Recover(const std::string& dir) {
    RecoveryReport report = ReplayLogDir(
        dir, [this](const RecordView& r) { return Apply(r); });
    AdvanceClocks();
    std::fprintf(stderr, "%s\n", report.Summary().c_str());
    return report;
  }

  /// Two-phase recovery (DESIGN §5g): load the newest fully-valid
  /// checkpoint with per-table parallel workers, then replay only the WAL
  /// suffix past its cut epoch — recovery time is bounded by the
  /// checkpoint interval, not history length. A damaged manifest or
  /// segment (CRC, torn write, wrong length) fails the WHOLE checkpoint
  /// before any record is applied, and recovery falls back to the previous
  /// manifest, and ultimately to genesis replay.
  ///
  /// `threads` caps the per-table load workers (0 = hardware concurrency).
  RecoveryReport RecoverWithCheckpoints(const std::string& dir,
                                        unsigned threads = 0) {
    RecoveryReport report;

    struct LoadedTable {
      ManifestTableEntry entry{};
      std::vector<uint8_t> buf;
      std::vector<RecordView> records;
      bool ok = false;
    };
    Manifest chosen;
    std::vector<LoadedTable> loaded;
    bool have_checkpoint = false;

    const std::vector<uint64_t> seqs = ListManifestSeqs(dir);
    for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
      Manifest m;
      if (!ReadManifest(dir, *it, &m)) {
        ++report.manifests_skipped;
        continue;
      }
      // Phase 1a: validate EVERY table segment completely before applying
      // a single record, so a fallback decision never leaves the tables
      // half-loaded. Validation is embarrassingly parallel per table.
      std::vector<LoadedTable> cand(m.tables.size());
      RunPerTable(m.tables.size(), threads, [&](size_t i) {
        cand[i].entry = m.tables[i];
        cand[i].ok = LoadCkptSegment(dir, *it, m.tables[i], &cand[i].buf,
                                     &cand[i].records);
      });
      bool all_ok = true;
      for (const LoadedTable& t : cand) all_ok = all_ok && t.ok;
      if (!all_ok) {
        ++report.manifests_skipped;
        continue;
      }
      chosen = m;
      loaded = std::move(cand);
      have_checkpoint = true;
      break;
    }

    std::unordered_map<uint32_t, uint64_t> mvcc_floor;
    ReplayOptions opts;
    if (have_checkpoint) {
      // Phase 1b: apply, parallel per table. Bindings of distinct tables
      // are disjoint (own index, own chains; the SV load paths and the
      // MVCC arena/commit-clock watermark are thread-safe).
      std::atomic<uint64_t> applied{0};
      std::atomic<uint64_t> unknown{0};
      RunPerTable(loaded.size(), threads, [&](size_t i) {
        const LoadedTable& t = loaded[i];
        auto binding = bindings_.find(t.entry.table_id);
        if (binding == bindings_.end()) {
          unknown.fetch_add(t.records.size(), std::memory_order_relaxed);
          return;
        }
        for (const RecordView& r : t.records) binding->second(r);
        applied.fetch_add(t.records.size(), std::memory_order_relaxed);
      });
      report.used_checkpoint = true;
      report.checkpoint_seq = chosen.header.checkpoint_seq;
      report.checkpoint_ts = chosen.header.checkpoint_ts;
      report.cut_epoch = chosen.header.cut_epoch;
      report.checkpoint_records_loaded =
          applied.load(std::memory_order_relaxed);
      report.checkpoint_tables_loaded =
          static_cast<uint32_t>(loaded.size());
      report.records_skipped_unknown_table +=
          unknown.load(std::memory_order_relaxed);
      for (const ManifestTableEntry& e : chosen.tables) {
        if (e.kind == static_cast<uint8_t>(CkptTableKind::kMvcc)) {
          // Suffix records below the scan timestamp are already in the
          // loaded snapshot; re-pushing them would bury the chain heads
          // under older timestamps.
          mvcc_floor.emplace(e.table_id, e.scan_ts);
        }
      }
      opts.min_epoch_exclusive = chosen.header.cut_epoch;
    }

    // Phase 2: the WAL suffix.
    RecoveryReport log = ReplayLogDir(
        dir,
        [&](const RecordView& r) {
          auto f = mvcc_floor.find(r.header.table_id);
          if (f != mvcc_floor.end() && r.header.commit_ts < f->second) {
            ++report.records_skipped_below_checkpoint;
            return true;
          }
          return Apply(r);
        },
        opts);
    report.segments_scanned = log.segments_scanned;
    report.blocks_applied = log.blocks_applied;
    report.records_applied = log.records_applied;
    report.records_skipped_unknown_table +=
        log.records_skipped_unknown_table;
    report.max_epoch = log.max_epoch;
    report.max_commit_ts = log.max_commit_ts;
    report.torn_tail = log.torn_tail;
    report.state = log.state;
    report.stop_reason = log.stop_reason;
    report.stop_segment = log.stop_segment;
    report.stop_offset = log.stop_offset;

    AdvanceClocks();
    std::fprintf(stderr, "%s\n", report.Summary().c_str());
    return report;
  }

 private:
  struct CkptSourceBinding {
    uint32_t table_id;
    CkptTableKind kind;
    TransactionManager* mgr;  // null for SV tables
    std::function<void(uint64_t scan_ts, const CheckpointSink&)> scan;
  };

  void AddBinding(uint32_t id, std::function<void(const RecordView&)> fn) {
    MV3C_CHECK(bindings_.emplace(id, std::move(fn)).second);  // unique ids
  }

  void AddCkptSource(
      uint32_t id, CkptTableKind kind, TransactionManager* mgr,
      std::function<void(uint64_t, const CheckpointSink&)> scan) {
    ckpt_sources_.push_back({id, kind, mgr, std::move(scan)});
  }

  void AddManager(TransactionManager* mgr) {
    for (TransactionManager* m : managers_) {
      if (m == mgr) return;
    }
    managers_.push_back(mgr);
  }

  /// Commit-clock watermark across replayed/loaded MVCC records; atomic
  /// because checkpoint loading applies bindings from several threads.
  void NoteMvccTs(Timestamp ts) {
    Timestamp cur = max_mvcc_ts_.load(std::memory_order_relaxed);
    while (ts > cur && !max_mvcc_ts_.compare_exchange_weak(
                           cur, ts, std::memory_order_relaxed)) {
    }
  }

  void AdvanceClocks() {
    const Timestamp ts = max_mvcc_ts_.load(std::memory_order_relaxed);
    for (TransactionManager* mgr : managers_) {
      mgr->AdvanceClockTo(ts);
    }
  }

  /// Runs fn(0..n-1) on up to `threads` workers (0 = hardware
  /// concurrency), one index at a time.
  template <typename Fn>
  static void RunPerTable(size_t n, unsigned threads, Fn&& fn) {
    if (n == 0) return;
    unsigned want = threads != 0 ? threads
                                 : std::thread::hardware_concurrency();
    if (want == 0) want = 1;
    if (want > n) want = static_cast<unsigned>(n);
    if (want <= 1) {
      for (size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(want);
    for (unsigned w = 0; w < want; ++w) {
      workers.emplace_back([&] {
        for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
          fn(i);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }

  std::unordered_map<uint32_t, std::function<void(const RecordView&)>>
      bindings_;
  std::vector<CkptSourceBinding> ckpt_sources_;
  std::vector<TransactionManager*> managers_;
  std::atomic<Timestamp> max_mvcc_ts_{0};
};

}  // namespace mv3c::wal

#endif  // MV3C_WAL_CATALOG_H_
