#ifndef MV3C_WAL_LOG_SV_H_
#define MV3C_WAL_LOG_SV_H_

// Commit-path redo serializer for the single-version engines (OCC, SILO).

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sv/sv_transaction.h"
#include "wal/log_manager.h"
#include "wal/wal_format.h"

namespace mv3c::wal {

/// Serializes one committing SV transaction's write set into `buf`
/// (created lazily from `lm`) and installs it into memory via
/// sv::InstallWrites — the install runs INSIDE the buffer-lock hold,
/// immediately after serialization. MUST run while the transaction's
/// writes are not yet visible to other committers — inside OCC's
/// validation mutex, or between Silo's write-set locking and its TID
/// publication.
///
/// Two orderings hang off this single lock hold:
///
///  * Causal consistency of epoch prefixes: redo is serialized before the
///    writes become visible, so a dependent transaction can only read them
///    after publication, and its own epoch-tag read (coherence-ordered on
///    the same atomic) observes an epoch >= this one — no durable prefix
///    contains the reader without the writer.
///
///  * Checkpoint completeness: the group-commit writer drains this buffer
///    under the same lock, so by the time epoch E is durable, every
///    transaction tagged <= E has also finished installing. A fuzzy
///    checkpoint that reads durable_epoch = D *before* scanning therefore
///    cannot miss a commit whose records it is about to truncate — any
///    install it races carries a tag > D and stays in the retained WAL
///    suffix (DESIGN §5g). Installing outside the lock would reopen that
///    window: a commit could be durable (later truncated) yet invisible to
///    the scan — a lost update.
///
/// A transaction may write the same record more than once; every entry is
/// logged in write order and recovery's stable sort preserves that order
/// within the commit TID, so last-write-wins replay is exact.
///
/// Returns the epoch tag, or 0 when no write touched a WAL-registered
/// table (the install still runs, outside any buffer lock — untracked
/// tables have no durability ordering to preserve).
inline uint64_t LogSvCommitAndInstall(LogManager& lm, LogBuffer*& buf,
                                      sv::SvTransaction& t,
                                      uint64_t commit_tid) {
  bool any = false;
  for (const sv::SvWrite& w : t.writes()) {
    if (w.wal_table_id != 0) {
      any = true;
      break;
    }
  }
  if (!any) {
    sv::InstallWrites(t, commit_tid);
    return 0;
  }
  obs::ScopedPhaseTimer timer(&lm.metrics(), obs::Phase::kLogSerialize);
  // Round-robin partition placement (no lane hint): the SV engines have no
  // per-lane commit-TID layout to mirror, and this header stays mvcc-free.
  if (buf == nullptr) buf = lm.CreateBuffer();
  return buf->AppendTransaction(
      [&](std::vector<uint8_t>& out, uint32_t& n_records) {
        for (const sv::SvWrite& w : t.writes()) {
          if (w.wal_table_id == 0) continue;
          const bool del = w.op == sv::SvWrite::Op::kDelete;
          RecordHeader h{};
          h.table_id = w.wal_table_id;
          h.commit_ts = commit_tid;
          h.column_mask = ~0ULL;  // single-version writes are full-row
          h.key_bytes = w.key_bytes;
          h.val_bytes = del ? 0 : static_cast<uint32_t>(w.size);
          h.type = static_cast<uint8_t>(del ? RecordType::kDelete
                                            : RecordType::kUpsert);
          h.flags = static_cast<uint8_t>(
              w.op == sv::SvWrite::Op::kInsert ? kFlagInsert : 0);
          AppendRecord(out, h, w.key,
                       del ? nullptr : t.arena() + w.buf_offset);
          ++n_records;
        }
        sv::InstallWrites(t, commit_tid);
      });
}

}  // namespace mv3c::wal

#endif  // MV3C_WAL_LOG_SV_H_
