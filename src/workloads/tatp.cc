#include "workloads/tatp.h"

namespace mv3c::tatp {

namespace {
constexpr ColumnMask kAllCols = ColumnMask::All();
}  // namespace

template <typename Exec>
typename Exec::Program TatpProgram(TatpDb& db, const TatpParams& p) {
  switch (p.type) {
    case TxnType::kGetSubscriberData:
      return [&db, p](auto& t) {
        return t.Lookup(db.subscribers, p.s_id, kAllCols,
                        [](auto&, SubscriberTable::Object*,
                           const SubscriberRow* row) {
                          return row == nullptr ? ExecStatus::kUserAbort
                                                : ExecStatus::kOk;
                        });
      };

    case TxnType::kGetNewDestination:
      return [&db, p](auto& t) {
        // Read the special facility; if active, probe the call-forwarding
        // slots whose interval covers the query time.
        return t.Lookup(
            db.special_facilities, {p.s_id, p.sf_type}, kAllCols,
            [&db, p](auto& t, SpecialFacilityTable::Object*,
                     const SpecialFacilityRow* sf) -> ExecStatus {
              if (sf == nullptr || !sf->is_active) {
                return ExecStatus::kUserAbort;
              }
              int found = 0;
              for (uint8_t start : {0, 8, 16}) {
                if (start > p.start_time) continue;
                const ExecStatus st = t.Lookup(
                    db.call_forwarding, {p.s_id, p.sf_type, start}, kAllCols,
                    [p, &found](auto&,
                                CallForwardingTable::Object*,
                                const CallForwardingRow* cf) {
                      if (cf != nullptr && p.start_time < cf->end_time) {
                        ++found;
                      }
                      return ExecStatus::kOk;
                    });
                if (st != ExecStatus::kOk) return st;
              }
              return found > 0 ? ExecStatus::kOk : ExecStatus::kUserAbort;
            });
      };

    case TxnType::kGetAccessData:
      return [&db, p](auto& t) {
        return t.Lookup(db.access_info, {p.s_id, p.ai_type}, kAllCols,
                        [](auto&, AccessInfoTable::Object*,
                           const AccessInfoRow* row) {
                          return row == nullptr ? ExecStatus::kUserAbort
                                                : ExecStatus::kOk;
                        });
      };

    case TxnType::kUpdateSubscriberData:
      return [&db, p](auto& t) -> ExecStatus {
        // Two logically disjoint paths (paper Figure 1(a)): the subscriber
        // bit update and the special-facility data update repair
        // independently.
        ExecStatus st = t.Lookup(
            db.subscribers, p.s_id, ColumnMask::Of(kColBits),
            [&db, p](auto& t, SubscriberTable::Object* obj,
                     const SubscriberRow* row) -> ExecStatus {
              if (row == nullptr) return ExecStatus::kUserAbort;
              SubscriberRow n = *row;
              n.bits = (n.bits & ~1u) | p.bit;
              return t.UpdateRow(db.subscribers, obj, n,
                                 ColumnMask::Of(kColBits));
            });
        if (st != ExecStatus::kOk) return st;
        return t.Lookup(
            db.special_facilities, {p.s_id, p.sf_type},
            ColumnMask::Of(kColDataA),
            [&db, p](auto& t, SpecialFacilityTable::Object* obj,
                     const SpecialFacilityRow* sf) -> ExecStatus {
              if (sf == nullptr) return ExecStatus::kUserAbort;
              SpecialFacilityRow n = *sf;
              n.data_a = p.data_a;
              return t.UpdateRow(db.special_facilities, obj, n,
                                 ColumnMask::Of(kColDataA));
            });
      };

    case TxnType::kUpdateLocation:
      return [&db, p](auto& t) {
        // Blind write (§2.4.1, Appendix C.1): "no conflicts among
        // Update_Location transaction instances in MV3C".
        return t.BlindUpdate(
            db.subscribers, TatpDb::SubNbrOf(p.s_id),
            ColumnMask::Of(kColVlrLocation),
            [p](SubscriberRow& r) { r.vlr_location = p.location; });
      };

    case TxnType::kInsertCallForwarding:
      return [&db, p](auto& t) {
        return t.Lookup(
            db.subscribers, TatpDb::SubNbrOf(p.s_id), kAllCols,
            [&db, p](auto& t, SubscriberTable::Object*,
                     const SubscriberRow* row) -> ExecStatus {
              if (row == nullptr) return ExecStatus::kUserAbort;
              return t.Lookup(
                  db.special_facilities, {p.s_id, p.sf_type}, kAllCols,
                  [&db, p](auto& t,
                           SpecialFacilityTable::Object*,
                           const SpecialFacilityRow* sf) -> ExecStatus {
                    if (sf == nullptr) return ExecStatus::kUserAbort;
                    const WriteStatus ws = t.InsertRow(
                        db.call_forwarding,
                        {p.s_id, p.sf_type, p.start_time},
                        CallForwardingRow{p.numberx, p.end_time});
                    if (ws == WriteStatus::kDuplicateKey) {
                      return ExecStatus::kUserAbort;  // TATP: expected fail
                    }
                    if (ws == WriteStatus::kWwConflict) {
                      return ExecStatus::kWriteWriteConflict;
                    }
                    return ExecStatus::kOk;
                  });
            });
      };

    case TxnType::kDeleteCallForwarding:
      return [&db, p](auto& t) {
        return t.Lookup(
            db.call_forwarding, {p.s_id, p.sf_type, p.start_time}, kAllCols,
            [&db](auto& t, CallForwardingTable::Object* obj,
                  const CallForwardingRow* cf) -> ExecStatus {
              if (cf == nullptr) return ExecStatus::kUserAbort;
              return t.DeleteRow(db.call_forwarding, obj);
            });
      };
  }
  MV3C_CHECK(false);
  return nullptr;
}

template Mv3cExecutor::Program TatpProgram<Mv3cExecutor>(TatpDb&,
                                                         const TatpParams&);
template OmvccExecutor::Program TatpProgram<OmvccExecutor>(
    TatpDb&, const TatpParams&);

}  // namespace mv3c::tatp
