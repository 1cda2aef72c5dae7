#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// Independent ledgers. Each one is built only from the parameters of the
// transactions the engine reported committed, never from the engine's
// state or from stored output, and is then compared with what the engine
// holds at the end of the run.
//
// An audited row whose every committed effect is one unit (the banking fee
// account when each fee is one cent, a district's D_NEXT_O_ID) is counted
// exactly: a shortfall of k is k lost effects, a surplus of k is k doubled
// ones. Any other row is counted once if it disagrees at all.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mv3c/mv3c_executor.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"

namespace perfbench {

struct Audit {
  uint64_t lost = 0;       // unit effects committed but absent
  uint64_t doubled = 0;    // unit effects present more often than committed
  uint64_t rows_off = 0;   // non-unit rows that disagree
  std::string first;       // description of the first discrepancy

  bool clean() const { return lost == 0 && doubled == 0 && rows_off == 0; }
  void Note(const std::string& what) {
    if (first.empty()) first = what;
  }
  std::string Summary() const {
    return "lost=" + std::to_string(lost) +
           " doubled=" + std::to_string(doubled) +
           " rows_off=" + std::to_string(rows_off) +
           (first.empty() ? "" : " first: " + first);
  }
};

/// Compares one row: exact unit counting when `unit` is true.
inline void AuditRow(Audit* a, const std::string& what, int64_t expected,
                     int64_t actual, bool unit) {
  if (expected == actual) return;
  a->Note(what + " expected " + std::to_string(expected) + " got " +
          std::to_string(actual));
  if (!unit) {
    ++a->rows_off;
  } else if (actual < expected) {
    a->lost += static_cast<uint64_t>(expected - actual);
  } else {
    a->doubled += static_cast<uint64_t>(actual - expected);
  }
}

// ---------------------------------------------------------------------------
// Banking: expected balance per account.
// ---------------------------------------------------------------------------

/// Per-account balance deltas of committed transfers. Workers keep one each
/// and the run sums them (Add), so recording never synchronizes.
class BankingLedger {
 public:
  explicit BankingLedger(int64_t n_accounts)
      : delta_(static_cast<size_t>(n_accounts) + 1, 0) {}

  void Commit(const mv3c::banking::TransferParams& p) {
    const int64_t fee = mv3c::banking::FeeOf(p);
    delta_[static_cast<size_t>(p.from)] -= p.amount + fee;
    delta_[static_cast<size_t>(p.to)] += p.amount;
    delta_[mv3c::banking::BankingDb::kFeeAccount] += fee;
    ++commits_;
  }
  void Add(const BankingLedger& o) {
    for (size_t i = 0; i < delta_.size(); ++i) delta_[i] += o.delta_[i];
    commits_ += o.commits_;
  }
  uint64_t commits() const { return commits_; }

  /// Audits `actual` (balance per account id) against the population
  /// (fee account 0, every customer `initial`) plus the recorded deltas.
  /// Every committed transfer must have paid exactly one cent of fee (an
  /// amount under 100 cents), which makes the fee account exactly
  /// countable.
  Audit Check(const std::vector<int64_t>& actual, int64_t initial) const {
    Audit a;
    if (actual.size() != delta_.size()) {
      a.rows_off = delta_.size();
      a.Note("account count " + std::to_string(actual.size()) + " != " +
             std::to_string(delta_.size()));
      return a;
    }
    for (size_t id = 0; id < delta_.size(); ++id) {
      const bool fee_row = id == mv3c::banking::BankingDb::kFeeAccount;
      AuditRow(&a, "account " + std::to_string(id),
               (fee_row ? 0 : initial) + delta_[id], actual[id], fee_row);
    }
    return a;
  }

 private:
  std::vector<int64_t> delta_;
  uint64_t commits_ = 0;
};

/// Reads every account balance through one MV3C read-only transaction.
inline std::vector<int64_t> ReadBalances(mv3c::banking::BankingDb& db) {
  using namespace mv3c;
  std::vector<int64_t> out(static_cast<size_t>(db.n_accounts()) + 1, -1);
  Mv3cExecutor e(db.manager());
  e.MustRun([&](Mv3cTransaction& t) {
    return t.Scan(
        db.accounts, [](const banking::AccountRow&) { return true; },
        banking::kBalanceMask, false,
        [&out](Mv3cTransaction&,
               const std::vector<ScanEntry<banking::AccountTable>>& rs) {
          for (const auto& r : rs) {
            const int64_t id = r.object->key();
            if (id >= 0 && static_cast<size_t>(id) < out.size()) {
              out[static_cast<size_t>(id)] = r.row.balance;
            }
          }
          return ExecStatus::kOk;
        });
  });
  return out;
}

// ---------------------------------------------------------------------------
// TPC-C: D_NEXT_O_ID per district from committed New-Orders, W_YTD and
// D_YTD from committed Payment amounts.
// ---------------------------------------------------------------------------

/// The audited TPC-C columns as the engine holds them.
struct TpccState {
  std::vector<int64_t> w_ytd;      // index w (1-based; slot 0 unused)
  std::vector<int64_t> d_ytd;      // index (w - 1) * n_districts + (d - 1)
  std::vector<int64_t> d_next_o_id;
};

class TpccLedger {
 public:
  explicit TpccLedger(const mv3c::tpcc::TpccScale& s)
      : scale_(s),
        w_ytd_(s.n_warehouses + 1, 0),
        d_ytd_(s.n_warehouses * s.n_districts, 0),
        new_orders_(s.n_warehouses * s.n_districts, 0) {}

  void Commit(const mv3c::tpcc::TpccParams& p) {
    using mv3c::tpcc::TpccTxnType;
    if (p.type == TpccTxnType::kNewOrder) {
      ++new_orders_[Slot(p.w_id, p.d_id)];
    } else if (p.type == TpccTxnType::kPayment) {
      w_ytd_[p.w_id] += p.amount;
      d_ytd_[Slot(p.w_id, p.d_id)] += p.amount;
    }
  }
  void Add(const TpccLedger& o) {
    for (size_t i = 0; i < w_ytd_.size(); ++i) w_ytd_[i] += o.w_ytd_[i];
    for (size_t i = 0; i < d_ytd_.size(); ++i) {
      d_ytd_[i] += o.d_ytd_[i];
      new_orders_[i] += o.new_orders_[i];
    }
  }

  /// Seeded values are the loader's (TpccDb::Load): W_YTD 300,000.00,
  /// D_YTD 30,000.00, D_NEXT_O_ID = preloaded orders + 1.
  Audit Check(const TpccState& st) const {
    Audit a;
    for (uint64_t w = 1; w <= scale_.n_warehouses; ++w) {
      AuditRow(&a, "W_YTD w=" + std::to_string(w), 30000000 + w_ytd_[w],
               st.w_ytd[w], false);
      for (uint64_t d = 1; d <= scale_.n_districts; ++d) {
        const size_t i = Slot(w, d);
        const std::string at =
            " w=" + std::to_string(w) + " d=" + std::to_string(d);
        AuditRow(&a, "D_YTD" + at, 3000000 + d_ytd_[i], st.d_ytd[i], false);
        AuditRow(&a, "D_NEXT_O_ID" + at,
                 static_cast<int64_t>(scale_.preload_orders_per_d + 1 +
                                      new_orders_[i]),
                 st.d_next_o_id[i], true);
      }
    }
    return a;
  }

 private:
  size_t Slot(uint64_t w, uint64_t d) const {
    return static_cast<size_t>((w - 1) * scale_.n_districts + (d - 1));
  }
  mv3c::tpcc::TpccScale scale_;
  std::vector<int64_t> w_ytd_;
  std::vector<int64_t> d_ytd_;
  std::vector<int64_t> new_orders_;
};

/// Reads the audited columns through one MV3C read-only transaction.
inline TpccState ReadTpccState(mv3c::tpcc::TpccDb& db) {
  using namespace mv3c;
  using namespace mv3c::tpcc;
  const TpccScale& s = db.scale();
  TpccState st;
  st.w_ytd.assign(s.n_warehouses + 1, -1);
  st.d_ytd.assign(s.n_warehouses * s.n_districts, -1);
  st.d_next_o_id.assign(s.n_warehouses * s.n_districts, -1);
  Mv3cExecutor e(db.manager());
  e.MustRun([&](Mv3cTransaction& t) {
    for (uint64_t w = 1; w <= s.n_warehouses; ++w) {
      ExecStatus r = t.Lookup(
          db.warehouses, w, ColumnMask::Of(kColWYtd),
          [&st, w](Mv3cTransaction&, WarehouseTable::Object*,
                   const WarehouseRow* row) {
            if (row != nullptr) st.w_ytd[w] = row->ytd;
            return ExecStatus::kOk;
          });
      if (r != ExecStatus::kOk) return r;
      for (uint64_t d = 1; d <= s.n_districts; ++d) {
        const size_t i = (w - 1) * s.n_districts + (d - 1);
        r = t.Lookup(
            db.districts, DistrictKey(w, d),
            ColumnMask::Of(kColDYtd) | ColumnMask::Of(kColDNextOid),
            [&st, i](Mv3cTransaction&, DistrictTable::Object*,
                     const DistrictRow* row) {
              if (row != nullptr) {
                st.d_ytd[i] = row->ytd;
                st.d_next_o_id[i] = row->next_o_id;
              }
              return ExecStatus::kOk;
            });
        if (r != ExecStatus::kOk) return r;
      }
    }
    return ExecStatus::kOk;
  });
  return st;
}

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
