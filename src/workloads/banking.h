#ifndef MV3C_WORKLOADS_BANKING_H_
#define MV3C_WORKLOADS_BANKING_H_

#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "mv3c/mv3c_executor.h"
#include "mv3c/mv3c_transaction.h"
#include "omvcc/omvcc_transaction.h"

namespace mv3c::banking {

// Column ids of the Account table.
inline constexpr int kColBalance = 0;
inline constexpr int kColDate = 1;
inline constexpr ColumnMask kBalanceMask = ColumnMask::Of(kColBalance);
inline constexpr ColumnMask kDateMask = ColumnMask::Of(kColDate);

/// One account row. Fixed-point money (centimes) to keep arithmetic exact.
struct AccountRow {
  int64_t balance = 0;
  int64_t last_date = 0;

  void MergeFrom(const AccountRow& base, ColumnMask modified) {
    if (!modified.Contains(kColBalance)) balance = base.balance;
    if (!modified.Contains(kColDate)) last_date = base.last_date;
  }
};

using AccountTable = Table<int64_t, AccountRow>;

/// The Banking database of the paper's Example 2: an Account table with the
/// central fee account at id 0 and customer accounts 1..n.
class BankingDb {
 public:
  static constexpr int64_t kFeeAccount = 0;

  BankingDb(TransactionManager* mgr, int64_t n_accounts,
            int64_t initial_balance)
      : accounts("Account", static_cast<size_t>(n_accounts) + 1,
                 WwPolicy::kAllowMultiple),
        mgr_(mgr),
        n_accounts_(n_accounts),
        initial_balance_(initial_balance) {}

  /// Seeds the fee account (balance 0) and n customer accounts. The load
  /// runs serially with no retry loop around it, so a failed insert (only
  /// possible under fault injection) must abort loudly, never silently
  /// leave an account without its initial version.
  void Load() {
    Mv3cExecutor loader(mgr_);
    loader.MustRun([this](Mv3cTransaction& t) {
      for (int64_t id = 0; id <= n_accounts_; ++id) {
        const WriteStatus ws = t.InsertRow(
            accounts, id,
            AccountRow{id == kFeeAccount ? 0 : initial_balance_, 0});
        MV3C_CHECK(ws == WriteStatus::kOk);
      }
      return ExecStatus::kOk;
    });
  }

  /// Sum of all balances; must be invariant under TransferMoney.
  int64_t TotalBalance() {
    int64_t total = 0;
    Mv3cExecutor e(mgr_);
    e.MustRun([&](Mv3cTransaction& t) {
      return t.Scan(
          accounts, [](const AccountRow&) { return true; }, kBalanceMask,
          false,
          [&total](Mv3cTransaction&,
                   const std::vector<ScanEntry<AccountTable>>& rs) {
            total = 0;
            for (const auto& e : rs) total += e.row.balance;
            return ExecStatus::kOk;
          });
    });
    return total;
  }

  int64_t BalanceOf(int64_t id) {
    int64_t out = -1;
    Mv3cExecutor e(mgr_);
    e.MustRun([&](Mv3cTransaction& t) {
      return t.Lookup(accounts, id, kBalanceMask,
                      [&out](Mv3cTransaction&, AccountTable::Object*,
                             const AccountRow* row) {
                        if (row != nullptr) out = row->balance;
                        return ExecStatus::kOk;
                      });
    });
    return out;
  }

  TransactionManager* manager() { return mgr_; }
  int64_t n_accounts() const { return n_accounts_; }
  int64_t initial_balance() const { return initial_balance_; }

  AccountTable accounts;

 private:
  TransactionManager* mgr_;
  int64_t n_accounts_;
  int64_t initial_balance_;
};

/// Parameters of one TransferMoney invocation. `with_fee` distinguishes
/// TransferMoney from NoFeeTransferMoney (paper §6.1.2): without the fee
/// payment to the central account, transfers over disjoint accounts do not
/// conflict.
struct TransferParams {
  int64_t from = 0;
  int64_t to = 0;
  int64_t amount = 0;
  bool with_fee = true;
  uint8_t pad_[7] = {};  // explicit tail padding: wire/no-padding contract
};
// TransferParams travels verbatim inside serving-protocol frames
// (src/server/protocol.h), so it follows the §5f no-padding discipline.
static_assert(std::has_unique_object_representations_v<TransferParams>);

inline int64_t FeeOf(const TransferParams& p) {
  if (!p.with_fee) return 0;
  return p.amount < 100 ? 1 : p.amount / 100;
}

// Each program is written once in the MV3C DSL and runs on both MVCC
// engines: `Exec` is Mv3cExecutor or OmvccExecutor, and every closure takes
// the engine's transaction as `auto& t`.

/// TransferMoney (paper Figure 3): root predicate P1 on the sender, child
/// predicates P2 (receiver) and P3 (fee account).
template <typename Exec>
typename Exec::Program TransferMoney(BankingDb& db, TransferParams p) {
  return [&db, p](auto& t) -> ExecStatus {
    const int64_t fee = FeeOf(p);
    return t.Lookup(
        db.accounts, p.from, kBalanceMask,
        [&db, p, fee](auto& t, AccountTable::Object* fm,
                      const AccountRow* fm_row) -> ExecStatus {
          if (fm_row == nullptr || fm_row->balance < p.amount + fee) {
            return ExecStatus::kUserAbort;
          }
          AccountRow fm_new = *fm_row;
          fm_new.balance -= p.amount + fee;
          ExecStatus st = t.UpdateRow(db.accounts, fm, fm_new, kBalanceMask);
          if (st != ExecStatus::kOk) return st;
          st = t.Lookup(db.accounts, p.to, kBalanceMask,
                        [&db, p](auto& t, AccountTable::Object* to,
                                 const AccountRow* to_row) -> ExecStatus {
                          if (to_row == nullptr) return ExecStatus::kUserAbort;
                          AccountRow to_new = *to_row;
                          to_new.balance += p.amount;
                          return t.UpdateRow(db.accounts, to, to_new,
                                             kBalanceMask);
                        });
          if (st != ExecStatus::kOk) return st;
          if (fee == 0) return ExecStatus::kOk;
          return t.Lookup(
              db.accounts, BankingDb::kFeeAccount, kBalanceMask,
              [&db, fee](auto& t, AccountTable::Object* fa,
                         const AccountRow* fa_row) -> ExecStatus {
                AccountRow fa_new = *fa_row;
                fa_new.balance += fee;
                return t.UpdateRow(db.accounts, fa, fa_new, kBalanceMask);
              });
        });
  };
}

inline Mv3cExecutor::Program Mv3cTransferMoney(BankingDb& db,
                                               TransferParams p) {
  return TransferMoney<Mv3cExecutor>(db, p);
}

inline OmvccExecutor::Program OmvccTransferMoney(BankingDb& db,
                                                 TransferParams p) {
  return TransferMoney<OmvccExecutor>(db, p);
}

/// SumAll: read-only scan over every account (paper Example 2).
template <typename Exec>
typename Exec::Program SumAll(BankingDb& db, int64_t* out = nullptr) {
  return [&db, out](auto& t) {
    return t.Scan(
        db.accounts, [](const AccountRow&) { return true; }, kBalanceMask,
        false,
        [out](auto&, const std::vector<ScanEntry<AccountTable>>& rs) {
          int64_t total = 0;
          for (const auto& e : rs) total += e.row.balance;
          if (out != nullptr) *out = total;
          return ExecStatus::kOk;
        });
  };
}

/// Bonus: +1 to every account with balance >= threshold (full scan; the
/// §4.2 result-set reuse showcase).
template <typename Exec>
typename Exec::Program Bonus(BankingDb& db, int64_t threshold,
                             bool reuse_result_set) {
  return [&db, threshold, reuse_result_set](auto& t) {
    return t.Scan(
        db.accounts,
        [threshold](const AccountRow& r) { return r.balance >= threshold; },
        kBalanceMask, reuse_result_set,
        [&db](auto& t,
              const std::vector<ScanEntry<AccountTable>>& rs) -> ExecStatus {
          for (const auto& e : rs) {
            AccountRow n = e.row;
            n.balance += 1;
            const ExecStatus st =
                t.UpdateRow(db.accounts, e.object, n, kBalanceMask);
            if (st != ExecStatus::kOk) return st;
          }
          return ExecStatus::kOk;
        });
  };
}

/// Generates TransferMoney parameter streams. `fee_fraction_percent`
/// controls the TransferMoney / NoFeeTransferMoney mix of Figure 7(b):
/// 100 means every transfer pays the fee (all conflict on the central
/// account), 0 means none do.
class TransferGenerator {
 public:
  TransferGenerator(int64_t n_accounts, int fee_fraction_percent,
                    uint64_t seed)
      : n_(n_accounts), fee_percent_(fee_fraction_percent), rng_(seed) {}

  TransferParams Next() {
    TransferParams p;
    p.from = 1 + static_cast<int64_t>(rng_.NextBounded(n_));
    do {
      p.to = 1 + static_cast<int64_t>(rng_.NextBounded(n_));
    } while (p.to == p.from);
    p.amount = rng_.UniformInt(1, 300);
    p.with_fee =
        static_cast<int>(rng_.NextBounded(100)) < fee_percent_;
    return p;
  }

 private:
  int64_t n_;
  int fee_percent_;
  Xoshiro256 rng_;
};

}  // namespace mv3c::banking

#endif  // MV3C_WORKLOADS_BANKING_H_
