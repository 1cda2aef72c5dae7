// Tests for the benchmark's independent ledgers: a correct single-thread
// state audits clean, and a planted lost update, doubled update or missing
// New-Order is caught and counted. Build and run with
//
//   python3 perfbench/run.py --test

#include <cstdio>
#include <functional>
#include <string>

#include "common/random.h"
#include "ledger.h"
#include "mv3c/mv3c_executor.h"
#include "mvcc/transaction_manager.h"
#include "omvcc/omvcc_transaction.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"

namespace {

using namespace mv3c;
using perfbench::Audit;
using perfbench::BankingLedger;
using perfbench::TpccLedger;

int g_failures = 0;

void Expect(bool ok, const std::string& what, const Audit& a) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED: %s (%s)\n", what.c_str(), a.Summary().c_str());
}

constexpr int64_t kAccounts = 200;
constexpr int64_t kInitial = 1'000'000;

banking::TransferParams RandomTransfer(Xoshiro256& rng) {
  banking::TransferParams p;
  p.from = 1 + static_cast<int64_t>(rng.NextBounded(kAccounts));
  do {
    p.to = 1 + static_cast<int64_t>(rng.NextBounded(kAccounts));
  } while (p.to == p.from);
  p.amount = 1 + static_cast<int64_t>(rng.NextBounded(99));
  p.with_fee = true;
  return p;
}

/// A banking database after `n` single-thread transfers, with their ledger.
struct BankingState {
  TransactionManager mgr;
  banking::BankingDb db{&mgr, kAccounts, kInitial};
  BankingLedger ledger{kAccounts};
  banking::TransferParams last{};

  BankingState(int n, bool omvcc) {
    db.Load();
    Xoshiro256 rng(7);
    for (int i = 0; i < n; ++i) {
      last = RandomTransfer(rng);
      StepResult r;
      if (omvcc) {
        OmvccExecutor e(&mgr);
        r = e.Run(banking::OmvccTransferMoney(db, last));
      } else {
        Mv3cExecutor e(&mgr);
        r = e.Run(banking::Mv3cTransferMoney(db, last));
      }
      if (r == StepResult::kCommitted) ledger.Commit(last);
    }
  }

  /// Adds `delta` to one account's balance behind the ledger's back.
  void Plant(int64_t id, int64_t delta) {
    Mv3cExecutor e(&mgr);
    e.MustRun([&](Mv3cTransaction& t) {
      return t.Lookup(db.accounts, id, banking::kBalanceMask,
                      [&](Mv3cTransaction& t, banking::AccountTable::Object* o,
                          const banking::AccountRow* row) {
                        banking::AccountRow n = *row;
                        n.balance += delta;
                        return t.UpdateRow(db.accounts, o, n,
                                           banking::kBalanceMask);
                      });
    });
  }

  Audit Check() { return ledger.Check(perfbench::ReadBalances(db), kInitial); }
};

void BankingCorrectStatesAuditClean() {
  for (const bool omvcc : {false, true}) {
    BankingState s(500, omvcc);
    const Audit a = s.Check();
    Expect(a.clean() && s.ledger.commits() == 500,
           std::string("correct banking state, ") + (omvcc ? "omvcc" : "mv3c"),
           a);
  }
}

void BankingLostFeeIsCountedExactly() {
  BankingState s(500, false);
  s.Plant(banking::BankingDb::kFeeAccount, -1);
  const Audit a = s.Check();
  Expect(a.lost == 1 && a.doubled == 0 && a.rows_off == 0,
         "one lost fee effect counts as one lost update", a);
}

void BankingDoubledTransferIsCounted() {
  BankingState s(500, false);
  // The last transfer applied a second time without a committed response.
  Mv3cExecutor e(&s.mgr);
  e.MustRun(banking::Mv3cTransferMoney(s.db, s.last));
  const Audit a = s.Check();
  Expect(a.doubled == 1 && a.lost == 0 && a.rows_off == 2,
         "a doubled transfer: one doubled fee, two disagreeing customers", a);
}

// --- TPC-C ---

tpcc::TpccScale SmallScale() {
  tpcc::TpccScale s;
  s.n_warehouses = 1;
  s.n_districts = 2;
  s.n_items = 2000;
  s.n_customers_per_d = 1000;
  s.preload_orders_per_d = 100;
  s.preload_new_orders_per_d = 30;
  return s;
}

struct TpccState {
  TransactionManager mgr;
  tpcc::TpccDb db{&mgr, SmallScale()};
  TpccLedger ledger{SmallScale()};
  tpcc::TpccGenerator gen{SmallScale(), 11};
  uint64_t committed = 0;

  explicit TpccState(int n) {
    db.Load(3);
    for (int i = 0; i < n; ++i) {
      const tpcc::TpccParams p = gen.Next();
      if (Run(p)) ledger.Commit(p);
    }
  }
  bool Run(const tpcc::TpccParams& p) {
    Mv3cExecutor e(&mgr);
    const bool ok = e.Run(tpcc::Mv3cTpccProgram(db, p)) == StepResult::kCommitted;
    committed += ok ? 1 : 0;
    return ok;
  }
  /// The next generated New-Order whose items are all valid (it commits).
  tpcc::TpccParams NextGoodNewOrder() {
    while (true) {
      const tpcc::TpccParams p = gen.Next();
      if (p.type != tpcc::TpccTxnType::kNewOrder) continue;
      bool valid = true;
      for (uint8_t i = 0; i < p.ol_cnt; ++i) {
        valid = valid && p.items[i].i_id <= SmallScale().n_items;
      }
      if (valid) return p;
    }
  }
  Audit Check() { return ledger.Check(perfbench::ReadTpccState(db)); }
};

void TpccCorrectStateAuditsClean() {
  TpccState s(400);
  const Audit a = s.Check();
  std::string why;
  Expect(a.clean() && s.committed > 300, "correct TPC-C state", a);
  Expect(tpcc::CheckConsistency(s.db, &why), "CheckConsistency: " + why, a);
}

void TpccMissingNewOrderIsCounted() {
  TpccState s(400);
  // The ledger holds a committed New-Order the database never saw.
  s.ledger.Commit(s.NextGoodNewOrder());
  const Audit a = s.Check();
  Expect(a.lost == 1 && a.doubled == 0 && a.rows_off == 0,
         "one missing New-Order counts as one lost D_NEXT_O_ID effect", a);
}

void TpccDoubledNewOrderIsCounted() {
  TpccState s(400);
  // A New-Order that committed without the ledger hearing of it.
  if (!s.Run(s.NextGoodNewOrder())) {
    ++g_failures;
    std::fprintf(stderr, "FAILED: planted New-Order did not commit\n");
  }
  const Audit a = s.Check();
  Expect(a.doubled == 1 && a.lost == 0 && a.rows_off == 0,
         "one extra New-Order counts as one doubled D_NEXT_O_ID effect", a);
}

void TpccLostPaymentIsCountedPerRow() {
  TpccState s(400);
  tpcc::TpccParams pay;
  pay.type = tpcc::TpccTxnType::kPayment;
  pay.w_id = 1;
  pay.d_id = 2;
  pay.amount = 500;
  s.ledger.Commit(pay);
  const Audit a = s.Check();
  Expect(a.rows_off == 2 && a.lost == 0 && a.doubled == 0,
         "a lost Payment leaves W_YTD and one D_YTD disagreeing", a);
}

}  // namespace

int main() {
  const std::pair<const char*, std::function<void()>> tests[] = {
      {"BankingCorrectStatesAuditClean", BankingCorrectStatesAuditClean},
      {"BankingLostFeeIsCountedExactly", BankingLostFeeIsCountedExactly},
      {"BankingDoubledTransferIsCounted", BankingDoubledTransferIsCounted},
      {"TpccCorrectStateAuditsClean", TpccCorrectStateAuditsClean},
      {"TpccMissingNewOrderIsCounted", TpccMissingNewOrderIsCounted},
      {"TpccDoubledNewOrderIsCounted", TpccDoubledNewOrderIsCounted},
      {"TpccLostPaymentIsCountedPerRow", TpccLostPaymentIsCountedPerRow},
  };
  for (const auto& [name, fn] : tests) {
    const int before = g_failures;
    fn();
    std::printf("%s %s\n", g_failures == before ? "PASS" : "FAIL", name);
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
