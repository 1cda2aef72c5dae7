// OMVCC baseline tests (paper §2.1): precision-locking validation over a
// flat predicate list, early exit at the first conflict, full abort-and-
// restart, and premature aborts on write-write conflicts.

#include <gtest/gtest.h>

#include "omvcc/omvcc_transaction.h"
#include "workloads/banking.h"

namespace mv3c {
namespace {

using banking::AccountRow;
using banking::AccountTable;
using banking::BankingDb;
using banking::TransferParams;

class OmvccEngineTest : public ::testing::Test {
 protected:
  OmvccEngineTest() : db_(&mgr_, 16, 1000) { db_.Load(); }

  /// Read-modify-write of one account's balance through the DSL.
  template <typename F>
  ExecStatus SetBalance(OmvccTransaction& t, int64_t id, F f) {
    return t.Lookup(db_.accounts, id, banking::kBalanceMask,
                    [this, f](OmvccTransaction& t, AccountTable::Object* obj,
                              const AccountRow* row) {
                      AccountRow n = *row;
                      n.balance = f(n.balance);
                      return t.UpdateRow(db_.accounts, obj, n,
                                         banking::kBalanceMask);
                    });
  }

  TransactionManager mgr_;
  BankingDb db_;
};

TEST_F(OmvccEngineTest, SimpleCommit) {
  OmvccExecutor e(&mgr_);
  EXPECT_EQ(e.Run(banking::OmvccTransferMoney(db_, {1, 2, 200, true})),
            StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(1), 1000 - 202);
  EXPECT_EQ(db_.BalanceOf(2), 1200);
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 2);
}

TEST_F(OmvccEngineTest, PredicateListIsFlat) {
  OmvccTransaction t(&mgr_);
  mgr_.Begin(&t.inner());
  ASSERT_EQ(banking::OmvccTransferMoney(db_, {1, 2, 200, true})(t),
            ExecStatus::kOk);
  // Three key-equality predicates, no graph.
  EXPECT_EQ(t.PredicateCount(), 3u);
  t.RollbackAll();
  mgr_.FinishAborted(&t.inner());
}

TEST_F(OmvccEngineTest, ValidationFailureRestartsFromScratch) {
  OmvccExecutor victim(&mgr_);
  victim.Reset(banking::OmvccTransferMoney(db_, {1, 2, 200, true}));
  victim.Begin();
  // Concurrent committed transfer invalidates the victim's fee predicate.
  // OMVCC writes are fail-fast: the victim already wrote the fee account?
  // No — the victim has not executed yet; execute-and-commit the other
  // transaction first, then step the victim: its execution reads the fee
  // account *after* the other committed, but its start timestamp is older,
  // so validation fails (read-write conflict).
  OmvccExecutor other(&mgr_);
  ASSERT_EQ(other.Run(banking::OmvccTransferMoney(db_, {3, 4, 400, true})),
            StepResult::kCommitted);
  StepResult r = victim.Step();
  // Depending on interleaving this is a WW fail-fast (committed version
  // newer than start) — both are "abort and restart" for OMVCC.
  ASSERT_EQ(r, StepResult::kNeedsRetry);
  EXPECT_EQ(victim.stats().ww_restarts + victim.stats().validation_failures,
            1u);
  // Restart succeeds.
  int guard = 0;
  do {
    r = victim.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(BankingDb::kFeeAccount), 2 + 4);
}

TEST_F(OmvccEngineTest, BlindWriteStyleUpdateStillConflictsInOmvcc) {
  // §6.1.1: "PriceUpdate consists of a blind write operation, which does
  // not lead to a conflict in MV3C, but creates a conflict in OMVCC."
  // In OMVCC every update is a read-modify-write with fail-fast WW.
  OmvccExecutor a(&mgr_), b(&mgr_);
  auto bump = [this](int64_t delta) {
    return [this, delta](OmvccTransaction& t) -> ExecStatus {
      return SetBalance(t, 5, [delta](int64_t b) { return b + delta; });
    };
  };
  a.Reset(bump(1));
  b.Reset(bump(2));
  a.Begin();
  b.Begin();
  // a executes but does not commit; b then hits a's uncommitted version.
  ASSERT_EQ(bump(1)(a.txn()), ExecStatus::kOk);
  ASSERT_EQ(b.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(b.stats().ww_restarts, 1u);
  a.txn().RollbackAll();
  mgr_.FinishAborted(&a.txn().inner());
  int guard = 0;
  StepResult r;
  do {
    r = b.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(5), 1002);
}

TEST_F(OmvccEngineTest, UserAbortNeverRestarts) {
  OmvccExecutor e(&mgr_);
  EXPECT_EQ(e.Run(banking::OmvccTransferMoney(db_, {1, 2, 100000, true})),
            StepResult::kUserAborted);
  EXPECT_EQ(e.stats().user_aborts, 1u);
  EXPECT_EQ(db_.BalanceOf(1), 1000);
}

TEST_F(OmvccEngineTest, ReadOnlyCommitsAtStartTimestamp) {
  OmvccExecutor ro(&mgr_);
  int64_t sum = 0;
  ro.Reset(banking::SumAll<OmvccExecutor>(db_, &sum));
  ro.Begin();
  // Concurrent writer commits in between.
  OmvccExecutor w(&mgr_);
  ASSERT_EQ(w.Run(banking::OmvccTransferMoney(db_, {1, 2, 100, true})),
            StepResult::kCommitted);
  ASSERT_EQ(ro.Step(), StepResult::kCommitted);
  EXPECT_EQ(ro.last_commit_ts(), ro.txn().inner().start_ts());
  EXPECT_EQ(sum, 16 * 1000);  // snapshot from before the transfer
}

// OMVCC's scan predicate catches phantom-style changes: a row entering the
// Bonus result set after the scan fails validation.
TEST_F(OmvccEngineTest, ScanPredicateCatchesResultSetChange) {
  OmvccExecutor bonus(&mgr_);
  bonus.Reset(banking::Bonus<OmvccExecutor>(db_, 2000, false));  // none qualify
  bonus.Begin();
  // Push account 3 over the threshold concurrently.
  OmvccExecutor w(&mgr_);
  ASSERT_EQ(w.Run([this](OmvccTransaction& t) {
              return SetBalance(t, 3, [](int64_t) { return 5000; });
            }),
            StepResult::kCommitted);
  StepResult r = bonus.Step();
  // The bonus wrote nothing (its snapshot has no qualifying accounts), so
  // it is read-only and commits at its start timestamp — consistent.
  ASSERT_EQ(r, StepResult::kCommitted);
  // Run another bonus that DOES write, with a concurrent threshold-crosser.
  OmvccExecutor bonus2(&mgr_);
  bonus2.Reset(banking::Bonus<OmvccExecutor>(db_, 4000, false));  // 3 qualifies
  bonus2.Begin();
  OmvccExecutor w2(&mgr_);
  ASSERT_EQ(w2.Run([this](OmvccTransaction& t) {
              return SetBalance(t, 7, [](int64_t) { return 4500; });
            }),
            StepResult::kCommitted);
  r = bonus2.Step();
  ASSERT_EQ(r, StepResult::kNeedsRetry);  // account 7 entered the set
  EXPECT_EQ(bonus2.stats().validation_failures, 1u);
  int guard = 0;
  do {
    r = bonus2.Step();
    ASSERT_LT(++guard, 10);
  } while (r == StepResult::kNeedsRetry);
  ASSERT_EQ(r, StepResult::kCommitted);
  EXPECT_EQ(db_.BalanceOf(3), 5001);
  EXPECT_EQ(db_.BalanceOf(7), 4501);
}

}  // namespace
}  // namespace mv3c
