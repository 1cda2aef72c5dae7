// Core MVCC substrate tests: version visibility (Definition 2.3), chain
// surgery, snapshot reads, commit publication (Definition 2.2 and the
// §2.4.1 move), and the timestamp machinery.

#include <gtest/gtest.h>

#include "mvcc/table.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"

namespace mv3c {
namespace {

struct AccountRow {
  int64_t balance = 0;
};

using AccountTable = Table<int64_t, AccountRow>;

class MvccCoreTest : public ::testing::Test {
 protected:
  MvccCoreTest() : table_("account", 64) {}

  /// Inserts and commits a single row in its own transaction.
  void SeedRow(int64_t key, int64_t balance) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Insert(table_, key, AccountRow{balance}),
              WriteStatus::kOk);
    ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }

  int64_t ReadBalance(Transaction& t, int64_t key) {
    auto* obj = table_.Find(key);
    EXPECT_NE(obj, nullptr);
    const auto* v = t.ReadVersion(table_, obj);
    EXPECT_NE(v, nullptr);
    return v->data().balance;
  }

  TransactionManager mgr_;
  AccountTable table_;
};

TEST_F(MvccCoreTest, InsertThenReadOwnWrite) {
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  AccountTable::Object* obj = nullptr;
  ASSERT_EQ(t.Insert(table_, 1, AccountRow{100}, &obj),
            WriteStatus::kOk);
  const auto* v = t.ReadVersion(table_, obj);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->data().balance, 100);
  ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));
}

TEST_F(MvccCoreTest, UncommittedVersionInvisibleToOthers) {
  SeedRow(1, 100);
  Transaction writer(&mgr_);
  mgr_.Begin(&writer);
  auto* obj = table_.Find(1);
  ASSERT_EQ(writer.Update(table_, obj, AccountRow{200}, ColumnMask::All(),
                          false, WwPolicy::kFailFast),
            WriteStatus::kOk);

  Transaction reader(&mgr_);
  mgr_.Begin(&reader);
  EXPECT_EQ(ReadBalance(reader, 1), 100);  // writer's version is invisible
  EXPECT_EQ(ReadBalance(writer, 1), 200);  // own write is visible

  writer.RollbackWrites();
  mgr_.FinishAborted(&writer);
  mgr_.CommitReadOnly(&reader);
}

TEST_F(MvccCoreTest, SnapshotIgnoresLaterCommits) {
  SeedRow(1, 100);
  Transaction old_reader(&mgr_);
  mgr_.Begin(&old_reader);

  // A later transaction commits an update.
  Transaction writer(&mgr_);
  mgr_.Begin(&writer);
  auto* obj = table_.Find(1);
  ASSERT_EQ(writer.Update(table_, obj, AccountRow{200}, ColumnMask::All(),
                          false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  ASSERT_TRUE(mgr_.TryCommit(&writer, [](CommittedRecord*) { return true; }));

  // The old snapshot still sees the old balance.
  EXPECT_EQ(ReadBalance(old_reader, 1), 100);
  // A fresh transaction sees the new one.
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  EXPECT_EQ(ReadBalance(fresh, 1), 200);
  mgr_.CommitReadOnly(&fresh);
  mgr_.CommitReadOnly(&old_reader);
}

TEST_F(MvccCoreTest, FailFastWwConflictOnForeignUncommitted) {
  SeedRow(1, 100);
  Transaction t1(&mgr_);
  Transaction t2(&mgr_);
  mgr_.Begin(&t1);
  mgr_.Begin(&t2);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t1.Update(table_, obj, AccountRow{1}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  EXPECT_EQ(t2.Update(table_, obj, AccountRow{2}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kWwConflict);
  t1.RollbackWrites();
  mgr_.FinishAborted(&t1);
  mgr_.FinishAborted(&t2);
}

TEST_F(MvccCoreTest, FailFastWwConflictOnNewerCommitted) {
  SeedRow(1, 100);
  Transaction t1(&mgr_);
  mgr_.Begin(&t1);
  // Another transaction commits an update after t1 started.
  Transaction t2(&mgr_);
  mgr_.Begin(&t2);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t2.Update(table_, obj, AccountRow{300}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  ASSERT_TRUE(mgr_.TryCommit(&t2, [](CommittedRecord*) { return true; }));
  // t1 now hits a committed version newer than its start.
  EXPECT_EQ(t1.Update(table_, obj, AccountRow{1}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kWwConflict);
  mgr_.FinishAborted(&t1);
}

TEST_F(MvccCoreTest, AllowMultipleUncommittedVersionsCoexist) {
  SeedRow(1, 100);
  table_.set_ww_policy(WwPolicy::kAllowMultiple);
  Transaction t1(&mgr_);
  Transaction t2(&mgr_);
  mgr_.Begin(&t1);
  mgr_.Begin(&t2);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t1.Update(table_, obj, AccountRow{101}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  ASSERT_EQ(t2.Update(table_, obj, AccountRow{102}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  // Each sees its own version.
  EXPECT_EQ(ReadBalance(t1, 1), 101);
  EXPECT_EQ(ReadBalance(t2, 1), 102);
  // Commit in reverse push order: t1 first, then t2; the move keeps the
  // committed suffix ordered by commit timestamp.
  ASSERT_TRUE(mgr_.TryCommit(&t1, [](CommittedRecord*) { return true; }));
  ASSERT_TRUE(mgr_.TryCommit(&t2, [](CommittedRecord*) { return true; }));
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  EXPECT_EQ(ReadBalance(fresh, 1), 102);  // later committer wins
  mgr_.CommitReadOnly(&fresh);
}

TEST_F(MvccCoreTest, CommitMoveRestoresTimestampOrder) {
  SeedRow(1, 100);
  table_.set_ww_policy(WwPolicy::kAllowMultiple);
  // t1 pushes first (deeper in the chain), t2 pushes second, but t2
  // commits FIRST. Without the §2.4.1 move, t1's later commit would leave
  // the chain ordered t2(newer position, older ts) above t1 — wrong.
  Transaction t1(&mgr_);
  Transaction t2(&mgr_);
  mgr_.Begin(&t1);
  mgr_.Begin(&t2);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t1.Update(table_, obj, AccountRow{111}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  ASSERT_EQ(t2.Update(table_, obj, AccountRow{222}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  ASSERT_TRUE(mgr_.TryCommit(&t2, [](CommittedRecord*) { return true; }));
  ASSERT_TRUE(mgr_.TryCommit(&t1, [](CommittedRecord*) { return true; }));
  // t1 committed last, so a fresh reader must see t1's value.
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  EXPECT_EQ(ReadBalance(fresh, 1), 111);
  mgr_.CommitReadOnly(&fresh);
}

TEST_F(MvccCoreTest, OnlyNewestVersionPerObjectSurvivesCommit) {
  SeedRow(1, 100);
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t.Update(table_, obj, AccountRow{150}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  ASSERT_EQ(t.Update(table_, obj, AccountRow{175}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  EXPECT_EQ(ReadBalance(t, 1), 175);  // own newest
  Timestamp cts = 0;
  ASSERT_TRUE(
      mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }, &cts));
  // The recently-committed record carries exactly one version for the
  // object (Definition 2.2).
  CommittedRecord* rec = mgr_.rc_head();
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->commit_ts, cts);
  ASSERT_EQ(rec->versions.size(), 1u);
  EXPECT_EQ(static_cast<const Version<AccountRow>*>(rec->versions[0])
                ->data()
                .balance,
            175);

  // One large transaction writing a few objects many times, each write
  // with a partial column mask: every object still commits exactly one
  // version, the newest, carrying the union of its writes' masks.
  constexpr int kObjects = 4;
  constexpr int kWrites = 4000;
  for (int k = 0; k < kObjects; ++k) SeedRow(10 + k, 0);
  Transaction big(&mgr_);
  mgr_.Begin(&big);
  for (int i = 0; i < kWrites; ++i) {
    ASSERT_EQ(big.Update(table_, table_.Find(10 + i % kObjects),
                         AccountRow{i}, ColumnMask::Of(i % (2 * kObjects)),
                         false, WwPolicy::kFailFast),
              WriteStatus::kOk);
  }
  ASSERT_TRUE(mgr_.TryCommit(&big, [](CommittedRecord*) { return true; }));
  rec = mgr_.rc_head();
  ASSERT_EQ(rec->versions.size(), static_cast<size_t>(kObjects));
  for (const VersionBase* v : rec->versions) {
    const int k = static_cast<int>(
        static_cast<const Version<AccountRow>*>(v)->data().balance %
        kObjects);
    EXPECT_EQ(static_cast<const Version<AccountRow>*>(v)->data().balance,
              kWrites - kObjects + k);
    EXPECT_EQ(v->modified_columns(),
              ColumnMask::Of(k) | ColumnMask::Of(k + kObjects));
  }
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  for (int k = 0; k < kObjects; ++k) {
    EXPECT_EQ(ReadBalance(fresh, 10 + k), kWrites - kObjects + k);
    EXPECT_EQ(table_.Find(10 + k)->ChainLength(), 2u);
  }
  mgr_.CommitReadOnly(&fresh);
}

TEST_F(MvccCoreTest, DeleteMakesRowInvisibleAndReinsertWorks) {
  SeedRow(1, 100);
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t.Delete(table_, obj), WriteStatus::kOk);
  EXPECT_EQ(t.ReadVersion(table_, obj), nullptr);  // tombstone hides row
  ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));

  Transaction t2(&mgr_);
  mgr_.Begin(&t2);
  EXPECT_EQ(table_.Find(1)->ReadVisible(t2.start_ts(), t2.txn_id()), nullptr);
  // Re-insert over the tombstone.
  ASSERT_EQ(t2.Insert(table_, 1, AccountRow{500}), WriteStatus::kOk);
  ASSERT_TRUE(mgr_.TryCommit(&t2, [](CommittedRecord*) { return true; }));
  Transaction t3(&mgr_);
  mgr_.Begin(&t3);
  EXPECT_EQ(ReadBalance(t3, 1), 500);
  mgr_.CommitReadOnly(&t3);
}

TEST_F(MvccCoreTest, DuplicateInsertRejected) {
  SeedRow(1, 100);
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  EXPECT_EQ(t.Insert(table_, 1, AccountRow{5}),
            WriteStatus::kDuplicateKey);
  mgr_.FinishAborted(&t);
}

TEST_F(MvccCoreTest, RollbackRestoresPreviousState) {
  SeedRow(1, 100);
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  auto* obj = table_.Find(1);
  ASSERT_EQ(t.Update(table_, obj, AccountRow{999}, ColumnMask::All(), false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  t.RollbackWrites();
  mgr_.FinishAborted(&t);
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  EXPECT_EQ(ReadBalance(fresh, 1), 100);
  mgr_.CommitReadOnly(&fresh);
  EXPECT_EQ(obj->ChainLength(), 1u);
}

TEST_F(MvccCoreTest, ChainTruncationReclaimsOldVersions) {
  SeedRow(1, 0);
  auto* obj = table_.Find(1);
  // Push enough committed versions to trip the inline truncation.
  for (int i = 1; i <= 100; ++i) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Update(table_, obj, AccountRow{i}, ColumnMask::All(), false, WwPolicy::kFailFast),
              WriteStatus::kOk);
    ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }
  EXPECT_LT(obj->ChainLength(), 100u);
  Transaction fresh(&mgr_);
  mgr_.Begin(&fresh);
  EXPECT_EQ(ReadBalance(fresh, 1), 100);
  mgr_.CommitReadOnly(&fresh);
}

TEST_F(MvccCoreTest, GarbageCollectionFreesRetiredNodes) {
  SeedRow(1, 0);
  auto* obj = table_.Find(1);
  for (int i = 1; i <= 100; ++i) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Update(table_, obj, AccountRow{i}, ColumnMask::All(), false, WwPolicy::kFailFast),
              WriteStatus::kOk);
    ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }
  EXPECT_GT(mgr_.gc().PendingCount(), 0u);
  mgr_.CollectGarbage();
  EXPECT_EQ(mgr_.gc().PendingCount(), 0u);
  EXPECT_LE(mgr_.RecentlyCommittedLength(), 1u);
}

TEST_F(MvccCoreTest, TimestampsDistinguishCommittedFromUncommitted) {
  EXPECT_TRUE(IsTxnId(kTxnIdBase + 5));
  EXPECT_FALSE(IsTxnId(42));
  EXPECT_FALSE(IsTxnId(kDeadVersion));
  EXPECT_TRUE(IsCommitTs(42));
  EXPECT_FALSE(IsCommitTs(kTxnIdBase));
}

TEST_F(MvccCoreTest, OldestActiveStartTracksActiveTransactions) {
  EXPECT_EQ(mgr_.OldestActiveStart(), TransactionManager::kIdleSlot);
  Transaction t(&mgr_);
  mgr_.Begin(&t);
  EXPECT_EQ(mgr_.OldestActiveStart(), t.start_ts());
  Transaction t2(&mgr_);
  mgr_.Begin(&t2);
  EXPECT_EQ(mgr_.OldestActiveStart(), t.start_ts());  // min of the two
  mgr_.CommitReadOnly(&t);
  EXPECT_EQ(mgr_.OldestActiveStart(), t2.start_ts());
  mgr_.CommitReadOnly(&t2);
  EXPECT_EQ(mgr_.OldestActiveStart(), TransactionManager::kIdleSlot);
}

}  // namespace
}  // namespace mv3c
