// Garbage collection and version-chain maintenance tests: grace-period
// reclamation, recently-committed list trimming against active readers,
// and chain truncation — including the regression case where an
// uncommitted version sits below a committed one under kAllowMultiple.

#include <gtest/gtest.h>

#include "mvcc/table.h"
#include "mvcc/transaction.h"
#include "mvcc/transaction_manager.h"
#include "mvcc/version_arena.h"

namespace mv3c {
namespace {

struct Row {
  int64_t v = 0;
};
using TestTable = Table<uint64_t, Row>;

class GcTest : public ::testing::Test {
 protected:
  GcTest() : table_("t", 64) {}

  void Commit(Transaction& t) {
    ASSERT_TRUE(mgr_.TryCommit(&t, [](CommittedRecord*) { return true; }));
  }

  void SeedAndCommit(uint64_t key, int64_t v) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Insert(table_, key, Row{v}), WriteStatus::kOk);
    Commit(t);
  }

  void UpdateAndCommit(uint64_t key, int64_t v) {
    Transaction t(&mgr_);
    mgr_.Begin(&t);
    ASSERT_EQ(t.Update(table_, table_.Find(key), Row{v}, ColumnMask::All(),
                       false, WwPolicy::kFailFast),
              WriteStatus::kOk);
    Commit(t);
  }

  TransactionManager mgr_;
  TestTable table_;
};

TEST_F(GcTest, RetiredNodesSurviveWhileReaderIsActive) {
  SeedAndCommit(1, 0);
  Transaction reader(&mgr_);
  mgr_.Begin(&reader);
  // Rolled-back versions are retired but must not be freed while the
  // reader (started before the rollback) is active.
  Transaction w(&mgr_);
  mgr_.Begin(&w);
  ASSERT_EQ(w.Update(table_, table_.Find(1), Row{9}, ColumnMask::All(),
                     false, WwPolicy::kFailFast),
            WriteStatus::kOk);
  w.RollbackWrites();
  mgr_.FinishAborted(&w);
  EXPECT_EQ(mgr_.gc().PendingCount(), 1u);
  mgr_.CollectGarbage();
  // The rolled-back version stays pending — the reader pins its grace
  // period. (The collection pass may additionally retire the seed's RC
  // record, which the reader does not need for validation.)
  EXPECT_GE(mgr_.gc().PendingCount(), 1u);
  mgr_.CommitReadOnly(&reader);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();  // second pass frees what the first retired
  EXPECT_EQ(mgr_.gc().PendingCount(), 0u);
}

TEST_F(GcTest, RcListKeptWhileValidatorMightNeedIt) {
  SeedAndCommit(1, 0);
  Transaction old_txn(&mgr_);
  mgr_.Begin(&old_txn);
  for (int i = 1; i <= 10; ++i) UpdateAndCommit(1, i);
  EXPECT_GE(mgr_.RecentlyCommittedLength(), 10u);
  mgr_.CollectGarbage();
  // old_txn started before those commits; they must stay validatable.
  EXPECT_GE(mgr_.RecentlyCommittedLength(), 10u);
  mgr_.CommitReadOnly(&old_txn);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();  // second pass frees what the first retired
  EXPECT_LE(mgr_.RecentlyCommittedLength(), 1u);
}

TEST_F(GcTest, TruncationPreservesUncommittedBelowCommitted) {
  // Regression: under kAllowMultiple, T1 pushes a version, T2 pushes above
  // it and commits in place; T1's uncommitted version now sits BELOW a
  // committed one. Chain truncation must skip it.
  table_.set_ww_policy(WwPolicy::kAllowMultiple);
  SeedAndCommit(1, 0);
  auto* obj = table_.Find(1);

  Transaction t1(&mgr_);
  mgr_.Begin(&t1);
  ASSERT_EQ(t1.Update(table_, obj, Row{111}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  Transaction t2(&mgr_);
  mgr_.Begin(&t2);
  ASSERT_EQ(t2.Update(table_, obj, Row{222}, ColumnMask::All(), true, WwPolicy::kAllowMultiple),
            WriteStatus::kOk);
  Commit(t2);  // commits in place, above t1's uncommitted version

  // Force truncation with a watermark beyond t2's commit.
  size_t cut = obj->TruncateOlderThan(
      mgr_.OldestActiveStart(), [this](VersionBase* v) {
        mgr_.gc().RetireVersion(v, mgr_.CurrentEra());
      });
  (void)cut;
  // t1's version must still be linked and readable by t1.
  const auto* own = obj->ReadVisible(t1.start_ts(), t1.txn_id());
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->data().v, 111);
  // And t1 can still roll back without tripping the unlink check.
  t1.RollbackWrites();
  mgr_.FinishAborted(&t1);
}

TEST_F(GcTest, TruncationKeepsNewestCommittedBelowWatermark) {
  SeedAndCommit(1, 0);
  auto* obj = table_.Find(1);
  Transaction pinned(&mgr_);
  mgr_.Begin(&pinned);
  const Timestamp pin_start = pinned.start_ts();
  for (int i = 1; i <= 10; ++i) UpdateAndCommit(1, i);
  // Truncate with the pinned reader's start as watermark: the version it
  // sees (v=0, the newest committed below its start) must survive.
  obj->TruncateOlderThan(pin_start, [this](VersionBase* v) {
    mgr_.gc().RetireVersion(v, mgr_.CurrentEra());
  });
  const auto* visible = obj->ReadVisible(pin_start, 0);
  ASSERT_NE(visible, nullptr);
  EXPECT_EQ(visible->data().v, 0);
  mgr_.CommitReadOnly(&pinned);
}

TEST_F(GcTest, InlineTruncationBoundsHotChains) {
  SeedAndCommit(1, 0);
  auto* obj = table_.Find(1);
  for (int i = 0; i < 500; ++i) UpdateAndCommit(1, i);
  // The push path truncates once the approximate length passes the
  // threshold; the chain must stay well below the raw update count.
  EXPECT_LT(obj->ChainLength(), 100u);
}

TEST_F(GcTest, SlabRetirementAcrossSlabBoundary) {
  // ISSUE 2 satellite: a single transaction's write burst spans multiple
  // 64 KiB slabs (a Version<Row> here is ~80 bytes, so ~800 fit per slab);
  // after rollback and a full grace period, the interior slabs — sealed and
  // fully drained — must retire, while the still-active bump target stays.
  const auto before = mgr_.arena().snapshot();
  constexpr int kRows = 2500;
  Transaction w(&mgr_);
  mgr_.Begin(&w);
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(w.Insert(table_, 1000 + i, Row{i}), WriteStatus::kOk);
  }
  EXPECT_GE(mgr_.arena().snapshot().slabs_created, before.slabs_created + 2)
      << "burst must straddle at least one slab boundary";
  w.RollbackWrites();
  mgr_.FinishAborted(&w);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();  // second pass frees what the first retired
  EXPECT_EQ(mgr_.gc().PendingCount(), 0u);
  const auto after = mgr_.arena().snapshot();
  EXPECT_GE(after.frees, before.frees + kRows);
  EXPECT_GE(after.slabs_retired, before.slabs_retired + 1);
  EXPECT_EQ(after.deferred_slabs, 0u);
}

TEST_F(GcTest, LongRunningReaderPinsSlabRetirement) {
  // ISSUE 2 satellite: the epoch watermark is the reclamation contract.
  // While a reader that started before a write burst's rollback is active,
  // no version from that burst may be freed — and therefore no slab it
  // occupies may retire. Once the reader finishes, the backlog drains and
  // the sealed slabs retire.
  SeedAndCommit(1, 0);
  Transaction reader(&mgr_);
  mgr_.Begin(&reader);
  const auto before = mgr_.arena().snapshot();
  constexpr int kRows = 3000;
  Transaction w(&mgr_);
  mgr_.Begin(&w);
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(w.Insert(table_, 2000 + i, Row{i}), WriteStatus::kOk);
  }
  w.RollbackWrites();
  mgr_.FinishAborted(&w);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();
  EXPECT_GE(mgr_.gc().PendingCount(), static_cast<size_t>(kRows));
  const auto mid = mgr_.arena().snapshot();
  EXPECT_EQ(mid.frees, before.frees) << "reader must pin every version";
  EXPECT_EQ(mid.slabs_retired, before.slabs_retired)
      << "pinned versions must pin their slabs";
  mgr_.CommitReadOnly(&reader);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();  // second pass frees what the first retired
  EXPECT_EQ(mgr_.gc().PendingCount(), 0u);
  const auto after = mgr_.arena().snapshot();
  EXPECT_GE(after.frees, before.frees + kRows);
  EXPECT_GE(after.slabs_retired, before.slabs_retired + 1);
}

TEST_F(GcTest, CollectAllOnQuiescentSystemFreesEverything) {
  SeedAndCommit(1, 0);
  for (int i = 0; i < 64; ++i) UpdateAndCommit(1, i);
  mgr_.CollectGarbage();
  mgr_.CollectGarbage();
  EXPECT_EQ(mgr_.gc().PendingCount(), 0u);
  EXPECT_LE(mgr_.RecentlyCommittedLength(), 1u);
}

}  // namespace
}  // namespace mv3c
