// TATP workload tests (paper Appendix C.1): loader population rules, all
// seven transaction types under both engines, the UPDATE_LOCATION blind-
// write asymmetry, and a mixed window run.

#include <gtest/gtest.h>

#include "driver/window_driver.h"
#include "workloads/tatp.h"

namespace mv3c {
namespace {

using namespace mv3c::tatp;  // NOLINT

class TatpTest : public ::testing::Test {
 protected:
  TatpTest() : db_(&mgr_, kSubs) { db_.Load(3); }

  static constexpr uint64_t kSubs = 2000;
  TransactionManager mgr_;
  TatpDb db_;
};

TEST_F(TatpTest, LoaderPopulatesAllTables) {
  EXPECT_EQ(db_.subscribers.ObjectCount(), kSubs);
  // 1-4 rows per subscriber, expectation 2.5.
  EXPECT_GT(db_.access_info.ObjectCount(), kSubs);
  EXPECT_LT(db_.access_info.ObjectCount(), kSubs * 4);
  EXPECT_GT(db_.special_facilities.ObjectCount(), kSubs);
  EXPECT_GT(db_.call_forwarding.ObjectCount(), kSubs / 4);
}

TEST_F(TatpTest, AllTransactionTypesRunUnderBothEngines) {
  TatpGenerator gen(kSubs, 77);
  int committed_mv3c = 0, committed_omvcc = 0;
  int aborted_mv3c = 0, aborted_omvcc = 0;
  for (int i = 0; i < 2000; ++i) {
    const TatpParams p = gen.Next();
    Mv3cExecutor m(&mgr_);
    if (m.Run(TatpProgram<Mv3cExecutor>(db_, p)) == StepResult::kCommitted) {
      ++committed_mv3c;
    } else {
      ++aborted_mv3c;
    }
    OmvccExecutor o(&mgr_);
    if (o.Run(TatpProgram<OmvccExecutor>(db_, p)) == StepResult::kCommitted) {
      ++committed_omvcc;
    } else {
      ++aborted_omvcc;
    }
  }
  // Serial execution: identical user-abort behavior for both engines,
  // except INSERT_CALL_FORWARDING where MV3C's earlier insert succeeds and
  // the OMVCC run right after it hits a duplicate (and vice versa for
  // DELETE). Allow a small divergence.
  EXPECT_NEAR(committed_mv3c, committed_omvcc, 60);
  EXPECT_GT(committed_mv3c, 1500);  // most transactions succeed
}

TEST_F(TatpTest, UpdateLocationBlindWriteAsymmetry) {
  TatpParams p;
  p.type = TxnType::kUpdateLocation;
  p.s_id = 42;
  p.location = 0xBEEF;

  // Two concurrent MV3C UPDATE_LOCATIONs: no conflict at all.
  Mv3cExecutor a(&mgr_), b(&mgr_);
  TatpParams p2 = p;
  p2.location = 0xCAFE;
  a.Reset(TatpProgram<Mv3cExecutor>(db_, p));
  b.Reset(TatpProgram<Mv3cExecutor>(db_, p2));
  a.Begin();
  b.Begin();
  ASSERT_EQ(a.Step(), StepResult::kCommitted);
  ASSERT_EQ(b.Step(), StepResult::kCommitted);
  EXPECT_EQ(b.stats().ww_restarts, 0u);
  EXPECT_EQ(b.stats().validation_failures, 0u);

  // Two concurrent OMVCC UPDATE_LOCATIONs: the second prematurely aborts.
  OmvccExecutor c(&mgr_), d(&mgr_);
  c.Reset(TatpProgram<OmvccExecutor>(db_, p));
  d.Reset(TatpProgram<OmvccExecutor>(db_, p2));
  c.Begin();
  d.Begin();
  ASSERT_EQ(TatpProgram<OmvccExecutor>(db_, p)(c.txn()), ExecStatus::kOk);
  ASSERT_EQ(d.Step(), StepResult::kNeedsRetry);
  EXPECT_EQ(d.stats().ww_restarts, 1u);
  c.txn().RollbackAll();
  mgr_.FinishAborted(&c.txn().inner());
}

TEST_F(TatpTest, InsertThenDeleteCallForwardingRoundTrip) {
  TatpParams p;
  p.s_id = 7;
  p.sf_type = 1;  // sf_type 1 always exists (loader inserts 1..n_sf)
  p.start_time = 0;
  p.end_time = 20;
  p.numberx = 999;

  // Delete any preexisting row first.
  p.type = TxnType::kDeleteCallForwarding;
  Mv3cExecutor d0(&mgr_);
  // The outcome depends on the loader; ignore it.
  (void)d0.Run(TatpProgram<Mv3cExecutor>(db_, p));

  p.type = TxnType::kInsertCallForwarding;
  Mv3cExecutor ins(&mgr_);
  ASSERT_EQ(ins.Run(TatpProgram<Mv3cExecutor>(db_, p)), StepResult::kCommitted);
  // Second insert is a duplicate -> user abort.
  Mv3cExecutor ins2(&mgr_);
  ASSERT_EQ(ins2.Run(TatpProgram<Mv3cExecutor>(db_, p)),
            StepResult::kUserAborted);
  // Delete succeeds exactly once.
  p.type = TxnType::kDeleteCallForwarding;
  Mv3cExecutor del(&mgr_);
  ASSERT_EQ(del.Run(TatpProgram<Mv3cExecutor>(db_, p)), StepResult::kCommitted);
  Mv3cExecutor del2(&mgr_);
  ASSERT_EQ(del2.Run(TatpProgram<Mv3cExecutor>(db_, p)),
            StepResult::kUserAborted);
}

TEST_F(TatpTest, WindowRunCompletes) {
  TatpGenerator gen(kSubs, 5);
  std::vector<TatpParams> stream;
  for (int i = 0; i < 3000; ++i) stream.push_back(gen.Next());

  WindowDriver<Mv3cExecutor> driver(
      32, [&](...) { return std::make_unique<Mv3cExecutor>(&mgr_); },
      [&] { mgr_.CollectGarbage(); });
  const DriveResult res = driver.Run(CountedSource<Mv3cExecutor::Program>(
      stream.size(),
      [&](uint64_t i) { return TatpProgram<Mv3cExecutor>(db_, stream[i]); }));
  EXPECT_EQ(res.committed + res.user_aborted, stream.size());
  EXPECT_GT(res.committed, res.user_aborted);
}

TEST_F(TatpTest, NonUniformKeysAreSkewed) {
  TatpGenerator gen(kSubs, 11);
  std::vector<uint64_t> counts(kSubs, 0);
  for (int i = 0; i < 50000; ++i) {
    const TatpParams p = gen.Next();
    ASSERT_LT(p.s_id, kSubs);
    ++counts[p.s_id];
  }
  // NURand concentrates mass: the hottest key should far exceed uniform.
  const uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, 50000 / kSubs * 3);
}

}  // namespace
}  // namespace mv3c
