// Tests for the single-version substrate and the OCC/SILO baselines:
// TID-word semantics, read/write/insert/delete protocols (including
// read-your-own-writes and insert-conflict retries), validation failures
// on read-write conflicts, phantom detection via node sets, and the shared
// TPC-C programs over the SV store for both engines (consistency after
// contended window runs and real-thread runs).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "driver/window_driver.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
#include "workloads/tpcc.h"

namespace mv3c {
namespace {

using namespace mv3c::tpcc;  // NOLINT
using sv::SvTransaction;

struct CounterRow {
  int64_t value = 0;
};
using CounterTable = sv::SvTable<uint64_t, CounterRow>;

ExecStatus Increment(SvTransaction& t, CounterTable& table, uint64_t key) {
  return t.Lookup(table, key, ColumnMask::All(),
                  [&table](SvTransaction& t, CounterTable::Object* rec,
                           const CounterRow* row) {
                    if (row == nullptr) return ExecStatus::kUserAbort;
                    CounterRow next = *row;
                    next.value += 1;
                    return t.UpdateRow(table, rec, next, ColumnMask::All());
                  });
}

template <typename Engine>
class SvEngineTest : public ::testing::Test {
 protected:
  SvEngineTest() : table_("counter", 64) {
    for (uint64_t k = 0; k < 8; ++k) table_.LoadRow(k, CounterRow{100});
  }

  /// The shared TPC-C program, run by this fixture's engine.
  static typename SvExecutor<Engine>::Program Tpcc(TpccSvDb& db,
                                                   const TpccParams& p) {
    return TpccProgram<SvExecutor<Engine>>(db, p);
  }

  Engine engine_;
  CounterTable table_;
};

using Engines = ::testing::Types<OccEngine, SiloEngine>;
TYPED_TEST_SUITE(SvEngineTest, Engines);

TYPED_TEST(SvEngineTest, ReadUpdateCommit) {
  SvExecutor<TypeParam> e(&this->engine_);
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              return Increment(t, this->table_, 1);
            }),
            StepResult::kCommitted);
  CounterRow row;
  this->table_.Find(1)->ReadStable(&row);
  EXPECT_EQ(row.value, 101);
}

TYPED_TEST(SvEngineTest, ConflictingReadFailsValidationAndRetries) {
  SvExecutor<TypeParam> victim(&this->engine_);
  victim.Reset([&](SvTransaction& t) {
    return Increment(t, this->table_, 2);
  });
  victim.Begin();
  // Execute the read phase manually, then let another txn commit.
  {
    SvTransaction& t = victim.txn();
    t.Clear();
    ASSERT_EQ(Increment(t, this->table_, 2), ExecStatus::kOk);
    SvExecutor<TypeParam> other(&this->engine_);
    ASSERT_EQ(other.Run([&](SvTransaction& t2) {
                return Increment(t2, this->table_, 2);
              }),
              StepResult::kCommitted);
    // The victim's buffered commit must fail now.
    EXPECT_FALSE(this->engine_.Commit(t));
  }
  // Through the executor, the retry loop converges.
  ASSERT_EQ(victim.Run([&](SvTransaction& t) {
              return Increment(t, this->table_, 2);
            }),
            StepResult::kCommitted);
  CounterRow row;
  this->table_.Find(2)->ReadStable(&row);
  EXPECT_EQ(row.value, 102);  // +1 (other) +1 (final run); the failed
                              // commit installed nothing
}

// Lookup -> UpdateRow -> Lookup -> UpdateRow on one row: the second
// lookup reads the first update back from the write set, so the committed
// row carries both (a TPC-C New-Order naming one stock row twice).
TYPED_TEST(SvEngineTest, ReadsItsOwnWrites) {
  SvExecutor<TypeParam> e(&this->engine_);
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              const ExecStatus st = Increment(t, this->table_, 3);
              if (st != ExecStatus::kOk) return st;
              return Increment(t, this->table_, 3);
            }),
            StepResult::kCommitted);
  CounterRow row;
  this->table_.Find(3)->ReadStable(&row);
  EXPECT_EQ(row.value, 102);
}

// A round that ends in kWriteWriteConflict (its insert found a live key)
// is a failed round: the executor retries it, and nothing the failed round
// buffered is installed.
TYPED_TEST(SvEngineTest, WriteWriteConflictRetriesAndInstallsNothing) {
  SvExecutor<TypeParam> e(&this->engine_);
  int rounds = 0;
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              const ExecStatus st = Increment(t, this->table_, 4);
              if (st != ExecStatus::kOk) return st;
              if (++rounds == 1 &&
                  t.InsertRow(this->table_, 1, CounterRow{}) !=
                      WriteStatus::kOk) {
                return ExecStatus::kWriteWriteConflict;
              }
              return ExecStatus::kOk;
            }),
            StepResult::kCommitted);
  EXPECT_EQ(rounds, 2);
  EXPECT_EQ(e.stats().ww_restarts, 1u);
  EXPECT_EQ(e.stats().commits, 1u);
  CounterRow row;
  this->table_.Find(4)->ReadStable(&row);
  EXPECT_EQ(row.value, 101);  // the failed round's increment is gone
}

TYPED_TEST(SvEngineTest, InsertDeleteRoundTrip) {
  SvExecutor<TypeParam> e(&this->engine_);
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              if (t.InsertRow(this->table_, 50, CounterRow{7}) !=
                  WriteStatus::kOk) {
                return ExecStatus::kUserAbort;
              }
              return ExecStatus::kOk;
            }),
            StepResult::kCommitted);
  CounterRow row;
  ASSERT_FALSE(sv::IsAbsent(this->table_.Find(50)->ReadStable(&row)));
  EXPECT_EQ(row.value, 7);
  // Duplicate insert aborts.
  SvExecutor<TypeParam> e2(&this->engine_);
  ASSERT_EQ(e2.Run([&](SvTransaction& t) {
              if (t.InsertRow(this->table_, 50, CounterRow{9}) !=
                  WriteStatus::kOk) {
                return ExecStatus::kUserAbort;
              }
              return ExecStatus::kOk;
            }),
            StepResult::kUserAborted);
  // Delete makes it absent; re-insert works.
  SvExecutor<TypeParam> e3(&this->engine_);
  ASSERT_EQ(e3.Run([&](SvTransaction& t) {
              return t.Lookup(
                  this->table_, 50, ColumnMask::All(),
                  [&](SvTransaction& t, CounterTable::Object* rec,
                      const CounterRow* r) {
                    if (r == nullptr) return ExecStatus::kUserAbort;
                    return t.DeleteRow(this->table_, rec);
                  });
            }),
            StepResult::kCommitted);
  EXPECT_TRUE(sv::IsAbsent(this->table_.Find(50)->ReadStable(&row)));
}

TYPED_TEST(SvEngineTest, ConcurrentIncrementsNeverLoseUpdates) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<TypeParam>> engines;
  const bool shared_engine = std::is_same_v<TypeParam, OccEngine>;
  for (int i = 0; i < kThreads; ++i) {
    engines.push_back(std::make_unique<TypeParam>());
  }
  for (int i = 0; i < kThreads; ++i) {
    TypeParam* engine =
        shared_engine ? &this->engine_ : engines[i].get();
    threads.emplace_back([&, engine] {
      SvExecutor<TypeParam> e(engine);
      for (int n = 0; n < kPerThread; ++n) {
        e.MustRun([&](SvTransaction& t) {
          return Increment(t, this->table_, 5);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  CounterRow row;
  this->table_.Find(5)->ReadStable(&row);
  EXPECT_EQ(row.value, 100 + kThreads * kPerThread);
}

// --- TPC-C over the SV store ---

TpccScale SvTestScale() {
  TpccScale s;
  s.n_warehouses = 1;
  s.n_districts = 4;
  s.n_customers_per_d = 100;
  s.n_items = 500;
  s.preload_orders_per_d = 100;
  s.preload_new_orders_per_d = 30;
  return s;
}

TYPED_TEST(SvEngineTest, TpccMixedWindowRunKeepsConsistency) {
  TpccSvDb db(SvTestScale());
  db.Load(7);
  TpccGenerator gen(db.scale(), 23);
  std::vector<TpccParams> stream;
  for (int i = 0; i < 800; ++i) stream.push_back(gen.Next());

  TypeParam engine;
  WindowDriver<SvExecutor<TypeParam>> driver(8, [&](...) {
    return std::make_unique<SvExecutor<TypeParam>>(&engine);
  });
  const DriveResult res =
      driver.Run(CountedSource<typename SvExecutor<TypeParam>::Program>(
          stream.size(),
          [&](uint64_t i) { return TestFixture::Tpcc(db, stream[i]); }));
  EXPECT_EQ(res.committed + res.user_aborted, stream.size());
  EXPECT_GT(res.committed, res.user_aborted);
  std::string why;
  EXPECT_TRUE(CheckConsistency(db, &why)) << why;
}

// O_ALL_LOCAL is false iff some line is supplied by another warehouse.
TYPED_TEST(SvEngineTest, TpccNewOrderRecordsRemoteSupply) {
  TpccScale scale = SvTestScale();
  scale.n_warehouses = 2;
  TpccSvDb db(scale);
  db.Load(7);
  TypeParam engine;
  SvExecutor<TypeParam> e(&engine);
  TpccParams p;
  p.type = TpccTxnType::kNewOrder;
  p.w_id = 1;
  p.d_id = 1;
  p.c_id = 4;
  p.ol_cnt = 5;
  for (int i = 0; i < 5; ++i) {
    p.items[i] = {static_cast<uint64_t>(i + 1), 1, 2};
  }
  ASSERT_EQ(e.Run(TestFixture::Tpcc(db, p)), StepResult::kCommitted);
  p.items[3].supply_w = 2;  // one remote line
  ASSERT_EQ(e.Run(TestFixture::Tpcc(db, p)), StepResult::kCommitted);
  const uint64_t o_id = scale.preload_orders_per_d + 1;
  OrderRow local, remote;
  db.orders.Find(OrderKey(1, 1, o_id))->ReadStable(&local);
  db.orders.Find(OrderKey(1, 1, o_id + 1))->ReadStable(&remote);
  EXPECT_TRUE(local.all_local);
  EXPECT_FALSE(remote.all_local);
}

// Three real threads run the TPC-C mix over two warehouses: eager
// secondary-index inserts race ABSENT-skipping scans, and the database
// must end consistent (CheckConsistency also checks that no order lies
// beyond d_next_o_id and that recent orders carry ol_cnt lines).
TYPED_TEST(SvEngineTest, TpccThreeThreadsKeepConsistency) {
  TpccScale scale = SvTestScale();
  scale.n_warehouses = 2;
  TpccSvDb db(scale);
  db.Load(7);
  constexpr int kThreads = 3;
  constexpr int kPerThread = 400;
  // OCC validates under one engine-wide mutex; SILO runs one engine per
  // worker.
  const bool shared_engine = std::is_same_v<TypeParam, OccEngine>;
  std::vector<std::unique_ptr<TypeParam>> engines;
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    engines.push_back(std::make_unique<TypeParam>());
    TypeParam* engine = shared_engine ? &this->engine_ : engines[i].get();
    threads.emplace_back([&, engine, i] {
      SvExecutor<TypeParam> e(engine);
      TpccGenerator gen(scale, 100 + i);
      for (int n = 0; n < kPerThread; ++n) {
        const StepResult r = e.Run(TestFixture::Tpcc(db, gen.Next()));
        EXPECT_NE(r, StepResult::kExhausted);
        if (r == StepResult::kCommitted) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(committed.load(), uint64_t{kThreads * kPerThread / 2});
  std::string why;
  EXPECT_TRUE(CheckConsistency(db, &why)) << why;
}

TYPED_TEST(SvEngineTest, TpccPhantomDetectionViaNodeSets) {
  TpccSvDb db(SvTestScale());
  db.Load(7);
  TypeParam engine;
  // A Delivery transaction observes the new-order queue; a concurrent
  // New-Order inserting into the same district invalidates it.
  SvExecutor<TypeParam> delivery(&engine);
  TpccParams dp;
  dp.type = TpccTxnType::kDelivery;
  dp.w_id = 1;
  dp.carrier_id = 2;
  dp.date = 55;
  delivery.Reset(TestFixture::Tpcc(db, dp));
  delivery.Begin();
  {
    // Run the delivery's read phase only.
    SvTransaction& t = delivery.txn();
    t.Clear();
    ASSERT_EQ(TestFixture::Tpcc(db, dp)(t), ExecStatus::kOk);
    // Concurrent New-Order commits into district 1.
    TpccParams np;
    np.type = TpccTxnType::kNewOrder;
    np.w_id = 1;
    np.d_id = 1;
    np.c_id = 4;
    np.ol_cnt = 5;
    for (int i = 0; i < 5; ++i) {
      np.items[i] = {static_cast<uint64_t>(i + 1), 1, 2};
    }
    SvExecutor<TypeParam> no(&engine);
    ASSERT_EQ(no.Run(TestFixture::Tpcc(db, np)), StepResult::kCommitted);
    // The delivery's buffered commit fails on the node set.
    EXPECT_FALSE(engine.Commit(t));
  }
}

}  // namespace
}  // namespace mv3c
