// Tests for the single-version substrate and the OCC/SILO baselines:
// TID-word semantics, read/write/insert/delete protocols, validation
// failures on read-write conflicts, phantom detection via node sets, and
// TPC-C over the SV store for both engines (consistency after contended
// window runs).

#include <gtest/gtest.h>

#include <thread>

#include "driver/window_driver.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
#include "workloads/tpcc_sv.h"

namespace mv3c {
namespace {

using namespace mv3c::tpcc;  // NOLINT
using sv::SvTransaction;

struct CounterRow {
  int64_t value = 0;
};
using CounterTable = sv::SvTable<uint64_t, CounterRow>;

template <typename Engine>
ExecStatus Increment(SvTransaction& t, CounterTable& table, uint64_t key) {
  CounterRow row;
  CounterTable::Rec* rec = nullptr;
  if (!t.Read(table, key, &row, &rec)) return ExecStatus::kUserAbort;
  row.value += 1;
  t.Update(table, rec, row);
  return ExecStatus::kOk;
}

template <typename Engine>
class SvEngineTest : public ::testing::Test {
 protected:
  SvEngineTest() : table_("counter", 64) {
    for (uint64_t k = 0; k < 8; ++k) table_.LoadRow(k, CounterRow{100});
  }

  Engine engine_;
  CounterTable table_;
};

using Engines = ::testing::Types<OccEngine, SiloEngine>;
TYPED_TEST_SUITE(SvEngineTest, Engines);

TYPED_TEST(SvEngineTest, ReadUpdateCommit) {
  SvExecutor<TypeParam> e(&this->engine_);
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              return Increment<TypeParam>(t, this->table_, 1);
            }),
            StepResult::kCommitted);
  CounterRow row;
  this->table_.Find(1)->ReadStable(&row);
  EXPECT_EQ(row.value, 101);
}

TYPED_TEST(SvEngineTest, ConflictingReadFailsValidationAndRetries) {
  SvExecutor<TypeParam> victim(&this->engine_);
  victim.Reset([&](SvTransaction& t) {
    return Increment<TypeParam>(t, this->table_, 2);
  });
  victim.Begin();
  // Execute the read phase manually, then let another txn commit.
  {
    SvTransaction& t = victim.txn();
    t.Clear();
    CounterRow row;
    CounterTable::Rec* rec = nullptr;
    ASSERT_TRUE(t.Read(this->table_, 2, &row, &rec));
    row.value += 1;
    t.Update(this->table_, rec, row);
    SvExecutor<TypeParam> other(&this->engine_);
    ASSERT_EQ(other.Run([&](SvTransaction& t2) {
                return Increment<TypeParam>(t2, this->table_, 2);
              }),
              StepResult::kCommitted);
    // The victim's buffered commit must fail now.
    EXPECT_FALSE(this->engine_.Commit(t));
  }
  // Through the executor, the retry loop converges.
  ASSERT_EQ(victim.Run([&](SvTransaction& t) {
              return Increment<TypeParam>(t, this->table_, 2);
            }),
            StepResult::kCommitted);
  CounterRow row;
  this->table_.Find(2)->ReadStable(&row);
  EXPECT_EQ(row.value, 102);  // +1 (other) +1 (final run); the failed
                              // commit installed nothing
}

TYPED_TEST(SvEngineTest, InsertDeleteRoundTrip) {
  SvExecutor<TypeParam> e(&this->engine_);
  ASSERT_EQ(e.Run([&](SvTransaction& t) {
              if (!t.Insert(this->table_, 50, CounterRow{7})) {
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
              if (!t.Insert(this->table_, 50, CounterRow{9})) {
                return ExecStatus::kUserAbort;
              }
              return ExecStatus::kOk;
            }),
            StepResult::kUserAborted);
  // Delete makes it absent; re-insert works.
  SvExecutor<TypeParam> e3(&this->engine_);
  ASSERT_EQ(e3.Run([&](SvTransaction& t) {
              CounterRow r;
              CounterTable::Rec* rec = nullptr;
              if (!t.Read(this->table_, 50, &r, &rec)) {
                return ExecStatus::kUserAbort;
              }
              t.Delete(this->table_, rec);
              return ExecStatus::kOk;
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
          return Increment<TypeParam>(t, this->table_, 5);
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
  SvTpccDb db(SvTestScale());
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
          [&](uint64_t i) { return SvTpccProgram(db, stream[i]); }));
  EXPECT_EQ(res.committed + res.user_aborted, stream.size());
  EXPECT_GT(res.committed, res.user_aborted);
  std::string why;
  EXPECT_TRUE(CheckSvConsistency(db, &why)) << why;
}

// O_ALL_LOCAL is false iff some line is supplied by another warehouse.
TYPED_TEST(SvEngineTest, TpccNewOrderRecordsRemoteSupply) {
  TpccScale scale = SvTestScale();
  scale.n_warehouses = 2;
  SvTpccDb db(scale);
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
  ASSERT_EQ(e.Run(SvTpccProgram(db, p)), StepResult::kCommitted);
  p.items[3].supply_w = 2;  // one remote line
  ASSERT_EQ(e.Run(SvTpccProgram(db, p)), StepResult::kCommitted);
  const uint64_t o_id = scale.preload_orders_per_d + 1;
  OrderRow local, remote;
  db.orders.Find(OrderKey(1, 1, o_id))->ReadStable(&local);
  db.orders.Find(OrderKey(1, 1, o_id + 1))->ReadStable(&remote);
  EXPECT_TRUE(local.all_local);
  EXPECT_FALSE(remote.all_local);
}

TYPED_TEST(SvEngineTest, TpccPhantomDetectionViaNodeSets) {
  SvTpccDb db(SvTestScale());
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
  delivery.Reset(SvTpccProgram(db, dp));
  delivery.Begin();
  {
    // Run the delivery's read phase only.
    SvTransaction& t = delivery.txn();
    t.Clear();
    ASSERT_EQ(SvTpccProgram(db, dp)(t), ExecStatus::kOk);
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
    ASSERT_EQ(no.Run(SvTpccProgram(db, np)), StepResult::kCommitted);
    // The delivery's buffered commit fails on the node set.
    EXPECT_FALSE(engine.Commit(t));
  }
}

}  // namespace
}  // namespace mv3c
