// Chaos suite: Banking and Trading driven under armed failpoints, asserting
// that serializability (Theorem 2.1), money conservation, the GC grace-
// period invariants, and the retry-policy budget all survive injected
// validation failures, spurious write-write conflicts, lagging garbage
// collection, and scheduling perturbation. With MV3C_FAILPOINTS=OFF the
// arming calls are inert and the suite degenerates to a plain
// serializability stress (still worth running); injection-specific
// assertions are gated on failpoint::kEnabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "driver/thread_driver.h"
#include "mvcc/version_arena.h"
#include "driver/window_driver.h"
#include "workloads/banking.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

namespace fp = ::mv3c::failpoint;

using banking::BankingDb;
using banking::TransferParams;

constexpr int64_t kAccounts = 24;  // small -> frequent real conflicts too
constexpr int64_t kInitial = 1'000'000;

/// Arms the standard chaos schedule. Probabilities are low enough that
/// transactions converge (the §4.3 exclusive-repair escalation guarantees
/// commit) yet high enough that every site fires over a few hundred
/// transactions.
void ArmChaosSchedule() {
  fp::Config cfg;
  cfg.probability = 0.15;
  fp::Arm(fp::Site::kPrevalidate, cfg);
  cfg.probability = 0.10;
  fp::Arm(fp::Site::kCommitDelta, cfg);
  fp::Arm(fp::Site::kCommitExclusiveDelta, cfg);
  cfg.probability = 0.05;
  fp::Arm(fp::Site::kVersionChainPush, cfg);
  cfg.probability = 0.50;
  fp::Arm(fp::Site::kGcReclaim, cfg);
  fp::Config yield;
  yield.action = fp::Action::kYield;
  yield.probability = 0.25;
  fp::Arm(fp::Site::kRetimestamp, yield);
}

Mv3cConfig ChaosConfig() {
  Mv3cConfig config;
  config.exclusive_repair_after = 3;  // §4.3 heuristic: bounded rounds
  config.retry.max_attempts = 64;
  return config;
}

struct ChaosOutcome {
  DriveResult result;
  Mv3cStats stats;
  uint64_t schedule_hash = 0;
  std::vector<int64_t> balances;
  std::vector<std::pair<Timestamp, TransferParams>> committed;
};

std::vector<TransferParams> MakeStream(uint64_t n, uint64_t seed) {
  banking::TransferGenerator gen(kAccounts, /*fee_percent=*/100, seed);
  std::vector<TransferParams> stream(n);
  for (auto& p : stream) p = gen.Next();
  return stream;
}

/// One seeded chaos run over the (deterministic) window driver.
ChaosOutcome RunBankingChaos(uint64_t seed, uint64_t n_txns, size_t window) {
  fp::Reset(seed);
  ChaosOutcome out;
  {
    TransactionManager mgr;
    BankingDb db(&mgr, kAccounts, kInitial);
    db.Load();
    const auto stream = MakeStream(n_txns, seed * 7919 + 1);
    // Chaos covers the workload, not the deterministic load phase: the
    // loaders run serially and outside any retry loop, so an injected
    // push failure there would (correctly) abort via MV3C_CHECK.
    ArmChaosSchedule();
    WindowDriver<Mv3cExecutor> driver(
        window,
        [&](...) { return std::make_unique<Mv3cExecutor>(&mgr, ChaosConfig()); },
        [&] { mgr.CollectGarbage(); });
    driver.set_on_complete(
        [&](uint64_t idx, StepResult r, Mv3cExecutor& exec) {
          if (r == StepResult::kCommitted) {
            out.committed.push_back({exec.last_commit_ts(), stream[idx]});
          }
        });
    out.result = driver.Run(CountedSource<Mv3cExecutor::Program>(
        n_txns,
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); }));
    for (Mv3cExecutor* e : driver.executors()) out.stats.Add(e->stats());
    fp::DisarmAll();
    out.schedule_hash = fp::ScheduleHash();

    // Money conservation under injection.
    EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
    for (int64_t id = 0; id <= kAccounts; ++id) {
      out.balances.push_back(db.BalanceOf(id));
    }
    // Every transaction reached a terminal outcome; nothing spun forever
    // and nothing was double-counted.
    EXPECT_EQ(out.result.committed + out.result.user_aborted +
                  out.result.exhausted,
              n_txns);
    // Budget invariant: no transaction burned more rounds than allowed.
    EXPECT_LE(out.stats.max_rounds, ChaosConfig().retry.max_attempts);
    // GC invariant: once injection stops, the backlog drains completely
    // (no retired node was lost and none is still considered in use).
    // Since ISSUE 2 the same invariant covers slab retirement: any slab
    // parked by a gc-reclaim firing must drain once injection stops.
    mgr.CollectGarbage();
    mgr.gc().CollectAll();
    EXPECT_EQ(mgr.gc().PendingCount(), 0u);
    mgr.arena().DrainDeferred();
    EXPECT_EQ(mgr.arena().snapshot().deferred_slabs, 0u);
  }
  return out;
}

/// Re-executes the committed transactions serially in commit order.
std::vector<int64_t> SerialReference(
    std::vector<std::pair<Timestamp, TransferParams>> committed) {
  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  TransactionManager mgr;
  BankingDb db(&mgr, kAccounts, kInitial);
  db.Load();
  Mv3cExecutor exec(&mgr);
  for (const auto& [cts, params] : committed) {
    EXPECT_EQ(exec.Run(banking::Mv3cTransferMoney(db, params)),
              StepResult::kCommitted)
        << "committed transaction must re-commit serially";
  }
  std::vector<int64_t> balances;
  for (int64_t id = 0; id <= kAccounts; ++id) {
    balances.push_back(db.BalanceOf(id));
  }
  return balances;
}

// 100 consecutive seeded runs: each must be commit-order serializable and
// conserve money despite the injected fault schedule.
TEST(ChaosSerializabilityTest, HundredSeededBankingRunsStaySerializable) {
  uint64_t total_trips = 0;
  uint64_t total_exhausted = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const ChaosOutcome out =
        RunBankingChaos(seed, /*n_txns=*/300, /*window=*/8);
    EXPECT_EQ(out.balances, SerialReference(out.committed));
    total_trips += out.stats.failpoint_trips;
    total_exhausted += out.result.exhausted;
    if (::testing::Test::HasFatalFailure()) break;
  }
  fp::Reset(0);
  if (fp::kEnabled) {
    // The chaos schedule must actually have injected faults.
    EXPECT_GT(total_trips, 0u);
  } else {
    EXPECT_EQ(total_trips, 0u);
  }
  // With §4.3 escalation enabled every transaction is guaranteed to commit
  // long before the 64-round budget.
  EXPECT_EQ(total_exhausted, 0u);
}

// The reproducibility contract: the same seed must produce the identical
// fault schedule, identical outcome counters, and the identical database.
TEST(ChaosSerializabilityTest, SameSeedReproducesScheduleAndStats) {
  const ChaosOutcome a = RunBankingChaos(42, /*n_txns=*/500, /*window=*/8);
  const ChaosOutcome b = RunBankingChaos(42, /*n_txns=*/500, /*window=*/8);
  EXPECT_EQ(a.schedule_hash, b.schedule_hash);
  EXPECT_EQ(a.result.committed, b.result.committed);
  EXPECT_EQ(a.result.user_aborted, b.result.user_aborted);
  EXPECT_EQ(a.result.exhausted, b.result.exhausted);
  EXPECT_EQ(a.result.escalations, b.result.escalations);
  EXPECT_EQ(a.result.steps, b.result.steps);
  EXPECT_EQ(a.stats.validation_failures, b.stats.validation_failures);
  EXPECT_EQ(a.stats.repair_rounds, b.stats.repair_rounds);
  EXPECT_EQ(a.stats.ww_restarts, b.stats.ww_restarts);
  EXPECT_EQ(a.stats.failpoint_trips, b.stats.failpoint_trips);
  EXPECT_EQ(a.stats.exclusive_repairs, b.stats.exclusive_repairs);
  EXPECT_EQ(a.balances, b.balances);
  if (fp::kEnabled) {
    EXPECT_GT(a.stats.failpoint_trips, 0u);
    // And a different seed produces a different schedule.
    const ChaosOutcome c = RunBankingChaos(43, /*n_txns=*/500, /*window=*/8);
    EXPECT_NE(a.schedule_hash, c.schedule_hash);
  }
  fp::Reset(0);
}

// Trading under chaos: the multi-table workload (trade orders vs price
// updates, range scans, inserts) must keep terminating and stay internally
// consistent; every transaction reaches a terminal outcome and the GC
// backlog drains.
TEST(ChaosSerializabilityTest, TradingChaosRunRemainsConsistent) {
  fp::Reset(/*seed=*/9);
  constexpr uint64_t kTxns = 1000;
  {
    TransactionManager mgr;
    trading::TradingDb db(&mgr, /*securities=*/256, /*customers=*/128);
    db.Load();
    trading::TradingGenerator gen(db, /*alpha=*/1.4,
                                  /*trade_order_percent=*/50, /*seed=*/9);
    std::vector<trading::TradingGenerator::Txn> stream(kTxns);
    for (auto& t : stream) t = gen.Next();
    ArmChaosSchedule();  // after the load phase, as in RunBankingChaos
    WindowDriver<Mv3cExecutor> driver(
        8,
        [&](...) { return std::make_unique<Mv3cExecutor>(&mgr, ChaosConfig()); },
        [&] { mgr.CollectGarbage(); });
    const DriveResult r = driver.Run(CountedSource<Mv3cExecutor::Program>(
        kTxns, [&](uint64_t i) -> Mv3cExecutor::Program {
          const auto& txn = stream[i];
          return txn.is_trade_order
                     ? trading::TradeOrder<Mv3cExecutor>(db, txn.order)
                     : trading::PriceUpdate<Mv3cExecutor>(db, txn.price);
        }));
    fp::DisarmAll();
    EXPECT_EQ(r.committed + r.user_aborted + r.exhausted, kTxns);
    EXPECT_GT(r.committed, 0u);
    Mv3cStats stats;
    for (Mv3cExecutor* e : driver.executors()) stats.Add(e->stats());
    EXPECT_LE(stats.max_rounds, ChaosConfig().retry.max_attempts);
    if (fp::kEnabled) {
      EXPECT_GT(stats.failpoint_trips, 0u);
    }
    mgr.CollectGarbage();
    mgr.gc().CollectAll();
    EXPECT_EQ(mgr.gc().PendingCount(), 0u);
    mgr.arena().DrainDeferred();
    EXPECT_EQ(mgr.arena().snapshot().deferred_slabs, 0u);
  }
  fp::Reset(0);
}

// Real threads under chaos (the TSan target in CI): four workers hammer a
// tiny banking database while failpoints fire concurrently. Commit
// timestamps are not captured per transaction here; money conservation is
// the serializability witness (any lost/duplicated write breaks it).
TEST(ChaosSerializabilityTest, ThreadedChaosConservesMoney) {
  fp::Reset(/*seed=*/17);
  constexpr uint64_t kTxns = 4000;
  {
    TransactionManager mgr;
    BankingDb db(&mgr, kAccounts, kInitial);
    db.Load();
    const auto stream = MakeStream(kTxns, /*seed=*/23);
    ArmChaosSchedule();  // after the load phase, as in RunBankingChaos
    const DriveResult r = ThreadDriver<Mv3cExecutor>::Run(
        4, kTxns,
        [&](size_t) { return std::make_unique<Mv3cExecutor>(&mgr, ChaosConfig()); },
        [&](uint64_t i, size_t) {
          return banking::Mv3cTransferMoney(db, stream[i]);
        },
        [&] { mgr.CollectGarbage(); });
    fp::DisarmAll();
    EXPECT_EQ(r.committed + r.user_aborted + r.exhausted, kTxns);
    EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
    mgr.CollectGarbage();
    mgr.gc().CollectAll();
    EXPECT_EQ(mgr.gc().PendingCount(), 0u);
    mgr.arena().DrainDeferred();
    EXPECT_EQ(mgr.arena().snapshot().deferred_slabs, 0u);
  }
  fp::Reset(0);
}

// A commit links its record into the recently-committed list before it
// stores the high-water mark. A transaction whose lock-free pre-validation
// reads that record and whose Retimestamp then draws hwm + 1 (not above
// the record's commit) repairs against the row as it was before that
// commit, so its in-lock revalidation must not skip the record. The
// kCommitPublish delay holds every commit inside that window while three
// threads pay fees into one account: each committed fee must reach it.
// Each worker pauses between transactions, outside the commit lock: the
// spin lock otherwise goes straight back to the thread that released it,
// and the other workers rarely pre-validate inside the window.
TEST(ChaosSerializabilityTest, PublishDelayLosesNoFeeCredit) {
  fp::Reset(/*seed=*/29);
  constexpr int kThreads = 3;
  constexpr int kTxnsPerThread = 2500;
  // Many accounts: the fee row is the only hot one, as in perfbench's
  // banking-hot, so transactions stay on the lock-free repair path instead
  // of escalating to the in-lock (§4.3) repair.
  constexpr int64_t kHotAccounts = 10000;
  {
    TransactionManager mgr;
    BankingDb db(&mgr, kHotAccounts, kInitial);
    db.Load();
    fp::Config delay;
    delay.action = fp::Action::kDelay;
    delay.delay_us = 20;
    fp::Arm(fp::Site::kCommitPublish, delay);
    std::vector<int64_t> fees(kThreads, 0);
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&, w] {
        Mv3cExecutor e(&mgr, ChaosConfig());
        banking::TransferGenerator gen(kHotAccounts, /*fee_percent=*/100,
                                       /*seed=*/31 + w);
        for (int i = 0; i < kTxnsPerThread; ++i) {
          const TransferParams p = gen.Next();
          if (e.Run(banking::Mv3cTransferMoney(db, p)) ==
              StepResult::kCommitted) {
            fees[w] += banking::FeeOf(p);
          }
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(100);
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
    fp::DisarmAll();
    int64_t committed_fees = 0;
    for (int64_t f : fees) committed_fees += f;
    EXPECT_GT(committed_fees, 0);
    EXPECT_EQ(db.BalanceOf(BankingDb::kFeeAccount), committed_fees);
    EXPECT_EQ(db.TotalBalance(), kHotAccounts * kInitial);
    if (fp::kEnabled) {
      EXPECT_GT(fp::Trips(fp::Site::kCommitPublish), 0u);
    }
  }
  fp::Reset(0);
}

// ISSUE 2 satellite: a seeded run with the gc-reclaim failpoint armed HOT
// (every reclaim attempt fires) exercises slab retirement under a collector
// that lags on every pass. Slab retirements fired during the run park on
// the deferred list; once injection stops, CollectGarbage (which drains the
// arena) plus CollectAll must leave zero deferred slabs — and money must
// still be conserved.
TEST(ChaosSerializabilityTest, SlabRetirementChaosDrainsDeferred) {
  fp::Reset(/*seed=*/7);
  constexpr uint64_t kTxns = 4000;
  {
    TransactionManager mgr;
    BankingDb db(&mgr, kAccounts, kInitial);
    db.Load();
    const auto stream = MakeStream(kTxns, /*seed=*/99);
    fp::Config cfg;
    cfg.probability = 0.5;  // reclaim passes still happen; retirements of
                            // drained slabs randomly defer
    fp::Arm(fp::Site::kGcReclaim, cfg);
    WindowDriver<Mv3cExecutor> driver(
        8,
        [&](...) { return std::make_unique<Mv3cExecutor>(&mgr, ChaosConfig()); },
        [&] { mgr.CollectGarbage(); });
    const DriveResult r = driver.Run(CountedSource<Mv3cExecutor::Program>(
        kTxns,
        [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); }));
    fp::DisarmAll();
    EXPECT_EQ(r.committed + r.user_aborted + r.exhausted, kTxns);
    EXPECT_EQ(db.TotalBalance(), kAccounts * kInitial);
    if (fp::kEnabled) {
      // The hot schedule must actually have parked slabs at some point.
      EXPECT_GT(mgr.arena().snapshot().retirements_deferred, 0u);
    }
    mgr.CollectGarbage();
    mgr.gc().CollectAll();
    EXPECT_EQ(mgr.gc().PendingCount(), 0u);
    mgr.arena().DrainDeferred();
    EXPECT_EQ(mgr.arena().snapshot().deferred_slabs, 0u);
  }
  fp::Reset(0);
}

}  // namespace
}  // namespace mv3c
