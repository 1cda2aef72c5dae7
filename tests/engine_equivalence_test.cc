// Cross-engine equivalence: every engine runs the same DSL program of
// every transaction, so one seeded serial stream (no concurrency, hence no
// conflicts, repairs or restarts) must leave every engine's database in
// the same state. Each workload runs once per engine on a fresh database,
// and every table's order-independent digest of its visible committed
// state (wal::DigestMvccTable, wal::DigestSvTable) must match. TPC-C runs
// on all four engines — MV3C and OMVCC on the MVCC storage, OCC and SILO
// on the single-version one — at two warehouses so remote supply items,
// and with them ORDER rows with all_local == false, occur.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
#include "wal/state_hash.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

struct Outcome {
  std::vector<std::pair<std::string, wal::TableDigest>> tables;
  uint64_t committed = 0;
  uint64_t user_aborted = 0;
};

/// Runs `program` to completion on `e` and tallies its outcome.
template <typename Exec>
void RunOne(Exec& e, typename Exec::Program program, Outcome* out) {
  const StepResult r = e.Run(std::move(program));
  if (r == StepResult::kCommitted) {
    ++out->committed;
  } else if (r == StepResult::kUserAborted) {
    ++out->user_aborted;
  } else {
    ADD_FAILURE() << "a serial transaction did not finish";
  }
}

template <typename TableT>
wal::TableDigest Digest(const TableT& table) {
  if constexpr (requires { table.ForEachRecord([](auto&&...) {}); }) {
    return wal::DigestSvTable(table);
  } else {
    return wal::DigestMvccTable(table);
  }
}

template <typename... Tables>
void DigestTables(Outcome* out, const Tables&... tables) {
  (out->tables.emplace_back(tables.name(), Digest(tables)), ...);
}

void ExpectSameState(const Outcome& mv3c, const Outcome& omvcc) {
  EXPECT_EQ(mv3c.committed, omvcc.committed);
  EXPECT_EQ(mv3c.user_aborted, omvcc.user_aborted);
  ASSERT_EQ(mv3c.tables.size(), omvcc.tables.size());
  for (size_t i = 0; i < mv3c.tables.size(); ++i) {
    EXPECT_EQ(mv3c.tables[i].second, omvcc.tables[i].second)
        << "table " << mv3c.tables[i].first;
  }
}

template <typename Exec>
Outcome Banking() {
  constexpr int64_t kAccounts = 200;
  TransactionManager mgr;
  banking::BankingDb db(&mgr, kAccounts, 10000);
  db.Load();
  banking::TransferGenerator gen(kAccounts, /*fee_fraction_percent=*/50, 11);
  Outcome out;
  Exec e(&mgr);
  for (int i = 0; i < 3000; ++i) {
    RunOne(e, banking::TransferMoney<Exec>(db, gen.Next()), &out);
    if (i % 1000 == 999) {
      RunOne(e, banking::Bonus<Exec>(db, 10000, false), &out);
    }
  }
  DigestTables(&out, db.accounts);
  return out;
}

template <typename Exec>
Outcome Trading() {
  TransactionManager mgr;
  trading::TradingDb db(&mgr, 1000, 1000);
  db.Load();
  trading::TradingGenerator gen(db, /*alpha=*/1.0, 50, 13);
  Outcome out;
  Exec e(&mgr);
  for (int i = 0; i < 3000; ++i) {
    const auto txn = gen.Next();
    RunOne(e,
           txn.is_trade_order ? trading::TradeOrder<Exec>(db, txn.order)
                              : trading::PriceUpdate<Exec>(db, txn.price),
           &out);
  }
  DigestTables(&out, db.securities, db.customers, db.trades, db.trade_lines);
  return out;
}

template <typename Exec>
Outcome Tatp() {
  constexpr uint64_t kSubscribers = 2000;
  TransactionManager mgr;
  tatp::TatpDb db(&mgr, kSubscribers);
  db.Load(5);
  tatp::TatpGenerator gen(kSubscribers, 17);
  Outcome out;
  Exec e(&mgr);
  for (int i = 0; i < 5000; ++i) {
    RunOne(e, tatp::TatpProgram<Exec>(db, gen.Next()), &out);
  }
  DigestTables(&out, db.subscribers, db.access_info, db.special_facilities,
               db.call_forwarding);
  return out;
}

tpcc::TpccScale TwoWarehouses() {
  tpcc::TpccScale s;
  s.n_warehouses = 2;
  s.n_districts = 4;
  s.n_customers_per_d = 100;
  s.n_items = 500;
  s.preload_orders_per_d = 100;
  s.preload_new_orders_per_d = 30;
  return s;
}

std::vector<tpcc::TpccParams> TpccStream() {
  tpcc::TpccGenerator gen(TwoWarehouses(), 19);
  std::vector<tpcc::TpccParams> stream(2000);
  for (auto& p : stream) p = gen.Next();
  return stream;
}

template <typename Exec, typename Db>
Outcome RunTpccStream(Exec& e, Db& db,
                      const std::vector<tpcc::TpccParams>& stream) {
  db.Load(3);
  Outcome out;
  for (const auto& p : stream) RunOne(e, tpcc::TpccProgram<Exec>(db, p), &out);
  DigestTables(&out, db.warehouses, db.districts, db.customers, db.history,
               db.orders, db.new_orders, db.order_lines, db.items, db.stock);
  return out;
}

template <typename Exec>
Outcome Tpcc(const std::vector<tpcc::TpccParams>& stream) {
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, TwoWarehouses());
  Exec e(&mgr);
  return RunTpccStream(e, db, stream);
}

template <typename Engine>
Outcome SvTpcc(const std::vector<tpcc::TpccParams>& stream) {
  tpcc::TpccSvDb db(TwoWarehouses());
  Engine engine;
  SvExecutor<Engine> e(&engine);
  return RunTpccStream(e, db, stream);
}

TEST(EngineEquivalenceTest, Banking) {
  const Outcome mv3c = Banking<Mv3cExecutor>();
  EXPECT_GT(mv3c.committed, 2000u);
  ExpectSameState(mv3c, Banking<OmvccExecutor>());
}

TEST(EngineEquivalenceTest, Trading) {
  const Outcome mv3c = Trading<Mv3cExecutor>();
  EXPECT_GT(mv3c.committed, 2000u);
  ExpectSameState(mv3c, Trading<OmvccExecutor>());
}

TEST(EngineEquivalenceTest, Tatp) {
  const Outcome mv3c = Tatp<Mv3cExecutor>();
  EXPECT_GT(mv3c.committed, 2500u);
  ExpectSameState(mv3c, Tatp<OmvccExecutor>());
}

TEST(EngineEquivalenceTest, TpccTwoWarehouses) {
  const auto stream = TpccStream();
  // The stream must contain a New-Order with a remote supply item, or the
  // ORDER table cannot tell whether all_local is computed.
  bool remote = false;
  for (const auto& p : stream) {
    if (p.type != tpcc::TpccTxnType::kNewOrder) continue;
    for (uint8_t i = 0; i < p.ol_cnt; ++i) {
      remote |= p.items[i].supply_w != p.w_id;
    }
  }
  ASSERT_TRUE(remote);
  const Outcome mv3c = Tpcc<Mv3cExecutor>(stream);
  EXPECT_GT(mv3c.committed, 1200u);
  ExpectSameState(mv3c, Tpcc<OmvccExecutor>(stream));
  ExpectSameState(mv3c, SvTpcc<OccEngine>(stream));
  ExpectSameState(mv3c, SvTpcc<SiloEngine>(stream));
}

}  // namespace
}  // namespace mv3c
