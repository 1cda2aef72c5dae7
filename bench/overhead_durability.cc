// Durability overhead (DESIGN §5f, EXPERIMENTS §durability): the same
// banking stream through MV3C in three regimes — no WAL, WAL with async
// ack (Silo-style group commit: commit returns immediately, durability
// trails by up to one epoch), and WAL with sync ack (commit blocks until
// its epoch is fsynced). Async measures the logging tax on the commit path
// (serialization + buffer handoff); sync measures the full group-commit
// latency as seen by a single-threaded submitter, which is epoch-interval
// bound by construction (one in-flight transaction cannot batch), so it
// runs a smaller stream and is reported as a latency regime, not a
// throughput comparison.

#include <filesystem>
#include <string>

#include "bench/runners.h"
#include "wal/catalog.h"
#include "wal/log_manager.h"
#include "workloads/wal_registry.h"

namespace mv3c::bench {
namespace {

namespace fs = std::filesystem;

/// RunBanking<Mv3cExecutor> with a WAL attached; `ack` selects the
/// commit-path regime. The log directory is wiped before each run so
/// segment sizes are comparable.
RunResult RunBankingMv3cWal(size_t window, const BankingSetup& s,
                            wal::WalConfig::Ack ack, const fs::path& dir,
                            uint32_t partitions = 1) {
  fs::remove_all(dir);
  TransactionManager mgr;
  wal::WalConfig cfg;
  cfg.dir = dir.string();
  cfg.ack = ack;
  cfg.partitions = partitions;  // pinned: env must not shift bench regimes
  mgr.EnableWal(cfg);
  banking::BankingDb db(&mgr, s.accounts, s.initial_balance);
  wal::Catalog cat;
  RegisterWalTables(cat, db);
  db.Load();
  banking::TransferGenerator gen(s.accounts, s.fee_percent, s.seed);
  std::vector<banking::TransferParams> stream(s.n_txns);
  for (auto& p : stream) p = gen.Next();
  RunResult r = Drive<Mv3cExecutor>(
      window, s.n_txns,
      [&](...) {
        return std::make_unique<Mv3cExecutor>(&mgr, DefaultMv3cConfig());
      },
      [&](uint64_t i) { return banking::Mv3cTransferMoney(db, stream[i]); },
      [&] { mgr.CollectGarbage(); });
  mgr.wal()->FlushNow();
  // Fold the writer thread's counters (wal_bytes, epochs_flushed,
  // group_commit_size, sync waits) and the log_serialize/log_flush phase
  // histograms into the run's snapshot.
  r.metrics.Merge(mgr.wal()->metrics().Snapshot());
  AttachArenaStats(&r, mgr);
  mgr.DisableWal();
  return r;
}

std::string MbOnDisk(const RunResult& r) {
  return Fmt(static_cast<double>(r.Counter("wal_bytes")) / (1024.0 * 1024.0),
             1);
}

std::string AvgGroupSize(const RunResult& r) {
  const uint64_t epochs = r.Counter("epochs_flushed");
  if (epochs == 0) return "0";
  return Fmt(static_cast<double>(r.Counter("wal_records")) /
                 static_cast<double>(epochs),
             1);
}

}  // namespace
}  // namespace mv3c::bench

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  const fs::path dir = fs::temp_directory_path() / "mv3c_overhead_wal";

  std::printf("# §5f: durability overhead (banking, window 10)\n");
  TablePrinter table({"regime", "tps", "vs_off_pct", "log_mb",
                      "recs_per_epoch"});

  BankingSetup s;
  s.accounts = full ? 100000 : 20000;
  s.fee_percent = 100;
  s.n_txns = full ? 1000000 : 150000;

  const RunResult off = RunBanking<Mv3cExecutor>(10, s);
  table.Row({"wal-off", Fmt(off.Tps(), 0), "0.00", "-", "-"});
  EmitRunJson("overhead_durability", "mv3c-wal-off", 10, off);

  const RunResult async_r =
      RunBankingMv3cWal(10, s, mv3c::wal::WalConfig::Ack::kAsync, dir);
  table.Row({"wal-async", Fmt(async_r.Tps(), 0),
             Fmt((off.Tps() / async_r.Tps() - 1.0) * 100.0, 2),
             MbOnDisk(async_r), AvgGroupSize(async_r)});
  EmitRunJson("overhead_durability", "mv3c-wal-async", 10, async_r);

  // Partitioned log, same async stream: a single submitter lands on one
  // stream (the others heartbeat), so this row is the partition-machinery
  // tax — the scaling win needs concurrent submitters (fig8 regimes).
  const RunResult async_p4 = RunBankingMv3cWal(
      10, s, mv3c::wal::WalConfig::Ack::kAsync, dir, /*partitions=*/4);
  table.Row({"wal-async-p4", Fmt(async_p4.Tps(), 0),
             Fmt((off.Tps() / async_p4.Tps() - 1.0) * 100.0, 2),
             MbOnDisk(async_p4), AvgGroupSize(async_p4)});
  EmitRunJson("overhead_durability", "mv3c-wal-async-p4", 10, async_p4);

  // Sync ack from a single-threaded submitter is epoch-interval bound:
  // the stream is smaller and the number is a latency statement.
  BankingSetup sync_s = s;
  sync_s.n_txns = full ? 50000 : 5000;
  const RunResult sync_r =
      RunBankingMv3cWal(10, sync_s, mv3c::wal::WalConfig::Ack::kSync, dir);
  table.Row({"wal-sync", Fmt(sync_r.Tps(), 0), "(latency-bound)",
             MbOnDisk(sync_r), AvgGroupSize(sync_r)});
  EmitRunJson("overhead_durability", "mv3c-wal-sync", 10, sync_r);

  fs::remove_all(dir);
  return 0;
}
