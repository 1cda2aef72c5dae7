// §6.2 time overhead: MV3C as a generic MVCC algorithm must cost nearly
// nothing when there are no conflicts. Two configurations, per the paper:
// serial execution (window 1) and concurrent conflict-free execution
// (window 10, NoFeeTransferMoney only / trading without contention). The
// paper reports <1% overhead for both; the overhead here is building the
// predicate graph (closures) instead of a flat predicate list.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);

  std::printf("# §6.2: MV3C overhead vs OMVCC in conflict-free execution\n");
  TablePrinter table({"scenario", "mv3c_tps", "omvcc_tps", "overhead_pct"});

  {
    BankingSetup s;
    s.accounts = full ? 100000 : 20000;
    s.fee_percent = 100;
    s.n_txns = full ? 2000000 : 150000;
    const RunResult m = RunBanking<Mv3cExecutor>(1, s);
    const RunResult o = RunBanking<OmvccExecutor>(1, s);
    table.Row({"banking-serial", Fmt(m.Tps(), 0), Fmt(o.Tps(), 0),
               Fmt((o.Tps() / m.Tps() - 1.0) * 100.0, 2)});
    EmitRunJson("overhead_time_banking_serial", "mv3c", 1, m);
    EmitRunJson("overhead_time_banking_serial", "omvcc", 1, o);
  }
  {
    BankingSetup s;
    s.accounts = full ? 100000 : 20000;
    s.fee_percent = 0;  // NoFeeTransferMoney: concurrent but conflict-free
    s.n_txns = full ? 2000000 : 150000;
    const RunResult m = RunBanking<Mv3cExecutor>(10, s);
    const RunResult o = RunBanking<OmvccExecutor>(10, s);
    table.Row({"banking-nocf-w10", Fmt(m.Tps(), 0), Fmt(o.Tps(), 0),
               Fmt((o.Tps() / m.Tps() - 1.0) * 100.0, 2)});
    EmitRunJson("overhead_time_banking_nocf", "mv3c", 10, m);
    EmitRunJson("overhead_time_banking_nocf", "omvcc", 10, o);
  }
  {
    TradingSetup s;
    s.securities = full ? 100000 : 20000;
    s.customers = full ? 100000 : 20000;
    s.alpha = 0.0;  // uniform security choice: negligible conflicts
    s.n_txns = full ? 500000 : 30000;
    const RunResult m = RunTrading<Mv3cExecutor>(1, s);
    const RunResult o = RunTrading<OmvccExecutor>(1, s);
    table.Row({"trading-serial", Fmt(m.Tps(), 0), Fmt(o.Tps(), 0),
               Fmt((o.Tps() / m.Tps() - 1.0) * 100.0, 2)});
    EmitRunJson("overhead_time_trading_serial", "mv3c", 1, m);
    EmitRunJson("overhead_time_trading_serial", "omvcc", 1, o);
  }
  return 0;
}
