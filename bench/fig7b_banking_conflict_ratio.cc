// Figure 7(b): Banking example with 10 concurrent transactions as the
// percentage of conflicting transactions varies: the mix interpolates
// between NoFeeTransferMoney (0% — disjoint accounts, no conflicts) and
// TransferMoney (100% — everyone updates the central fee account). At 0%
// the engines tie (MV3C's overhead is the price of building the predicate
// graph, <1%); the gap grows with the conflict share.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  BankingSetup s;
  s.accounts = full ? 100000 : 10000;
  s.n_txns = full ? 2000000 : 80000;

  std::printf("# Figure 7(b): Banking, 10 concurrent txns, %llu txns\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"conflict_pct", "mv3c_tps", "omvcc_tps", "speedup",
                      "mv3c_repairs", "omvcc_fails"});
  for (int pct : {0, 20, 40, 60, 80, 100}) {
    s.fee_percent = pct;
    const RunResult m = RunBanking<Mv3cExecutor>(10, s);
    const RunResult o = RunBanking<OmvccExecutor>(10, s);
    table.Row({Fmt(static_cast<uint64_t>(pct)), Fmt(m.Tps(), 0),
               Fmt(o.Tps(), 0), Fmt(m.Tps() / o.Tps(), 2),
               Fmt(m.Counter("repair_rounds")),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("fig7b", "mv3c", 10, m);
    EmitRunJson("fig7b", "omvcc", 10, o);
  }
  return 0;
}
