// Figure 6(b): Trading benchmark with 10 concurrent transactions as the
// Zipf alpha parameter of the security-id distribution varies. Larger
// alpha concentrates the accesses on fewer securities, raising the
// fraction of conflicting transactions; MV3C's advantage over OMVCC grows
// with it.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TradingSetup s;
  s.securities = full ? 100000 : 10000;
  s.customers = full ? 100000 : 10000;
  s.n_txns = full ? 500000 : 20000;

  std::printf("# Figure 6(b): Trading, 10 concurrent txns, %llu txns\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"alpha", "mv3c_tps", "omvcc_tps", "speedup",
                      "mv3c_repairs", "omvcc_restarts"});
  for (double alpha : {0.5, 0.8, 1.0, 1.2, 1.4, 1.6, 2.0}) {
    s.alpha = alpha;
    const RunResult m = RunTrading<Mv3cExecutor>(10, s);
    const RunResult o = RunTrading<OmvccExecutor>(10, s);
    table.Row({Fmt(alpha, 1), Fmt(m.Tps(), 0), Fmt(o.Tps(), 0),
               Fmt(m.Tps() / o.Tps(), 2), Fmt(m.Counter("repair_rounds")),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("fig6b", "mv3c", 10, m);
    EmitRunJson("fig6b", "omvcc", 10, o);
  }
  return 0;
}
