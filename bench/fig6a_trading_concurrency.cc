// Figure 6(a): Trading benchmark throughput as the number of concurrent
// transactions grows (Zipf alpha = 1.4). The paper varies worker threads
// 1..10 on a 12-core box; following its own Appendix C methodology (and
// the 1-core evaluation host), concurrency is the window size here, with
// a wider sweep. Expected shape: MV3C and OMVCC tie at concurrency 1
// (<1% overhead), and MV3C pulls ahead as the contention level rises —
// repairs re-read one security instead of re-decrypting and re-running
// the whole TradeOrder, and PriceUpdate's blind write never conflicts.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TradingSetup s;
  s.securities = full ? 100000 : 10000;
  s.customers = full ? 100000 : 10000;
  s.alpha = 1.4;
  s.n_txns = full ? 1000000 : 30000;

  std::printf("# Figure 6(a): Trading, alpha=1.4, %llu txns, %llu securities\n",
              static_cast<unsigned long long>(s.n_txns),
              static_cast<unsigned long long>(s.securities));
  TablePrinter table({"concurrency", "mv3c_tps", "omvcc_tps", "speedup",
                      "mv3c_repairs", "omvcc_restarts"});
  for (size_t window : {1, 2, 4, 8, 16, 32}) {
    const RunResult m = RunTrading<Mv3cExecutor>(window, s);
    const RunResult o = RunTrading<OmvccExecutor>(window, s);
    table.Row({Fmt(static_cast<uint64_t>(window)), Fmt(m.Tps(), 0),
               Fmt(o.Tps(), 0), Fmt(m.Tps() / o.Tps(), 2),
               Fmt(m.Counter("repair_rounds")),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("fig6a", "mv3c", window, m);
    EmitRunJson("fig6a", "omvcc", window, o);
  }
  return 0;
}
