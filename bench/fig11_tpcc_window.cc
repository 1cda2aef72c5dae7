// Figure 11 (Appendix C.2): TPC-C with 1 warehouse over window sizes up
// to 64 (simulated concurrency frees the sweep from the core count). The
// paper reports ~2x MV3C over OMVCC at window 64, consistent in shape
// with the multi-threaded Figure 8(a).

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TpccSetup s;
  s.scale.n_warehouses = 1;
  if (!full) {
    s.scale.n_items = 10000;
    s.scale.n_customers_per_d = 1000;
    s.scale.preload_orders_per_d = 1000;
    s.scale.preload_new_orders_per_d = 300;
  }
  s.n_txns = full ? 500000 : 20000;

  std::printf("# Figure 11: TPC-C, 1 warehouse, windows to 64, %llu txns\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"window", "mv3c_tps", "omvcc_tps", "speedup",
                      "mv3c_repairs", "omvcc_fails"});
  for (size_t window : {1, 2, 4, 8, 16, 32, 64}) {
    const RunResult m = RunTpcc<Mv3cExecutor>(window, s);
    const RunResult o = RunTpcc<OmvccExecutor>(window, s);
    table.Row({Fmt(static_cast<uint64_t>(window)), Fmt(m.Tps(), 0),
               Fmt(o.Tps(), 0), Fmt(m.Tps() / o.Tps(), 2),
               Fmt(m.Counter("repair_rounds")),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("fig11", "mv3c", window, m);
    EmitRunJson("fig11", "omvcc", window, o);
  }
  return 0;
}
