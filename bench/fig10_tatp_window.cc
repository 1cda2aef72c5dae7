// Figure 10 (Appendix C.1): TATP with non-uniform key distribution and
// attribute-level validation over increasing window sizes. With 80% of the
// mix read-only, small windows show no difference; at larger windows
// MV3C's acceptance of blind UPDATE_LOCATION writes (no conflicts among
// them) separates it from OMVCC, which prematurely aborts on every
// UPDATE_LOCATION collision.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  TatpSetup s;
  // Paper: scale factor 1 = 1M subscribers, 10M transactions.
  s.subscribers = full ? 1000000 : 50000;
  s.n_txns = full ? 10000000 : 200000;

  std::printf("# Figure 10: TATP, %llu subscribers, %llu txns\n",
              static_cast<unsigned long long>(s.subscribers),
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"window", "mv3c_tps", "omvcc_tps", "speedup",
                      "mv3c_conflicts", "omvcc_conflicts"});
  for (size_t window : {1, 2, 4, 8, 16, 32, 64}) {
    const RunResult m = RunTatp<Mv3cExecutor>(window, s);
    const RunResult o = RunTatp<OmvccExecutor>(window, s);
    table.Row({Fmt(static_cast<uint64_t>(window)), Fmt(m.Tps(), 0),
               Fmt(o.Tps(), 0), Fmt(m.Tps() / o.Tps(), 2),
               Fmt(m.Counter("repair_rounds") + m.Counter("ww_restarts")),
               Fmt(o.Counter("validation_failures") +
                   o.Counter("ww_restarts"))});
    EmitRunJson("fig10", "mv3c", window, m);
    EmitRunJson("fig10", "omvcc", window, o);
  }
  return 0;
}
