// Figure 7(a): Banking example, TransferMoney-only stream (every
// transaction conflicts on the central fee account), total execution time
// for a fixed transaction count as the concurrency level grows. The paper
// plots the widening time gap between MV3C and OMVCC (the paper runs 5M
// transactions over 1..10 worker threads; here the same fixed stream runs
// at increasing window sizes).

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  BankingSetup s;
  s.accounts = full ? 100000 : 10000;
  s.fee_percent = 100;
  s.n_txns = full ? 5000000 : 100000;

  std::printf("# Figure 7(a): Banking TransferMoney, %llu txns, time (s)\n",
              static_cast<unsigned long long>(s.n_txns));
  TablePrinter table({"concurrency", "mv3c_s", "omvcc_s", "mv3c_tps",
                      "omvcc_tps", "speedup"});
  for (size_t window : {1, 2, 4, 8, 16, 32}) {
    const RunResult m = RunBanking<Mv3cExecutor>(window, s);
    const RunResult o = RunBanking<OmvccExecutor>(window, s);
    table.Row({Fmt(static_cast<uint64_t>(window)), Fmt(m.seconds, 2),
               Fmt(o.seconds, 2), Fmt(m.Tps(), 0), Fmt(o.Tps(), 0),
               Fmt(m.Tps() / o.Tps(), 2)});
    EmitRunJson("fig7a", "mv3c", window, m);
    EmitRunJson("fig7a", "omvcc", window, o);
  }
  return 0;
}
