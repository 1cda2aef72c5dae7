// metrics_dump: runs a short in-process workload burst and dumps the
// engine's merged MetricsRegistry snapshot — the same data the serving
// front-end exposes at /metrics — in either Prometheus text exposition
// (--format=prom, via src/obs/prom_export) or the RUNJSON-style JSON the
// bench suite emits (--format=json). Exists so the exposition writer has
// a consumer outside the server and snapshots can be eyeballed or piped
// into promtool without standing up a network listener.
//
//   metrics_dump --workload=banking --engine=mv3c --txns=20000 --format=prom

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "obs/prom_export.h"
#include "server/protocol.h"
#include "server/workload_host.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c {
namespace {

using server::Op;

template <typename Params>
server::WorkloadHost::Result RunOne(server::WorkloadHost* host, Op op,
                                    const Params& p) {
  return host->Run(0, static_cast<uint16_t>(op),
                   reinterpret_cast<const uint8_t*>(&p), sizeof(p));
}

}  // namespace
}  // namespace mv3c

int main(int argc, char** argv) {
  using namespace mv3c;
  server::HostOptions hopts;
  hopts.workers = 1;
  uint64_t txns = 20000;
  uint64_t seed = 42;
  std::string format = "prom";
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (flags::Match(a, "--workload", &v)) {
      hopts.workload = v;
    } else if (flags::Match(a, "--engine", &v)) {
      hopts.engine = v;
    } else if (flags::Match(a, "--scale", &v)) {
      hopts.scale = flags::UintOrExit("--scale", v, 0, UINT64_MAX);
    } else if (flags::Match(a, "--txns", &v)) {
      txns = flags::UintOrExit("--txns", v, 0, UINT64_MAX);
    } else if (flags::Match(a, "--seed", &v)) {
      seed = flags::UintOrExit("--seed", v, 0, UINT64_MAX);
    } else if (flags::Match(a, "--format", &v)) {
      format = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workload=W] [--engine=E] [--scale=N]\n"
                   "  [--txns=N] [--seed=N] [--format=prom|json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (format != "prom" && format != "json") {
    std::fprintf(stderr, "--format must be prom or json\n");
    return 2;
  }

  auto host = server::MakeWorkloadHost(hopts);
  if (host == nullptr) return 1;

  uint64_t committed = 0;
  if (hopts.workload == "banking") {
    banking::TransferGenerator gen(
        hopts.scale != 0 ? static_cast<int64_t>(hopts.scale) : 100000, 10,
        seed);
    for (uint64_t i = 0; i < txns; ++i) {
      committed += RunOne(host.get(), Op::kBankingTransfer, gen.Next()).status ==
                   server::TxnStatus::kCommitted;
    }
  } else if (hopts.workload == "trading") {
    const uint64_t n = hopts.scale != 0 ? hopts.scale : 100000;
    trading::TradingGenerator gen(n, n, 0.8, 50, seed);
    for (uint64_t i = 0; i < txns; ++i) {
      const auto t = gen.Next();
      const auto r = t.is_trade_order
                         ? RunOne(host.get(), Op::kTradeOrder, t.order)
                         : RunOne(host.get(), Op::kPriceUpdate, t.price);
      committed += r.status == server::TxnStatus::kCommitted;
    }
  } else if (hopts.workload == "tatp") {
    tatp::TatpGenerator gen(hopts.scale != 0 ? hopts.scale : 100000, seed);
    for (uint64_t i = 0; i < txns; ++i) {
      committed += RunOne(host.get(), Op::kTatp, gen.Next()).status ==
                   server::TxnStatus::kCommitted;
    }
  } else if (hopts.workload == "tpcc") {
    tpcc::TpccGenerator gen(
        tpcc::TpccScale{.n_warehouses = hopts.scale != 0 ? hopts.scale : 1},
        seed);
    for (uint64_t i = 0; i < txns; ++i) {
      committed += RunOne(host.get(), Op::kTpcc, gen.Next()).status ==
                   server::TxnStatus::kCommitted;
    }
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", hopts.workload.c_str());
    return 2;
  }
  host->FlushWorkerMetrics(0);
  const obs::MetricsSnapshot snap = host->PublishedEngineMetrics();
  host->Shutdown();

  std::fprintf(stderr, "%llu/%llu committed (%s on %s)\n",
               static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(txns),
               hopts.workload.c_str(), hopts.engine.c_str());
  if (format == "prom") {
    obs::PromTextWriter w;
    obs::WriteSnapshot(&w, snap, "mv3c_engine",
                       {{"engine", hopts.engine}, {"workload", hopts.workload}});
    std::fputs(w.str().c_str(), stdout);
  } else {
    std::printf("{\"workload\":\"%s\",\"engine\":\"%s\",\"txns\":%llu,"
                "\"committed\":%llu,\"phases\":%s,\"counters\":%s}\n",
                hopts.workload.c_str(), hopts.engine.c_str(),
                static_cast<unsigned long long>(txns),
                static_cast<unsigned long long>(committed),
                snap.PhasesJson().c_str(), snap.CountersJson().c_str());
  }
  return 0;
}
