#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 0;      // worker threads; 0 = BenchThreads()
  std::string out_dir;  // where a traced run writes its trace
};

/// Default worker threads: one per core but one, at least one and at most
/// three. The spare core takes the harness, the kernel and the rest of the
/// box, so the box's own noise does not preempt a worker that holds the
/// commit lock. In interleaved runs on a 4-core box, three workers moved
/// banking-hot's commit_tps and omvcc_commit_tps from run to run by about
/// half to two thirds as much as four did.
int BenchThreads();

Report RunBankingHot(const Args& args);
Report RunTpccMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
