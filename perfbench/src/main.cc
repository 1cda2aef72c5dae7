// perfbench: the repository benchmark's driver binary. run.py builds it and
// calls it as
//
//   perfbench --workload <banking-hot|tpcc-mix>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--threads <n>]   (worker threads; default one per core
//                                but one, at most three)
//
// The last line of standard output is the run's JSON result; everything
// else (progress, discrepancies, trace file paths) goes to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--threads N]\n"
               "  workloads: banking-hot tpcc-mix\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else if (flag == "--threads") {
      args.threads = std::atoi(v.c_str());
    } else {
      Usage();
    }
  }
  if (args.out_dir.empty() || !(args.seconds > 0) || args.threads < 0) {
    Usage();
  }

  perfbench::Report rep;
  if (args.workload == "banking-hot") {
    rep = perfbench::RunBankingHot(args);
  } else if (args.workload == "tpcc-mix") {
    rep = perfbench::RunTpccMix(args);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  for (const auto& m : rep.end_to_end) {
    std::fprintf(stderr, "  %-22s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const auto& m : rep.per_layer) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  std::printf("%s\n", rep.Json(args.trace).c_str());
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
