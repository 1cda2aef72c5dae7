// mv3c_serve: the single-binary serving front-end (DESIGN §5k). Hosts one
// workload on one engine behind the MV3S wire protocol + HTTP /metrics,
// and runs until SIGINT/SIGTERM.
//
//   mv3c_serve --workload=tpcc --engine=mv3c --port=7433 --workers=4
//              --wal --wal-dir=/tmp/serve-wal --ack=sync
//
// Prints "LISTENING port=<n>" once the socket is bound (port 0 picks an
// ephemeral port), which is what scripts/serve_smoke.sh and the CI
// integration job parse.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/flags.h"
#include "mvcc/transaction_manager.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload=banking|trading|tatp|tpcc   (default banking)\n"
      "  --engine=mv3c|omvcc                    (default mv3c)\n"
      "  --bind=ADDR          listen address (default 127.0.0.1)\n"
      "  --port=N             listen port; 0 = ephemeral (default 0)\n"
      "  --workers=N          engine worker threads, 1..1024 (default 4)\n"
      "  --scale=N            workload population knob (0 = default)\n"
      "  --queue-depth=N      admission queue bound (default 1024)\n"
      "  --batch=N            worker pop batch (default 16)\n"
      "  --client-rate=R      per-connection token rate/s (0 = unlimited)\n"
      "  --client-burst=B     per-connection token burst (default 64)\n"
      "  --round-cap=N        per-txn retry/repair round cap (default 64)\n"
      "  --service-delay-us=N deterministic per-request delay (tests)\n"
      "  --wal                enable the write-ahead log\n"
      "  --ack=sync|async     durability ack mode with --wal (default async)\n"
      "  --wal-dir=PATH       WAL directory (required with --wal)\n"
      "  --wal-partitions=N   per-core WAL streams (default 1)\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using mv3c::flags::DoubleOrExit;
  using mv3c::flags::Match;
  using mv3c::flags::UintOrExit;
  constexpr uint64_t kU32Max = UINT32_MAX;
  mv3c::server::ServerOptions opts;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (Match(a, "--workload", &v)) {
      opts.host.workload = v;
    } else if (Match(a, "--engine", &v)) {
      opts.host.engine = v;
    } else if (Match(a, "--bind", &v)) {
      opts.bind_addr = v;
    } else if (Match(a, "--port", &v)) {
      opts.port = static_cast<uint16_t>(UintOrExit("--port", v, 0, 65535));
    } else if (Match(a, "--workers", &v)) {
      opts.host.workers = UintOrExit(
          "--workers", v, 1, mv3c::TransactionManager::kMaxActive);
    } else if (Match(a, "--scale", &v)) {
      opts.host.scale = UintOrExit("--scale", v, 0, UINT64_MAX);
    } else if (Match(a, "--queue-depth", &v)) {
      opts.queue_depth = UintOrExit("--queue-depth", v, 1, kU32Max);
    } else if (Match(a, "--batch", &v)) {
      opts.batch = UintOrExit("--batch", v, 1, kU32Max);
    } else if (Match(a, "--client-rate", &v)) {
      opts.client_rate = DoubleOrExit("--client-rate", v, 0, 1e12);
    } else if (Match(a, "--client-burst", &v)) {
      opts.client_burst = DoubleOrExit("--client-burst", v, 0, 1e12);
    } else if (Match(a, "--round-cap", &v)) {
      opts.host.round_cap =
          static_cast<uint32_t>(UintOrExit("--round-cap", v, 1, kU32Max));
    } else if (Match(a, "--service-delay-us", &v)) {
      opts.host.service_delay_us = static_cast<uint32_t>(
          UintOrExit("--service-delay-us", v, 0, kU32Max));
    } else if (std::strcmp(a, "--wal") == 0) {
      opts.host.wal = true;
    } else if (Match(a, "--ack", &v)) {
      if (v == "sync") {
        opts.host.sync_ack = true;
      } else if (v == "async") {
        opts.host.sync_ack = false;
      } else {
        std::fprintf(stderr, "--ack must be sync or async\n");
        return 2;
      }
    } else if (Match(a, "--wal-dir", &v)) {
      opts.host.wal_dir = v;
    } else if (Match(a, "--wal-partitions", &v)) {
      // 0 = auto; the log caps streams at 64 (wal/log_manager.cc).
      opts.host.wal_partitions =
          static_cast<uint32_t>(UintOrExit("--wal-partitions", v, 0, 64));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      Usage(argv[0]);
    }
  }
  if (opts.host.wal && opts.host.wal_dir.empty()) {
    std::fprintf(stderr, "--wal requires --wal-dir\n");
    return 2;
  }

  std::fprintf(stderr, "loading %s (%s, %zu workers)...\n",
               opts.host.workload.c_str(), opts.host.engine.c_str(),
               opts.host.workers);
  mv3c::server::Server server(opts);
  if (!server.Start()) {
    std::fprintf(stderr, "start failed\n");
    return 1;
  }
  std::printf("LISTENING port=%u\n", server.port());
  std::fflush(stdout);

  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down...\n");
  server.Stop();

  const auto& s = server.stats();
  std::fprintf(stderr,
               "served: requests=%llu committed=%llu aborted=%llu "
               "exhausted=%llu shed_overload=%llu shed_rate=%llu "
               "proto_errors=%llu\n",
               static_cast<unsigned long long>(s.requests_received.load()),
               static_cast<unsigned long long>(s.txn_committed.load()),
               static_cast<unsigned long long>(s.txn_user_aborted.load()),
               static_cast<unsigned long long>(s.txn_exhausted.load()),
               static_cast<unsigned long long>(s.shed_overload.load()),
               static_cast<unsigned long long>(s.shed_rate_limited.load()),
               static_cast<unsigned long long>(s.protocol_errors.load()));
  return 0;
}
