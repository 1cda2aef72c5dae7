#ifndef MV3C_BENCH_RUNNERS_H_
#define MV3C_BENCH_RUNNERS_H_

// Shared engine runners for the figure benchmarks: each builds a fresh
// database, replays a deterministic transaction stream through the window
// driver (the paper's Appendix C simulated-concurrency methodology; on the
// 1-core evaluation host this is also what the paper itself uses for the
// window figures) and reports throughput plus engine statistics.

#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench/bench_util.h"
#include "driver/window_driver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "occ/occ_engine.h"
#include "silo/silo_engine.h"
#include "sv/sv_executor.h"
#include "workloads/banking.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/trading.h"

namespace mv3c::bench {

/// All MV3C runs use the paper's §4.3 heuristic: after this many failed
/// validation rounds the repair executes inside the commit critical
/// section and the transaction is guaranteed to commit, bounding the
/// number of validation rounds a transaction can burn under extreme
/// contention ("a heuristic is to apply this optimization after N rounds
/// of validation failures").
inline constexpr int kExclusiveRepairAfter = 3;

inline Mv3cConfig DefaultMv3cConfig() {
  Mv3cConfig cfg;
  cfg.exclusive_repair_after = kExclusiveRepairAfter;
  return cfg;
}

struct RunResult {
  double seconds = 0;
  uint64_t committed = 0;
  uint64_t user_aborted = 0;
  uint64_t exhausted = 0;    // gave up after the retry budget
  uint64_t escalations = 0;  // failed rounds re-entering the window
  uint64_t max_rounds = 0;   // most rounds any one transaction took
  /// Merged engine/manager metrics: every native counter under its own
  /// name (repair_rounds, ww_restarts, validation_failures, backoff_us,
  /// ...) plus the per-phase latency histograms. The old RunResult fields
  /// that *remapped* counters (e.g. "conflict_rounds" meaning repairs for
  /// MV3C but validation failures for OMVCC) are gone: benches now ask for
  /// the counter they mean by its native name via Counter().
  obs::MetricsSnapshot metrics;
  // VersionArena counters (zero for SV engines):
  // allocator churn reported separately from protocol cost (ISSUE 2).
  uint64_t arena_slabs_created = 0;
  uint64_t arena_slabs_retired = 0;
  uint64_t arena_slabs_recycled = 0;
  uint64_t arena_bytes_bumped = 0;
  uint64_t arena_allocations = 0;
  uint64_t arena_peak_held_bytes = 0;  // peak RSS proxy for version memory
  uint64_t arena_retirements_deferred = 0;
  double Tps() const {
    return static_cast<double>(committed) / seconds;
  }
  /// Summed value of a native counter across all merged registries; zero
  /// if no engine in the run exposes it.
  uint64_t Counter(std::string_view name) const { return metrics.Value(name); }
};

/// Declared at the top of every bench main: arms the conflict tracer when
/// MV3C_TRACE=<path> is set and writes the Chrome trace_event JSON there at
/// exit (open in chrome://tracing or ui.perfetto.dev; scripts/README_tracing.md).
struct TraceSession {
  TraceSession() { obs::EnableTraceFromEnv(); }
  ~TraceSession() { obs::DumpTraceIfRequested(); }
};

/// Emits one machine-readable JSON line per run: identity (bench, engine,
/// window), throughput, and the merged observability data — per-phase
/// p50/p99/max latencies plus every native counter. Lines are prefixed
/// "RUNJSON " so scripts can grep them out of the human-readable tables.
inline void EmitRunJson(const char* bench, const char* engine, size_t window,
                        const RunResult& r) {
  std::printf(
      "RUNJSON {\"bench\":\"%s\",\"engine\":\"%s\",\"window\":%zu,"
      "\"seconds\":%.6f,\"committed\":%llu,\"tps\":%.1f,"
      "\"phases\":%s,\"counters\":%s}\n",
      bench, engine, window, r.seconds,
      static_cast<unsigned long long>(r.committed), r.Tps(),
      r.metrics.PhasesJson().c_str(), r.metrics.CountersJson().c_str());
  std::fflush(stdout);
}

/// Copies the manager's arena counters and merges its metrics (GC counters,
/// kGc/kArenaRetire histograms) into the run result; call after the stream
/// finishes and before the manager dies.
inline void AttachArenaStats(RunResult* out, TransactionManager& mgr) {
  out->metrics.Merge(mgr.metrics().Snapshot());
  const VersionArena::Stats s = mgr.arena().snapshot();
  out->arena_slabs_created = s.slabs_created;
  out->arena_slabs_retired = s.slabs_retired;
  out->arena_slabs_recycled = s.slabs_recycled;
  out->arena_bytes_bumped = s.bytes_bumped;
  out->arena_allocations = s.allocations;
  out->arena_peak_held_bytes = s.peak_held_bytes;
  out->arena_retirements_deferred = s.retirements_deferred;
}

template <typename Executor, typename MakeExec, typename MakeProgram>
RunResult Drive(size_t window, uint64_t n_txns, MakeExec&& make_exec,
                MakeProgram&& make_program,
                std::function<void()> maintenance) {
  WindowDriver<Executor> driver(window, make_exec, std::move(maintenance));
  const DriveResult r =
      driver.Run(CountedSource<typename Executor::Program>(
          n_txns, make_program));
  RunResult out;
  out.seconds = r.seconds;  // timed by the driver itself (excludes setup)
  out.committed = r.committed;
  out.user_aborted = r.user_aborted;
  out.exhausted = r.exhausted;
  out.escalations = r.escalations;
  out.max_rounds = r.max_rounds;
  // Generic aggregation: every executor registers its counters and phase
  // histograms on its MetricsRegistry, so one Merge per executor replaces
  // the old duck-typed field remapping.
  for (Executor* e : driver.executors()) {
    out.metrics.Merge(e->metrics().Snapshot());
  }
  return out;
}

/// Replays `n_txns` programs of one MVCC workload through the window
/// driver on either engine (Executor = Mv3cExecutor, with the §4.3
/// heuristic, or OmvccExecutor) and attaches the manager's arena
/// statistics.
template <typename Executor, typename MakeProgram>
RunResult DriveMvcc(size_t window, uint64_t n_txns, TransactionManager& mgr,
                    MakeProgram&& make_program,
                    std::function<void()> maintenance) {
  RunResult r = Drive<Executor>(
      window, n_txns,
      [&](...) {
        if constexpr (std::is_same_v<Executor, Mv3cExecutor>) {
          return std::make_unique<Executor>(&mgr, DefaultMv3cConfig());
        } else {
          return std::make_unique<Executor>(&mgr);
        }
      },
      make_program, std::move(maintenance));
  AttachArenaStats(&r, mgr);
  return r;
}

// --- Banking (Figures 7a, 7b; overhead) ---

struct BankingSetup {
  int64_t accounts = 10000;
  int64_t initial_balance = 1'000'000;
  int fee_percent = 100;  // % TransferMoney (rest NoFeeTransferMoney)
  uint64_t n_txns = 100000;
  uint64_t seed = 42;
};

template <typename Executor>
RunResult RunBanking(size_t window, const BankingSetup& s) {
  TransactionManager mgr;
  banking::BankingDb db(&mgr, s.accounts, s.initial_balance);
  db.Load();
  banking::TransferGenerator gen(s.accounts, s.fee_percent, s.seed);
  std::vector<banking::TransferParams> stream(s.n_txns);
  for (auto& p : stream) p = gen.Next();
  return DriveMvcc<Executor>(
      window, s.n_txns, mgr,
      [&](uint64_t i) {
        return banking::TransferMoney<Executor>(db, stream[i]);
      },
      [&] { mgr.CollectGarbage(); });
}

// --- Trading (Figures 6a, 6b) ---

struct TradingSetup {
  uint64_t securities = 100000;
  uint64_t customers = 100000;
  double alpha = 1.4;
  int trade_order_percent = 50;
  uint64_t n_txns = 100000;
  uint64_t seed = 42;
};

template <typename Executor>
RunResult RunTrading(size_t window, const TradingSetup& s) {
  TransactionManager mgr;
  trading::TradingDb db(&mgr, s.securities, s.customers);
  db.Load();
  trading::TradingGenerator gen(db, s.alpha, s.trade_order_percent, s.seed);
  std::vector<trading::TradingGenerator::Txn> stream(s.n_txns);
  for (auto& t : stream) t = gen.Next();
  return DriveMvcc<Executor>(
      window, s.n_txns, mgr,
      [&](uint64_t i) {
        const auto& txn = stream[i];
        return txn.is_trade_order
                   ? trading::TradeOrder<Executor>(db, txn.order)
                   : trading::PriceUpdate<Executor>(db, txn.price);
      },
      [&] { mgr.CollectGarbage(); });
}

// --- TPC-C (Figures 8a, 8b, 8c, 11) ---

struct TpccSetup {
  tpcc::TpccScale scale;
  uint64_t n_txns = 50000;
  uint64_t seed = 42;
};

inline std::vector<tpcc::TpccParams> TpccStream(const TpccSetup& s) {
  tpcc::TpccGenerator gen(s.scale, s.seed);
  std::vector<tpcc::TpccParams> stream(s.n_txns);
  for (auto& p : stream) p = gen.Next();
  return stream;
}

template <typename Executor>
RunResult RunTpcc(size_t window, const TpccSetup& s) {
  TransactionManager mgr;
  tpcc::TpccDb db(&mgr, s.scale);
  db.Load(s.seed);
  const auto stream = TpccStream(s);
  return DriveMvcc<Executor>(
      window, s.n_txns, mgr,
      [&](uint64_t i) { return tpcc::TpccProgram<Executor>(db, stream[i]); },
      [&] {
        mgr.CollectGarbage();
        db.CleanupNewOrderQueue();
      });
}

template <typename Engine>
RunResult RunTpccSv(size_t window, const TpccSetup& s) {
  tpcc::TpccSvDb db(s.scale);
  db.Load(s.seed);
  const auto stream = TpccStream(s);
  Engine engine;
  // SILO is per-worker in real deployments; with the single-threaded
  // window driver one engine instance is race-free for both.
  RunResult r = Drive<SvExecutor<Engine>>(
      window, s.n_txns,
      [&](...) { return std::make_unique<SvExecutor<Engine>>(&engine); },
      [&](uint64_t i) {
        return tpcc::TpccProgram<SvExecutor<Engine>>(db, stream[i]);
      },
      nullptr);
  // The engine (not the executor) owns the validation-phase histogram.
  r.metrics.Merge(engine.metrics().Snapshot());
  return r;
}

// --- TATP (Figure 10) ---

struct TatpSetup {
  uint64_t subscribers = 100000;
  uint64_t n_txns = 200000;
  uint64_t seed = 42;
};

template <typename Executor>
RunResult RunTatp(size_t window, const TatpSetup& s) {
  TransactionManager mgr;
  tatp::TatpDb db(&mgr, s.subscribers);
  db.Load(s.seed);
  tatp::TatpGenerator gen(s.subscribers, s.seed);
  std::vector<tatp::TatpParams> stream(s.n_txns);
  for (auto& p : stream) p = gen.Next();
  return DriveMvcc<Executor>(
      window, s.n_txns, mgr,
      [&](uint64_t i) { return tatp::TatpProgram<Executor>(db, stream[i]); },
      [&] { mgr.CollectGarbage(); });
}

}  // namespace mv3c::bench

#endif  // MV3C_BENCH_RUNNERS_H_
