// In-process workloads: banking-hot and tpcc-mix. Each drives the engines
// from the benchmark's own closed loop on real threads and audits every
// database against the independent ledgers.
//
// A run is made of rounds. Each round builds a fresh database, runs MV3C on
// it, audits it and releases it, then does the same for OMVCC on the same
// per-worker input streams. Short rounds bound the version memory a run can
// hold (TPC-C keeps most of what it allocates until its database is
// dropped) and give setup_s one sample per build. A first, unmeasured round
// warms the process up.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "ledger.h"
#include "mv3c/mv3c_executor.h"
#include "mvcc/transaction_manager.h"
#include "omvcc/omvcc_transaction.h"
#include "trace.h"
#include "workloads.h"
#include "workloads/banking.h"
#include "workloads/tpcc.h"

namespace perfbench {

int BenchThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 2u, 4u)) - 1;
}

namespace {

using mv3c::Mv3cExecutor;
using mv3c::OmvccExecutor;
using mv3c::StepResult;
using mv3c::TransactionManager;

/// §4.3 exclusive repair after three failed rounds: the default of the
/// repository's benches and of the server.
constexpr int kExclusiveRepairAfter = 3;
/// Maintenance cadence of ThreadDriver and the server: worker 0 runs it
/// every 1024 of its own completions.
constexpr uint64_t kMaintenanceEvery = 1024;
/// A transaction that ends kExhausted is resubmitted; it counts as failed
/// only if it has not committed this long after the run's deadline.
constexpr uint64_t kGraceNs = 5'000'000'000ULL;

template <typename Exec>
std::unique_ptr<Exec> MakeExec(TransactionManager* mgr) {
  if constexpr (std::is_same_v<Exec, Mv3cExecutor>) {
    mv3c::Mv3cConfig cfg;
    cfg.exclusive_repair_after = kExclusiveRepairAfter;
    return std::make_unique<Exec>(mgr, cfg);
  } else {
    return std::make_unique<Exec>(mgr);
  }
}

/// Counts, latencies and engine metrics of one engine, summed over rounds.
struct EngineRun {
  double seconds = 0;
  uint64_t attempted = 0, committed = 0, user_aborted = 0, failed = 0;
  uint64_t exhausted = 0, steps = 0, gc_ns = 0;
  LogHist latency;
  mv3c::obs::MetricsSnapshot exec_metrics;
  mv3c::obs::MetricsSnapshot mgr_metrics;
  uint64_t arena_bytes_bumped = 0;
  uint64_t arena_peak_held = 0;
  Tracer totals{false, 0, 0};
  std::vector<Tracer> tracers;  // kept spans, first round only
  // Per-round figures: the run reports their medians, so a stretch of
  // interference from outside the process moves a few rounds, not the run.
  std::vector<double> round_tps, round_p50_us, round_p99_us;

  void Absorb(EngineRun&& o) {
    round_tps.push_back(o.Tps());
    round_p50_us.push_back(o.latency.Percentile(0.50) / 1e3);
    round_p99_us.push_back(o.latency.Percentile(0.99) / 1e3);
    seconds += o.seconds;
    attempted += o.attempted;
    committed += o.committed;
    user_aborted += o.user_aborted;
    failed += o.failed;
    exhausted += o.exhausted;
    steps += o.steps;
    gc_ns += o.gc_ns;
    latency.Merge(o.latency);
    exec_metrics.Merge(o.exec_metrics);
    mgr_metrics.Merge(o.mgr_metrics);
    arena_bytes_bumped += o.arena_bytes_bumped;
    arena_peak_held = std::max(arena_peak_held, o.arena_peak_held);
    totals.MergeTotals(o.totals);
    if (tracers.empty()) tracers = std::move(o.tracers);
  }
  double Tps() const { return static_cast<double>(committed) / seconds; }
};

/// The closed loop: `threads` workers, each with its own executor and input
/// stream, submit transactions back to back for `seconds`. Latency runs
/// from a transaction's first submission to its commit, across
/// resubmissions after kExhausted. Worker 0 runs CollectGarbage and then
/// `extra` maintenance on the ThreadDriver cadence.
template <typename Exec, typename Ledger, typename MakeGen, typename MakeProg,
          typename Extra>
EngineRun RunClosedLoop(TransactionManager* mgr, int threads, double seconds,
                        bool trace, Ledger* ledger, MakeGen make_gen,
                        MakeProg make_prog, Extra extra) {
  struct Worker {
    std::unique_ptr<Exec> exec;
    Tracer tracer;
    LogHist latency;
    Ledger ledger;
    uint64_t attempted = 0, committed = 0, user_aborted = 0, failed = 0;
    uint64_t exhausted = 0, steps = 0, gc_ns = 0;
    Worker(TransactionManager* m, bool on, uint32_t tid, const Ledger& l)
        : exec(MakeExec<Exec>(m)), tracer(on, tid), ledger(l) {}
  };
  std::vector<std::unique_ptr<Worker>> ws;
  for (int w = 0; w < threads; ++w) {
    ws.push_back(std::make_unique<Worker>(mgr, trace,
                                          static_cast<uint32_t>(w), *ledger));
  }
  std::atomic<bool> go{false};
  std::atomic<uint64_t> deadline{0};

  auto body = [&](int w) {
    Worker& me = *ws[static_cast<size_t>(w)];
    auto gen = make_gen(w);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const uint64_t end = deadline.load(std::memory_order_relaxed);
    uint64_t since_maintenance = 0;
    while (NowNs() < end) {
      const auto params = gen.Next();
      ++me.attempted;
      const uint64_t first = NowNs();
      const uint64_t sid = trace ? me.tracer.NewId() : 0;
      uint64_t child_ns = 0;
      while (true) {
        me.exec->Reset(make_prog(params));
        if (trace) {
          const uint64_t t0 = NowNs();
          me.exec->Begin();
          const uint64_t t1 = NowNs();
          me.tracer.Add(Layer::kBegin, me.tracer.NewId(), sid, t0, t1);
          child_ns += t1 - t0;
        } else {
          me.exec->Begin();
        }
        StepResult r;
        do {
          ++me.steps;
          if (trace) {
            const uint64_t t0 = NowNs();
            r = me.exec->Step();
            const uint64_t t1 = NowNs();
            me.tracer.Add(Layer::kStep, me.tracer.NewId(), sid, t0, t1);
            child_ns += t1 - t0;
          } else {
            r = me.exec->Step();
          }
        } while (r == StepResult::kNeedsRetry);
        if (r == StepResult::kCommitted) {
          me.latency.Record(NowNs() - first);
          me.ledger.Commit(params);
          ++me.committed;
          break;
        }
        if (r == StepResult::kUserAborted) {
          ++me.user_aborted;
          break;
        }
        ++me.exhausted;
        if (NowNs() > end + kGraceNs) {
          ++me.failed;
          break;
        }
      }
      if (trace) {
        me.tracer.Add(Layer::kSubmit, sid, 0, first, NowNs(), child_ns);
      }
      if (w == 0 && ++since_maintenance >= kMaintenanceEvery) {
        since_maintenance = 0;
        const uint64_t t0 = NowNs();
        mgr->CollectGarbage();
        const uint64_t t1 = NowNs();
        extra();
        const uint64_t t2 = NowNs();
        me.gc_ns += t1 - t0;
        if (trace) {
          me.tracer.Add(Layer::kMaintenance, me.tracer.NewId(), 0, t0, t2);
        }
      }
    }
  };

  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) pool.emplace_back(body, w);
  const uint64_t t0 = NowNs();
  deadline.store(t0 + static_cast<uint64_t>(seconds * 1e9),
                 std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  const uint64_t t1 = NowNs();

  EngineRun out;
  out.seconds = static_cast<double>(t1 - t0) / 1e9;
  for (auto& w : ws) {
    out.attempted += w->attempted;
    out.committed += w->committed;
    out.user_aborted += w->user_aborted;
    out.failed += w->failed;
    out.exhausted += w->exhausted;
    out.steps += w->steps;
    out.gc_ns += w->gc_ns;
    out.latency.Merge(w->latency);
    ledger->Add(w->ledger);
    out.exec_metrics.Merge(w->exec->metrics().Snapshot());
    out.totals.MergeTotals(w->tracer);
    if (trace) out.tracers.push_back(std::move(w->tracer));
  }
  out.mgr_metrics = mgr->metrics().Snapshot();
  const auto arena = mgr->arena().snapshot();
  out.arena_bytes_bumped = arena.bytes_bumped;
  out.arena_peak_held = arena.peak_held_bytes;
  return out;
}

uint64_t StreamSeed(uint64_t seed, int round, int worker) {
  return (seed * 0x9E3779B97F4A7C15ULL) ^
         (static_cast<uint64_t>(round) << 32) ^
         (static_cast<uint64_t>(worker) + 1);
}

/// Checks one engine round: the outcome identity and the ledger audit.
/// On MV3C a committed unit effect the ledger cannot find (or a non-unit
/// row that disagrees) is the known `mv3c-lost-update` fault: it is
/// counted and reported, not fatal. Every other discrepancy fails the run.
uint64_t CheckRound(Report* rep, bool is_mv3c, const EngineRun& run,
                    const Audit& a) {
  const char* tag = is_mv3c ? "mv3c" : "omvcc";
  if (run.attempted != run.committed + run.user_aborted + run.failed) {
    rep->Fail(std::string(tag) + ": attempted " +
              std::to_string(run.attempted) +
              " != committed + user-aborted + failed");
  }
  if (a.clean()) return 0;
  if (!is_mv3c || a.doubled != 0) {
    rep->Fail(std::string(tag) + " ledger mismatch: " + a.Summary());
    return 0;
  }
  const uint64_t lost = a.lost + a.rows_off;
  std::fprintf(stderr, "mv3c-lost-update: %llu committed effects missing (%s)\n",
               static_cast<unsigned long long>(lost), a.Summary().c_str());
  return lost;
}

double PhaseP50(const mv3c::obs::MetricsSnapshot& m, mv3c::obs::Phase p) {
  return PhaseUs(m.phase(p), 0.5);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

void InprocMetrics(Report* rep, const EngineRun& m3, const EngineRun& om,
                   const std::vector<double>& setup, uint64_t lost) {
  using mv3c::obs::Phase;
  rep->E2e("setup_s", Median(setup), "s");
  rep->E2e("commit_tps", Median(m3.round_tps), "txn/s");
  rep->E2e("txn_p50_us", Median(m3.round_p50_us), "us");
  rep->E2e("txn_p99_us", Median(m3.round_p99_us), "us");
  rep->E2e("omvcc_commit_tps", Median(om.round_tps), "txn/s");
  rep->E2e("peak_rss_mib", ProcStatusKib("self", "VmHWM") / 1024, "MiB");

  const auto& em = m3.exec_metrics;
  rep->Layer("mv3c.execute_us_p50", PhaseP50(em, Phase::kExecute), "us");
  rep->Layer("mv3c.validate_us_p50", PhaseP50(em, Phase::kValidate), "us");
  rep->Layer("mv3c.repair_us_p50", PhaseP50(em, Phase::kRepair), "us");
  rep->Layer("mv3c.commit_us_p50", PhaseP50(em, Phase::kCommit), "us");
  rep->Layer("mv3c.rounds_per_commit", Ratio(m3.steps, m3.committed), "count");
  rep->Layer("mv3c.reexecuted_closures_per_repair",
             Ratio(em.Value("reexecuted_closures"), em.Value("repair_rounds")),
             "count");
  rep->Layer("mv3c.exhausted", static_cast<double>(m3.exhausted), "count");
  rep->Layer("mv3c.lost_updates", static_cast<double>(lost), "count");
  const auto& oe = om.exec_metrics;
  rep->Layer("omvcc.restarts_per_commit",
             Ratio(oe.Value("ww_restarts") + oe.Value("validation_failures"),
                   om.committed),
             "count");
  rep->Layer("omvcc.execute_us_p50", PhaseP50(oe, Phase::kExecute), "us");
  rep->Layer("mvcc.begin_ns_p50",
             m3.totals.totals(Layer::kBegin).dur.Percentile(0.5), "ns");
  rep->Layer("mvcc.begin_lock_fallbacks",
             static_cast<double>(m3.mgr_metrics.Value("begin_lock_fallbacks")),
             "count");
  rep->Layer("mvcc.gc_ms", static_cast<double>(m3.gc_ns) / 1e6, "ms");
  rep->Layer("mvcc.gc_nodes_freed",
             static_cast<double>(m3.mgr_metrics.Value("gc_nodes_freed")),
             "count");
  rep->Layer("mvcc.arena_peak_mib",
             static_cast<double>(m3.arena_peak_held) / (1 << 20), "MiB");
  rep->Layer("mvcc.arena_bytes_per_commit",
             Ratio(m3.arena_bytes_bumped, m3.committed), "B");
  for (Layer l :
       {Layer::kSubmit, Layer::kBegin, Layer::kStep, Layer::kMaintenance}) {
    rep->Layer(std::string("self.") + LayerName(l) + "_ms",
               static_cast<double>(m3.totals.totals(l).self_ns) / 1e6, "ms");
  }
  rep->Layer("traced.commit_tps", Median(m3.round_tps), "txn/s");
}

void WriteTraceFile(const Args& args, const EngineRun& run) {
  std::vector<const Tracer*> ts;
  for (const Tracer& t : run.tracers) ts.push_back(&t);
  const std::string path = args.out_dir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  if (WriteTrace(path, ts)) {
    std::fprintf(stderr, "trace: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

/// The round structure shared by both in-process workloads. `W` supplies
/// the database (`World`), its build, one engine's closed loop over it and
/// the audit.
template <typename W>
Report RunRounds(const Args& args, double round_seconds) {
  Report rep;
  const int threads = args.threads > 0 ? args.threads : BenchThreads();
  const int rounds =
      std::max(1, static_cast<int>(std::lround(args.seconds / 2 /
                                               round_seconds)));
  const double per_round = args.seconds / 2 / rounds;
  EngineRun m3, om;
  std::vector<double> setup;
  uint64_t lost = 0, warm_attempted = 0, warm_failed = 0;
  const CpuTicks ticks0 = ReadCpuTicks();
  // Round 0 warms the process up (first-touch page faults, allocator
  // pools): it runs and is audited like every round but is not measured.
  for (int r = 0; r <= rounds; ++r) {
    for (const bool is_mv3c : {true, false}) {
      const uint64_t t0 = NowNs();
      auto world = W::Build(args.seed, threads);
      setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      typename W::Ledger ledger = W::EmptyLedger(*world);
      EngineRun run =
          is_mv3c ? W::template Run<Mv3cExecutor>(*world, args, r, threads,
                                                  per_round, &ledger)
                  : W::template Run<OmvccExecutor>(*world, args, r, threads,
                                                   per_round, &ledger);
      std::fprintf(stderr, "round %d%s %s: %.0f txn/s\n", r,
                   r == 0 ? " (warm-up)" : "", is_mv3c ? "mv3c" : "omvcc",
                   run.Tps());
      lost += CheckRound(&rep, is_mv3c, run, W::Audit(*world, ledger));
      W::ExtraChecks(&rep, is_mv3c, *world);
      if (r == 0) {
        warm_attempted += run.attempted;
        warm_failed += run.failed;
      } else {
        (is_mv3c ? m3 : om).Absorb(std::move(run));
      }
    }
  }
  rep.attempted = warm_attempted + m3.attempted + om.attempted;
  rep.failed = warm_failed + m3.failed + om.failed;
  InprocMetrics(&rep, m3, om, setup, lost);
  rep.Layer("host.cpu_steal_pct", StealPct(ticks0, ReadCpuTicks()), "%");
  if (args.trace) WriteTraceFile(args, m3);
  return rep;
}

// ---------------------------------------------------------------------------
// banking-hot
// ---------------------------------------------------------------------------

constexpr int64_t kHotAccounts = 10000;
/// Large enough that no transfer of a run can overdraw an account, so no
/// transaction user-aborts and every attempt either commits or fails.
constexpr int64_t kHotInitialBalance = 1'000'000'000;

/// Fee-paying transfers between distinct uniform customer accounts. The
/// amount stays below 100 cents, so every fee is exactly one cent and the
/// fee account's ledger counts lost effects exactly.
class HotTransfers {
 public:
  explicit HotTransfers(uint64_t seed) : rng_(seed) {}
  mv3c::banking::TransferParams Next() {
    mv3c::banking::TransferParams p;
    p.from = 1 + static_cast<int64_t>(rng_.NextBounded(kHotAccounts));
    do {
      p.to = 1 + static_cast<int64_t>(rng_.NextBounded(kHotAccounts));
    } while (p.to == p.from);
    p.amount = 1 + static_cast<int64_t>(rng_.NextBounded(99));
    p.with_fee = true;
    return p;
  }

 private:
  mv3c::Xoshiro256 rng_;
};

struct BankingHot {
  struct World {
    TransactionManager mgr;
    mv3c::banking::BankingDb db{&mgr, kHotAccounts, kHotInitialBalance};
  };
  using Ledger = BankingLedger;

  static std::unique_ptr<World> Build(uint64_t, int) {
    auto w = std::make_unique<World>();
    w->db.Load();
    return w;
  }
  static Ledger EmptyLedger(const World&) { return Ledger(kHotAccounts); }

  template <typename Exec>
  static EngineRun Run(World& w, const Args& args, int round, int threads,
                       double seconds, Ledger* ledger) {
    return RunClosedLoop<Exec>(
        &w.mgr, threads, seconds, args.trace, ledger,
        [&](int t) { return HotTransfers(StreamSeed(args.seed, round, t)); },
        [&](const mv3c::banking::TransferParams& p) {
          if constexpr (std::is_same_v<Exec, Mv3cExecutor>) {
            return mv3c::banking::Mv3cTransferMoney(w.db, p);
          } else {
            return mv3c::banking::OmvccTransferMoney(w.db, p);
          }
        },
        [] {});
  }

  static perfbench::Audit Audit(World& w, const Ledger& ledger) {
    return ledger.Check(ReadBalances(w.db), kHotInitialBalance);
  }
  static void ExtraChecks(Report*, bool, World&) {}
};

// ---------------------------------------------------------------------------
// tpcc-mix
// ---------------------------------------------------------------------------

/// The standard mix against one home warehouse per worker, as a TPC-C
/// terminal bound to its warehouse: the generator draws for a
/// one-warehouse database and every warehouse id is moved to the home one,
/// so workers share only the read-only ITEM table.
class HomeTpcc {
 public:
  HomeTpcc(const mv3c::tpcc::TpccScale& scale, uint64_t home, uint64_t seed)
      : gen_(OneWarehouse(scale), seed), home_(home) {}
  mv3c::tpcc::TpccParams Next() {
    mv3c::tpcc::TpccParams p = gen_.Next();
    p.w_id = home_;
    p.c_w_id = home_;
    for (auto& it : p.items) {
      if (it.supply_w != 0) it.supply_w = home_;
    }
    return p;
  }

 private:
  static mv3c::tpcc::TpccScale OneWarehouse(mv3c::tpcc::TpccScale s) {
    s.n_warehouses = 1;
    return s;
  }
  mv3c::tpcc::TpccGenerator gen_;
  uint64_t home_;
};

struct TpccMix {
  /// A tenth of the spec's items and a third of its customers and
  /// preloaded orders, so a round's database builds in about a second. A
  /// district keeps 1000 customers: the loader gives the first 1000 the
  /// sequential last names, so every by-last-name selection the generator
  /// draws (name ids 0..999) finds its customer as at full scale.
  static mv3c::tpcc::TpccScale Scale(int threads) {
    mv3c::tpcc::TpccScale s;
    s.n_warehouses = static_cast<uint64_t>(threads);
    s.n_items = 10000;
    s.n_customers_per_d = 1000;
    s.preload_orders_per_d = 1000;
    s.preload_new_orders_per_d = 300;
    return s;
  }

  struct World {
    TransactionManager mgr;
    mv3c::tpcc::TpccDb db;
    explicit World(const mv3c::tpcc::TpccScale& s) : db(&mgr, s) {}
  };
  using Ledger = TpccLedger;

  static std::unique_ptr<World> Build(uint64_t seed, int threads) {
    auto w = std::make_unique<World>(Scale(threads));
    w->db.Load(seed);
    return w;
  }
  static Ledger EmptyLedger(const World& w) { return Ledger(w.db.scale()); }

  template <typename Exec>
  static EngineRun Run(World& w, const Args& args, int round, int threads,
                       double seconds, Ledger* ledger) {
    const mv3c::tpcc::TpccScale& s = w.db.scale();
    return RunClosedLoop<Exec>(
        &w.mgr, threads, seconds, args.trace, ledger,
        [&](int t) {
          return HomeTpcc(s, static_cast<uint64_t>(t) + 1,
                          StreamSeed(args.seed, round, t));
        },
        [&](const mv3c::tpcc::TpccParams& p) {
          if constexpr (std::is_same_v<Exec, Mv3cExecutor>) {
            return mv3c::tpcc::Mv3cTpccProgram(w.db, p);
          } else {
            return mv3c::tpcc::OmvccTpccProgram(w.db, p);
          }
        },
        [&w] { w.db.CleanupNewOrderQueue(); });
  }

  static perfbench::Audit Audit(World& w, const Ledger& ledger) {
    return ledger.Check(ReadTpccState(w.db));
  }

  /// TPC-C's own consistency conditions. On MV3C a failure is reported but
  /// left to the ledger audit to classify: W_YTD != sum(D_YTD) is also what
  /// a lost Payment effect looks like.
  static void ExtraChecks(Report* rep, bool is_mv3c, World& w) {
    std::string why;
    if (mv3c::tpcc::CheckConsistency(w.db, &why)) return;
    std::fprintf(stderr, "%s: tpcc::CheckConsistency: %s\n",
                 is_mv3c ? "mv3c" : "omvcc", why.c_str());
    if (!is_mv3c) rep->Fail("omvcc: tpcc::CheckConsistency: " + why);
  }
};

}  // namespace

/// Rounds of about 1 s per engine for banking-hot; 0.75 s for tpcc-mix,
/// which holds about 5 KiB of version memory per commit until its database
/// is dropped (a round peaks near 0.8 GiB at 3 threads).
Report RunBankingHot(const Args& args) {
  return RunRounds<BankingHot>(args, 1.0);
}

Report RunTpccMix(const Args& args) { return RunRounds<TpccMix>(args, 0.75); }

}  // namespace perfbench
