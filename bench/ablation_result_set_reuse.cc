// Ablation (§4.2): result-set reuse for failed scan predicates. The Bonus
// program scans the whole Account table for balances above a threshold;
// concurrent TransferMoney commits invalidate the scan. With reuse, repair
// patches the cached result set by re-reading only the objects touched by
// the conflicting transactions; without it, the repair re-scans the table.

#include "bench/runners.h"

int main(int argc, char** argv) {
  using namespace mv3c;
  using namespace mv3c::bench;
  TraceSession trace;
  const bool full = FullRun(argc, argv);
  const int64_t accounts = full ? 200000 : 30000;
  const uint64_t n_rounds = full ? 200 : 40;

  std::printf("# Ablation: §4.2 result-set reuse (Bonus full scan over %lld "
              "accounts)\n",
              static_cast<long long>(accounts));
  TablePrinter table(
      {"reuse", "seconds", "bonus_commits", "repairs", "rs_fixes"});
  for (bool reuse : {true, false}) {
    TransactionManager mgr;
    banking::BankingDb db(&mgr, accounts, 400);
    db.Load();
    banking::TransferGenerator gen(accounts, 0, 7);
    Timer timer;
    uint64_t commits = 0;
    Mv3cStats stats;
    for (uint64_t round = 0; round < n_rounds; ++round) {
      // Start a Bonus scan, let a transfer commit mid-flight, then let the
      // Bonus repair and commit.
      Mv3cExecutor bonus(&mgr);
      bonus.Reset(banking::Bonus<Mv3cExecutor>(db, 300, reuse));
      bonus.Begin();
      Mv3cExecutor w(&mgr);
      w.MustRun(banking::Mv3cTransferMoney(db, gen.Next()));
      StepResult r;
      do {
        r = bonus.Step();
      } while (r == StepResult::kNeedsRetry);
      if (r == StepResult::kCommitted) ++commits;
      stats.Add(bonus.stats());
      mgr.CollectGarbage();
    }
    table.Row({reuse ? "on" : "off", Fmt(timer.Seconds(), 3), Fmt(commits),
               Fmt(stats.repair_rounds), Fmt(stats.result_set_fixes)});
  }
  return 0;
}
