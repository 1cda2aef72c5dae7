#include "common/failpoint.h"

#include <chrono>
#include <thread>

#include "common/random.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"

namespace mv3c {
namespace failpoint {
namespace internal {

std::atomic<uint32_t> g_armed_mask{0};

namespace {

struct SiteState {
  Config config;
  uint64_t trips = 0;
  uint64_t evaluations = 0;
};

/// All mutable registry state lives behind one spin lock. Only armed sites
/// reach it, so the lock is never contended in a healthy (disarmed) run;
/// under injection the serialization is exactly what makes the fault
/// schedule a pure function of the seed on a single-threaded driver.
struct Registry {
  SpinLock lock;
  Xoshiro256 prng MV3C_GUARDED_BY(lock) = Xoshiro256(0);
  SiteState sites[kNumSites] MV3C_GUARDED_BY(lock);
  uint64_t schedule_hash MV3C_GUARDED_BY(lock) =
      0xCBF29CE484222325ULL;  // FNV-1a offset basis
  uint64_t total_trips MV3C_GUARDED_BY(lock) = 0;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

void SpinFor(uint32_t delay_us) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay_us);
  // Busy-wait: sleep granularity (ms on many kernels) would turn a
  // microsecond fault into a scheduling artifact.
  while (std::chrono::steady_clock::now() < until) {
  }
}

}  // namespace

bool EvaluateSlow(Site site) {
  Registry& reg = GetRegistry();
  Action action;
  uint32_t delay_us = 0;
  {
    SpinLockGuard g(reg.lock);
    // Re-check under the lock: the site may have disarmed concurrently.
    const uint32_t bit = 1u << static_cast<int>(site);
    if ((g_armed_mask.load(std::memory_order_relaxed) & bit) == 0) {
      return false;
    }
    SiteState& s = reg.sites[static_cast<int>(site)];
    ++s.evaluations;
    if (s.config.probability < 1.0 &&
        reg.prng.NextDouble() >= s.config.probability) {
      return false;
    }
    ++s.trips;
    ++reg.total_trips;
    // FNV-1a over (site, per-site trip index).
    reg.schedule_hash ^= static_cast<uint64_t>(site);
    reg.schedule_hash *= 0x100000001B3ULL;
    reg.schedule_hash ^= s.trips;
    reg.schedule_hash *= 0x100000001B3ULL;
    if (s.config.max_trips != 0 && s.trips >= s.config.max_trips) {
      g_armed_mask.fetch_and(~bit, std::memory_order_relaxed);
    }
    action = s.config.action;
    delay_us = s.config.delay_us;
  }
  switch (action) {
    case Action::kFail:
      return true;
    case Action::kDelay:
      SpinFor(delay_us);
      return false;
    case Action::kYield:
      std::this_thread::yield();
      return false;
  }
  return false;
}

}  // namespace internal

void Reset(uint64_t seed) {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  internal::g_armed_mask.store(0, std::memory_order_relaxed);
  reg.prng.Seed(seed);
  for (auto& s : reg.sites) s = internal::SiteState{};
  reg.schedule_hash = 0xCBF29CE484222325ULL;
  reg.total_trips = 0;
}

void Arm(Site site, const Config& config) {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  reg.sites[static_cast<int>(site)].config = config;
  internal::g_armed_mask.fetch_or(1u << static_cast<int>(site),
                                  std::memory_order_relaxed);
}

void Disarm(Site site) {
  internal::g_armed_mask.fetch_and(~(1u << static_cast<int>(site)),
                                   std::memory_order_relaxed);
}

void DisarmAll() {
  internal::g_armed_mask.store(0, std::memory_order_relaxed);
}

uint64_t Trips(Site site) {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  return reg.sites[static_cast<int>(site)].trips;
}

uint64_t TotalTrips() {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  return reg.total_trips;
}

uint64_t Evaluations(Site site) {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  return reg.sites[static_cast<int>(site)].evaluations;
}

uint64_t ScheduleHash() {
  internal::Registry& reg = internal::GetRegistry();
  SpinLockGuard g(reg.lock);
  return reg.schedule_hash;
}

const char* Name(Site site) {
  switch (site) {
    case Site::kVersionChainPush:
      return "version-chain-push";
    case Site::kPrevalidate:
      return "prevalidate";
    case Site::kCommitDelta:
      return "commit-delta-validation";
    case Site::kCommitExclusiveDelta:
      return "commit-exclusive-delta-validation";
    case Site::kRetimestamp:
      return "retimestamp";
    case Site::kGcReclaim:
      return "gc-reclaim";
    case Site::kCuckooInsert:
      return "cuckoo-insert";
    case Site::kSvCommitValidate:
      return "sv-commit-validate";
    case Site::kWalShortWrite:
      return "wal-short-write";
    case Site::kWalCrashAfterAppend:
      return "wal-crash-after-append";
    case Site::kWalFsyncFail:
      return "wal-fsync-fail";
    case Site::kCkptCrashMidSegment:
      return "ckpt-crash-mid-segment";
    case Site::kCkptCrashBeforeManifest:
      return "ckpt-crash-before-manifest";
    case Site::kCkptCrashAfterManifestBeforeTruncate:
      return "ckpt-crash-after-manifest-before-truncate";
    case Site::kCkptFsyncFail:
      return "ckpt-fsync-fail";
    case Site::kCommitPublish:
      return "commit-publish";
    case Site::kNumSites:
      break;
  }
  return "?";
}

}  // namespace failpoint
}  // namespace mv3c
