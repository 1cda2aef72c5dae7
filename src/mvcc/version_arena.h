#ifndef MV3C_MVCC_VERSION_ARENA_H_
#define MV3C_MVCC_VERSION_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/macros.h"
#include "common/spinlock.h"
#include "common/thread_safety.h"

// ASan manual poisoning: freed arena ranges are poisoned so a double free
// (second destructor call) or a use-after-reclaim reports immediately under
// -DMV3C_SANITIZE=address, even though the memory is never returned to the
// system allocator until the whole slab recycles.
#if defined(__SANITIZE_ADDRESS__)
#define MV3C_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MV3C_ARENA_ASAN 1
#endif
#endif
#if defined(MV3C_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mv3c {

namespace obs {
class MetricsRegistry;
}

class VersionArena;

namespace arena_internal {

/// Slab geometry. Slabs are allocated aligned to their own size so that any
/// interior pointer recovers its slab header with one mask (Slab::Of) —
/// freeing needs neither a size nor an arena reference at the call site.
inline constexpr size_t kSlabBytes = 64 * 1024;
inline constexpr size_t kSlabHeaderBytes = 64;
inline constexpr size_t kAllocAlign = 16;
inline constexpr size_t kSlabPayloadBytes = kSlabBytes - kSlabHeaderBytes;

/// Slab header; the bump region follows at kSlabHeaderBytes.
///
/// Lifecycle: active (some thread's bump target) -> sealed (full; no new
/// allocations) -> retired (sealed and every object in it freed) ->
/// recycled onto the owner's bounded freelist, or released to the system.
/// `bump` is guarded by the owning thread-slot lock; `live`/`sealed` are
/// touched concurrently by whoever frees (GC, commit section, teardown).
///
/// `live` is a reference count, not a bare object count: while the slab is
/// a bump target it additionally holds one *creation reference* (taken in
/// TakeSlab, dropped by SealSlab through the same fetch_sub as object
/// frees). live therefore cannot reach zero before the seal, exactly one
/// thread ever observes the 1->0 transition, and retirement is
/// exactly-once by construction — no claim flag whose reset could race a
/// delayed retirer against recycling.
struct alignas(kSlabHeaderBytes) Slab {
  VersionArena* owner = nullptr;
  uint32_t capacity = 0;  // usable payload bytes
  uint32_t bump = 0;      // next free payload offset (slot-lock guarded)
  bool oversize = false;  // dedicated block for one over-large object
  std::atomic<uint32_t> live{0};    // creation reference + live objects
  std::atomic<bool> sealed{false};  // no longer a bump target

  uint8_t* payload() {
    return reinterpret_cast<uint8_t*>(this) + kSlabHeaderBytes;
  }

  static Slab* Of(const void* p) {
    return reinterpret_cast<Slab*>(reinterpret_cast<uintptr_t>(p) &
                                   ~static_cast<uintptr_t>(kSlabBytes - 1));
  }
};
static_assert(sizeof(Slab) <= kSlabHeaderBytes,
              "slab header must fit in the reserved prefix");

}  // namespace arena_internal

/// Unified version-memory lifecycle (ISSUE 2 tentpole): a per-thread slab
/// arena with epoch-based reclamation for `Version<Row>` and
/// `CommittedRecord` objects, replacing the ad-hoc raw new/delete that used
/// to live in the write primitives, the GC, and the table teardown.
///
/// * Allocation is a thread-local bump: each thread maps to one of
///   kThreadSlots cache-line-isolated slots holding its current slab;
///   allocating is an offset bump plus one relaxed counter increment.
/// * Freeing never touches the system allocator: the object's destructor
///   runs (payloads may own memory) and the slab's live count drops. The
///   epoch contract is unchanged from the pre-arena GC: linked-then-unlinked
///   versions are freed only after the oldest-active-start-timestamp
///   watermark passes their retirement era, so no reader can stand on a
///   destroyed version; never-linked versions (fail-fast push conflicts)
///   free immediately because no other transaction ever observed them.
/// * Memory reclamation happens at slab granularity: once a slab is sealed
///   (full) and its live count hits zero it is retired, then recycled into
///   a bounded freelist (mirroring PredicatePool's recycling) or released.
///   The `gc-reclaim` failpoint covers slab retirement: a firing parks the
///   slab on a deferred list (a lagging collector), drained by the next
///   retirement, DrainDeferred(), or the arena destructor.
///
/// Create/Destroy/CreateSibling are the ONLY allocation paths for versions
/// and committed records in the codebase (lint-enforced in CI).
class VersionArena {
 public:
  /// Bound on recycled slabs kept for reuse (4 MiB at 64 KiB slabs);
  /// beyond it, retired slabs go back to the system allocator.
  static constexpr size_t kMaxFreeSlabs = 64;
  static constexpr size_t kThreadSlots = 64;

  /// Counter snapshot for benchmarks and tests. `bytes_bumped` is the
  /// cumulative bump-allocated payload; `held_bytes`/`peak_held_bytes`
  /// approximate the arena's RSS contribution (slab memory currently /
  /// maximally held, including freelisted slabs).
  struct Stats {
    uint64_t slabs_created = 0;
    uint64_t slabs_live = 0;       // currently held (incl. freelist)
    uint64_t peak_slabs_live = 0;
    uint64_t slabs_retired = 0;    // sealed-and-drained transitions
    uint64_t slabs_recycled = 0;   // retired slabs reset onto the freelist
    uint64_t slabs_freed = 0;      // retired slabs released to the system
    uint64_t retirements_deferred = 0;  // gc-reclaim failpoint firings
    uint64_t deferred_slabs = 0;   // currently parked awaiting drain
    uint64_t freelist_slabs = 0;   // currently recycled and ready
    uint64_t bytes_bumped = 0;
    uint64_t allocations = 0;
    uint64_t frees = 0;
    uint64_t oversize_allocs = 0;
    uint64_t held_bytes = 0;
    uint64_t peak_held_bytes = 0;
  };

  VersionArena() = default;
  VersionArena(const VersionArena&) = delete;
  VersionArena& operator=(const VersionArena&) = delete;
  ~VersionArena();

  /// Bump-allocates and constructs a T. All versions and committed records
  /// MUST come from here (or CreateSibling) so that Destroy's slab lookup
  /// is valid for every such pointer in the system.
  template <typename T, typename... Args>
  T* Create(Args&&... args) {
    return new (AllocateRaw(sizeof(T))) T(std::forward<Args>(args)...);
  }

  /// Destroys an arena-created object: runs the destructor (virtual
  /// dispatch frees typed payloads through base pointers), poisons the
  /// full allocation under ASan, and drops the slab's live count — retiring
  /// the slab when it was the last object. Safe to call from any thread;
  /// the epoch watermark is the caller's contract (see class comment).
  ///
  /// Types destroyed through a base pointer must expose the most-derived
  /// extent via `size_t AllocSize() const` (see VersionBase::AllocSize):
  /// sizeof(T) would cover only the base subobject, leaving the row payload
  /// unpoisoned and use-after-reclaim on it invisible to ASan.
  template <typename T>
  static void Destroy(T* p) {
    if (p == nullptr) return;
    arena_internal::Slab* slab = arena_internal::Slab::Of(p);
#if defined(MV3C_ARENA_ASAN)
    const size_t extent = ExtentOf(*p);  // virtual; before the dtor runs
    p->~T();
    PoisonRange(p, extent);
#else
    p->~T();
#endif
    ReleaseObject(slab);
  }

  /// Allocates a T from the same arena as `sibling` (which must itself be
  /// arena-created). This is how Version::Clone() — called deep inside the
  /// commit critical section with no transaction context — reaches the
  /// right arena without threading a reference through every chain
  /// operation.
  template <typename T, typename... Args>
  static T* CreateSibling(const void* sibling, Args&&... args) {
    VersionArena* owner = arena_internal::Slab::Of(sibling)->owner;
    return owner->Create<T>(std::forward<Args>(args)...);
  }

  /// Recycles slabs whose retirement was deferred by the `gc-reclaim`
  /// failpoint. Called by TransactionManager::CollectGarbage so the chaos
  /// suite's "backlog drains once injection stops" invariant covers slab
  /// retirement too. Returns the number of slabs drained.
  size_t DrainDeferred() MV3C_EXCLUDES(slabs_lock_);

  Stats snapshot() const MV3C_EXCLUDES(slabs_lock_);

  /// Optional registry for the kArenaRetire phase histogram (set by the
  /// owning TransactionManager; null is fine — timers tolerate it). The
  /// registry must outlive the arena.
  void set_metrics(obs::MetricsRegistry* m) { metrics_ = m; }

 private:
  struct alignas(MV3C_CACHELINE_SIZE) ThreadSlot {
    SpinLock lock;
    /// The slot's bump target. The lock also covers `current->bump`: a
    /// slab's bump offset is written only by the slot that owns the slab
    /// as its current target (Slab::bump cannot carry a MV3C_GUARDED_BY —
    /// which slot lock guards it is a runtime property).
    arena_internal::Slab* current MV3C_GUARDED_BY(lock) = nullptr;
  };

  /// Allocated extent of an object: the most-derived size when the type
  /// reports it (polymorphic types reached through base pointers), its
  /// static size otherwise (concrete types like CommittedRecord).
  template <typename T>
  static size_t ExtentOf(const T& obj) {
    if constexpr (requires { obj.AllocSize(); }) {
      return obj.AllocSize();
    } else {
      return sizeof(T);
    }
  }

  static void PoisonRange(void* p, size_t n) {
#if defined(MV3C_ARENA_ASAN)
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }
  static void UnpoisonRange(void* p, size_t n) {
#if defined(MV3C_ARENA_ASAN)
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
  }

  static uint32_t ThreadSlotIndex();

  void* AllocateRaw(size_t bytes) MV3C_EXCLUDES(slabs_lock_);
  void* AllocateOversize(size_t bytes) MV3C_EXCLUDES(slabs_lock_);
  static void ReleaseObject(arena_internal::Slab* slab);
  uint64_t LiveSlabCount() const MV3C_EXCLUDES(slabs_lock_);

  void SealSlab(arena_internal::Slab* slab);
  static void RetireSlab(arena_internal::Slab* slab);
  /// Parks the slab on the freelist (returns nullptr) or unlinks it from
  /// the owned set and returns it for the caller to release *after* the
  /// lock is dropped — operator delete can take a libc lock or a syscall
  /// and must never run inside the spinlock's critical section (the
  /// lock_scope_io rule, DESIGN §5j).
  [[nodiscard]] arena_internal::Slab* RecycleOrDetachLocked(
      arena_internal::Slab* slab) MV3C_REQUIRES(slabs_lock_);
  static void ReleaseSlabMemory(arena_internal::Slab* slab);
  arena_internal::Slab* TakeSlab() MV3C_EXCLUDES(slabs_lock_);
  arena_internal::Slab* NewSlab(size_t total_bytes, bool oversize)
      MV3C_EXCLUDES(slabs_lock_);

  ThreadSlot slots_[kThreadSlots];
  /// Set once by the owning TransactionManager during single-threaded setup
  /// (set_metrics), read-only afterwards; a GUARDED_BY would force a lock
  /// acquisition onto every allocation-path phase timer.
  // mv3c-lint: allow(guarded_by_coverage)
  obs::MetricsRegistry* metrics_ = nullptr;

  mutable SpinLock slabs_lock_;
  std::vector<arena_internal::Slab*> freelist_ MV3C_GUARDED_BY(slabs_lock_);
  std::vector<arena_internal::Slab*> all_ MV3C_GUARDED_BY(slabs_lock_);
  std::vector<arena_internal::Slab*> deferred_ MV3C_GUARDED_BY(slabs_lock_);

  std::atomic<uint64_t> slabs_created_{0};
  std::atomic<uint64_t> peak_slabs_live_{0};
  std::atomic<uint64_t> slabs_retired_{0};
  std::atomic<uint64_t> slabs_recycled_{0};
  std::atomic<uint64_t> slabs_freed_{0};
  std::atomic<uint64_t> retirements_deferred_{0};
  std::atomic<uint64_t> bytes_bumped_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> frees_{0};
  std::atomic<uint64_t> oversize_allocs_{0};
  std::atomic<uint64_t> held_bytes_{0};
  std::atomic<uint64_t> peak_held_bytes_{0};
};

}  // namespace mv3c

#endif  // MV3C_MVCC_VERSION_ARENA_H_
