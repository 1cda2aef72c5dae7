// VersionArena unit tests: slab bump allocation, seal/retire/recycle
// lifecycle, the bounded freelist, oversize fallback, sibling allocation
// (the Clone() path), failpoint-deferred retirement, and the double-free
// backstop. Engine-level integration (watermark interplay, chaos) lives in
// gc_test.cc and chaos_serializability_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/failpoint.h"
#include "mvcc/version.h"
#include "mvcc/version_arena.h"

namespace mv3c {
namespace {

namespace fp = ::mv3c::failpoint;

// 64 bytes, 16-aligned: packs the 65472-byte slab payload exactly
// (1023 objects), so one extra allocation forces a seal.
struct PackedObj {
  uint64_t payload[8] = {0};
};
static_assert(sizeof(PackedObj) == 64);
constexpr size_t kPerSlab =
    arena_internal::kSlabPayloadBytes / sizeof(PackedObj);

class VersionArenaTest : public ::testing::Test {};

TEST_F(VersionArenaTest, CreateDestroyRoundTrip) {
  VersionArena arena;
  PackedObj* p = arena.Create<PackedObj>();
  ASSERT_NE(p, nullptr);
  p->payload[0] = 42;  // the memory is writable
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.frees, 0u);
  EXPECT_EQ(s.slabs_created, 1u);
  EXPECT_GE(s.bytes_bumped, sizeof(PackedObj));
  VersionArena::Destroy(p);
  s = arena.snapshot();
  EXPECT_EQ(s.frees, 1u);
  // The slab was never sealed (not full), so it is still the bump target:
  // no retirement, no recycle.
  EXPECT_EQ(s.slabs_retired, 0u);
}

TEST_F(VersionArenaTest, SealedAndDrainedSlabRecyclesOntoFreelist) {
  VersionArena arena;
  std::vector<PackedObj*> objs;
  // Fill slab 1 exactly, then one more to force the seal + a second slab.
  for (size_t i = 0; i < kPerSlab + 1; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_created, 2u);
  // Drain slab 1: the last free retires it and recycles it.
  for (size_t i = 0; i < kPerSlab; ++i) VersionArena::Destroy(objs[i]);
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 1u);
  EXPECT_EQ(s.slabs_recycled, 1u);
  EXPECT_EQ(s.freelist_slabs, 1u);
  EXPECT_EQ(s.slabs_freed, 0u);
  // The next slab roll-over takes the recycled slab instead of allocating.
  for (size_t i = 0; i < kPerSlab; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_created, 2u) << "recycled slab must be reused";
  EXPECT_EQ(s.freelist_slabs, 0u);
  for (size_t i = kPerSlab; i < objs.size(); ++i) {
    VersionArena::Destroy(objs[i]);
  }
}

TEST_F(VersionArenaTest, ObjectsNeverStraddleASlabBoundary) {
  VersionArena arena;
  // Leave 48 bytes of tail room in slab 1, then allocate a 64-byte object:
  // it must start in slab 2, not straddle the boundary.
  struct Odd {
    uint8_t b[48];
  };
  std::vector<void*> cleanup;
  for (size_t i = 0; i < kPerSlab - 1; ++i) {
    cleanup.push_back(arena.Create<PackedObj>());
  }
  Odd* odd = arena.Create<Odd>();  // fits the 64-byte tail exactly
  PackedObj* next = arena.Create<PackedObj>();  // must open slab 2
  EXPECT_EQ(arena_internal::Slab::Of(odd),
            arena_internal::Slab::Of(cleanup.front()));
  EXPECT_NE(arena_internal::Slab::Of(next),
            arena_internal::Slab::Of(cleanup.front()));
  EXPECT_EQ(arena.snapshot().slabs_created, 2u);
  for (void* p : cleanup) VersionArena::Destroy(static_cast<PackedObj*>(p));
  VersionArena::Destroy(odd);
  VersionArena::Destroy(next);
}

TEST_F(VersionArenaTest, FreelistIsBounded) {
  VersionArena arena;
  // Create and fully drain far more slabs than the freelist keeps. Drains
  // happen while later slabs are still live, so recycled slabs pile up
  // faster than reuse consumes them.
  const size_t kSlabs = VersionArena::kMaxFreeSlabs + 8;
  std::vector<std::vector<PackedObj*>> per_slab(kSlabs);
  for (size_t i = 0; i < kSlabs; ++i) {
    for (size_t j = 0; j < kPerSlab; ++j) {
      per_slab[i].push_back(arena.Create<PackedObj>());
    }
  }
  PackedObj* sentinel = arena.Create<PackedObj>();  // seals the last full slab
  for (auto& objs : per_slab) {
    for (PackedObj* p : objs) VersionArena::Destroy(p);
  }
  VersionArena::Destroy(sentinel);
  const VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, kSlabs);
  EXPECT_LE(s.freelist_slabs, VersionArena::kMaxFreeSlabs);
  EXPECT_GT(s.slabs_freed, 0u) << "beyond the bound, slabs go to the OS";
  EXPECT_EQ(s.slabs_recycled + s.slabs_freed, s.slabs_retired);
}

TEST_F(VersionArenaTest, OversizeObjectGetsDedicatedBlockAndFreesEagerly) {
  VersionArena arena;
  struct Big {
    uint8_t bytes[arena_internal::kSlabPayloadBytes + 1000];
  };
  const uint64_t held_before = arena.snapshot().held_bytes;
  Big* big = arena.Create<Big>();
  big->bytes[sizeof(big->bytes) - 1] = 7;
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.oversize_allocs, 1u);
  EXPECT_GT(s.held_bytes, held_before + sizeof(Big) - 1);
  VersionArena::Destroy(big);
  s = arena.snapshot();
  // Oversize blocks never enter the freelist; the memory returns at once.
  EXPECT_EQ(s.held_bytes, held_before);
  EXPECT_GT(s.slabs_freed, 0u);
}

TEST_F(VersionArenaTest, CreateSiblingAllocatesFromTheSameArena) {
  VersionArena arena;
  PackedObj* a = arena.Create<PackedObj>();
  PackedObj* b = VersionArena::CreateSibling<PackedObj>(a);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena_internal::Slab::Of(a)->owner,
            arena_internal::Slab::Of(b)->owner);
  EXPECT_EQ(arena.snapshot().allocations, 2u);
  VersionArena::Destroy(a);
  VersionArena::Destroy(b);
  EXPECT_EQ(arena.snapshot().frees, 2u);
}

TEST_F(VersionArenaTest, FailpointDefersRetirementUntilDrain) {
  if (!fp::kEnabled) {
    GTEST_SKIP() << "built with -DMV3C_FAILPOINTS=OFF";
  }
  fp::Reset(/*seed=*/3);
  VersionArena arena;
  std::vector<PackedObj*> objs;
  for (size_t i = 0; i < kPerSlab + 1; ++i) {
    objs.push_back(arena.Create<PackedObj>());
  }
  {
    fp::Config cfg;
    cfg.probability = 1.0;
    fp::ScopedArm arm(fp::Site::kGcReclaim, cfg);
    for (size_t i = 0; i < kPerSlab; ++i) VersionArena::Destroy(objs[i]);
  }
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.retirements_deferred, 1u);
  EXPECT_EQ(s.deferred_slabs, 1u);
  EXPECT_EQ(s.slabs_recycled + s.slabs_freed, 0u);
  EXPECT_EQ(arena.DrainDeferred(), 1u);
  s = arena.snapshot();
  EXPECT_EQ(s.deferred_slabs, 0u);
  EXPECT_EQ(s.slabs_recycled, 1u);
  VersionArena::Destroy(objs.back());
  fp::Reset(0);
}

TEST_F(VersionArenaTest, SealRetiresAnAlreadyDrainedSlab) {
  VersionArena arena;
  // Fill slab 1 exactly and destroy everything while it is still the bump
  // target: the creation reference keeps it alive (live == 1), so nothing
  // retires yet. The next allocation seals it, drops that reference, and
  // the seal path itself must observe 1 -> 0 and retire the slab.
  std::vector<PackedObj*> objs;
  for (size_t i = 0; i < kPerSlab; ++i) objs.push_back(arena.Create<PackedObj>());
  for (PackedObj* p : objs) VersionArena::Destroy(p);
  VersionArena::Stats s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 0u) << "creation reference must pin the slab";
  PackedObj* extra = arena.Create<PackedObj>();  // rolls over, seals slab 1
  s = arena.snapshot();
  EXPECT_EQ(s.slabs_retired, 1u);
  EXPECT_EQ(s.slabs_recycled, 1u);
  // The roll-over seals before taking a slab, so the retired slab recycles
  // straight back into the same slot — no second slab is ever created.
  EXPECT_EQ(s.freelist_slabs, 0u);
  EXPECT_EQ(s.slabs_created, 1u);
  VersionArena::Destroy(extra);
}

using VersionArenaDeathTest = VersionArenaTest;

TEST_F(VersionArenaDeathTest, DoubleFreeIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Under -DMV3C_SANITIZE=address the poisoned range reports first; without
  // it, the second free drops the slab's creation reference and the
  // MV3C_CHECK in ReleaseObject aborts. Either way: death.
  EXPECT_DEATH(
      {
        VersionArena arena;
        PackedObj* p = arena.Create<PackedObj>();
        VersionArena::Destroy(p);
        VersionArena::Destroy(p);
      },
      "");
}

#if defined(MV3C_ARENA_ASAN)
// 256-byte row: the payload extends far past the VersionBase subobject.
struct WideRow {
  uint64_t cells[32] = {0};
};

TEST_F(VersionArenaDeathTest, DestroyThroughBasePointerPoisonsFullPayload) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Destroy is reached via VersionBase* (GC, chain teardown); the poisoned
  // extent must be the most-derived AllocSize(), not sizeof(VersionBase),
  // or a use-after-reclaim on the row payload escapes ASan.
  EXPECT_DEATH(
      {
        VersionArena arena;
        auto* v = arena.Create<Version<WideRow>>(
            /*table=*/nullptr, /*object=*/nullptr, Timestamp{1}, WideRow{});
        const uint64_t* payload = &v->data().cells[31];
        VersionArena::Destroy(static_cast<VersionBase*>(v));
        volatile uint64_t sink = *payload;
        (void)sink;
      },
      "use-after-poison");
}
#endif

#ifndef NDEBUG
TEST_F(VersionArenaDeathTest, LeakAtDestructionAbortsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // A version outliving the arena means a table or the GC outlived the
  // TransactionManager; the destructor logs the leak count in every build
  // and aborts under !NDEBUG instead of leaving a silent use-after-free.
  EXPECT_DEATH(
      {
        VersionArena arena;
        arena.Create<PackedObj>();  // never destroyed
      },
      "leaked at arena destruction");
}
#endif

}  // namespace
}  // namespace mv3c
