/**
 * @file
 * Unit tests for the virtual-memory subsystem: the Fig. 2 page safety
 * state machine (including the preserve-read-only variant), TLB
 * behavior, shootdown cost accounting and the translate() fast path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/vm.hh"

using namespace hintm;
using namespace hintm::vm;

namespace
{
constexpr Addr pageA = 0x10000;
constexpr Addr pageB = 0x20000;
} // namespace

TEST(PageTable, FirstTouchClassifiesPrivate)
{
    PageTable pt;
    auto tr = pt.touch(0, pageA, AccessType::Read);
    EXPECT_EQ(tr.before, PageState::Untouched);
    EXPECT_EQ(tr.after, PageState::PrivateRo);
    EXPECT_EQ(pt.ownerOf(pageA), 0);

    tr = pt.touch(1, pageB, AccessType::Write);
    EXPECT_EQ(tr.after, PageState::PrivateRw);
    EXPECT_EQ(pt.ownerOf(pageB), 1);
}

TEST(PageTable, OwnerWriteUpgradesWithMinorFault)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Read);
    const auto tr = pt.touch(0, pageA, AccessType::Write);
    EXPECT_EQ(tr.after, PageState::PrivateRw);
    EXPECT_TRUE(tr.minorFault);
    EXPECT_FALSE(tr.becameUnsafe);
}

TEST(PageTable, SecondReaderMakesSharedRoStillSafe)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Read);
    const auto tr = pt.touch(1, pageA, AccessType::Read);
    EXPECT_EQ(tr.after, PageState::SharedRo);
    EXPECT_FALSE(tr.becameUnsafe);
    EXPECT_TRUE(pageStateSafe(tr.after));
}

TEST(PageTable, WriteToSharedRoIsUnsafeTransition)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Read);
    pt.touch(1, pageA, AccessType::Read);
    const auto tr = pt.touch(0, pageA, AccessType::Write);
    EXPECT_EQ(tr.after, PageState::SharedRw);
    EXPECT_TRUE(tr.becameUnsafe);
}

TEST(PageTable, SecondThreadOnPrivateRwIsUnsafe)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Write);
    const auto tr = pt.touch(1, pageA, AccessType::Read);
    EXPECT_EQ(tr.after, PageState::SharedRw);
    EXPECT_TRUE(tr.becameUnsafe);
}

TEST(PageTable, PreservePolicyDemotesToSharedRo)
{
    PageTable pt(/*preserve_read_only=*/true);
    pt.touch(0, pageA, AccessType::Write);
    const auto tr = pt.touch(1, pageA, AccessType::Read);
    EXPECT_EQ(tr.after, PageState::SharedRo);
    EXPECT_FALSE(tr.becameUnsafe);
    EXPECT_TRUE(tr.minorFault);
    // The owner's next write now triggers the unsafe transition.
    const auto tr2 = pt.touch(0, pageA, AccessType::Write);
    EXPECT_EQ(tr2.after, PageState::SharedRw);
    EXPECT_TRUE(tr2.becameUnsafe);
}

TEST(PageTable, SharedRwIsAbsorbing)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Write);
    pt.touch(1, pageA, AccessType::Write);
    for (ThreadId t = 0; t < 4; ++t) {
        const auto tr = pt.touch(t, pageA, AccessType::Write);
        EXPECT_EQ(tr.after, PageState::SharedRw);
        EXPECT_FALSE(tr.becameUnsafe);
        EXPECT_FALSE(tr.stateChanged);
    }
}

TEST(PageTable, CountsSafePages)
{
    PageTable pt;
    pt.touch(0, pageA, AccessType::Read); // private-ro: safe
    pt.touch(0, pageB, AccessType::Write);
    pt.touch(1, pageB, AccessType::Write); // shared-rw: unsafe
    EXPECT_EQ(pt.totalPages(), 2u);
    EXPECT_EQ(pt.countPages(true), 1u);
}

TEST(Tlb, InsertLookupEvict)
{
    Tlb tlb(2);
    tlb.insert(1, PageState::PrivateRo);
    tlb.insert(2, PageState::SharedRo);
    PageState st;
    EXPECT_TRUE(tlb.lookup(1, &st));
    EXPECT_EQ(st, PageState::PrivateRo);
    // 2 is now LRU; inserting 3 evicts it.
    tlb.insert(3, PageState::SharedRw);
    EXPECT_FALSE(tlb.contains(2));
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(3));
}

TEST(Tlb, InvalidateAndUpdate)
{
    Tlb tlb(4);
    tlb.insert(7, PageState::PrivateRw);
    EXPECT_TRUE(tlb.invalidate(7));
    EXPECT_FALSE(tlb.invalidate(7));
    tlb.insert(8, PageState::PrivateRo);
    tlb.updateState(8, PageState::SharedRo);
    PageState st;
    tlb.lookup(8, &st);
    EXPECT_EQ(st, PageState::SharedRo);
}

TEST(Tlb, TouchRefreshesTheVictimOrder)
{
    Tlb tlb(3);
    Tlb::Entry *a = tlb.insert(1, PageState::PrivateRo);
    tlb.insert(2, PageState::PrivateRo);
    tlb.insert(3, PageState::PrivateRo);
    tlb.touch(a); // 1 becomes most recent: 2 is now LRU
    std::vector<Addr> evicted;
    tlb.setEvictObserver([&](Addr p) { evicted.push_back(p); });
    tlb.insert(4, PageState::PrivateRo);
    tlb.insert(5, PageState::PrivateRo);
    EXPECT_EQ(evicted, (std::vector<Addr>{2, 3}));
    EXPECT_TRUE(tlb.contains(1));
    // An invalidated slot is reused before any live entry is evicted.
    evicted.clear();
    EXPECT_TRUE(tlb.invalidate(4));
    tlb.insert(6, PageState::PrivateRo);
    EXPECT_EQ(evicted, (std::vector<Addr>{4})); // the invalidation only
    EXPECT_EQ(tlb.size(), 3u);
}

TEST(Tlb, EntriesStayStableAcrossUnrelatedInsertsAndEvictions)
{
    Tlb tlb(4);
    Tlb::Entry *keep = tlb.insert(100, PageState::SharedRo);
    for (Addr p = 0; p < 40; ++p) {
        tlb.insert(p, PageState::PrivateRw);
        tlb.touch(keep); // never the victim
        if (p % 3 == 0)
            tlb.invalidate(p);
    }
    ASSERT_TRUE(tlb.contains(100));
    EXPECT_EQ(keep, tlb.lookupEntry(100));
    EXPECT_EQ(keep->page, 100u);
    EXPECT_EQ(keep->state, PageState::SharedRo);
}

TEST(Vm, DisabledClassificationOnlyModelsTlb)
{
    VmConfig cfg;
    cfg.dynamicClassification = false;
    Vm vm(cfg);
    const int c = vm.addContext();
    auto r = vm.translate(c, 0, pageA, AccessType::Read);
    EXPECT_FALSE(r.safeRead);
    EXPECT_EQ(r.cost, cfg.pageWalkCycles); // TLB miss walk
    r = vm.translate(c, 0, pageA, AccessType::Read);
    EXPECT_EQ(r.cost, 0u); // TLB hit
    EXPECT_FALSE(r.becameUnsafe);
}

TEST(Vm, SafeReadFlagFollowsPageState)
{
    Vm vm(VmConfig{});
    const int c0 = vm.addContext();
    const int c1 = vm.addContext();

    auto r = vm.translate(c0, 0, pageA, AccessType::Read);
    EXPECT_TRUE(r.safeRead); // private-ro

    r = vm.translate(c1, 1, pageA, AccessType::Read);
    EXPECT_TRUE(r.safeRead); // shared-ro

    r = vm.translate(c1, 1, pageA, AccessType::Write);
    EXPECT_TRUE(r.becameUnsafe);

    r = vm.translate(c0, 0, pageA, AccessType::Read);
    EXPECT_FALSE(r.safeRead); // shared-rw
}

TEST(Vm, WritesAreNeverDynamicallySafe)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    const auto r = vm.translate(c, 0, pageA, AccessType::Write);
    EXPECT_FALSE(r.safeRead);
}

TEST(Vm, ShootdownChargesCachingContextsOnly)
{
    VmConfig cfg;
    Vm vm(cfg);
    const int c0 = vm.addContext();
    const int c1 = vm.addContext();
    const int c2 = vm.addContext();

    // c0 and c1 cache the translation; c2 never touches the page.
    vm.translate(c0, 0, pageA, AccessType::Read);
    vm.translate(c1, 1, pageA, AccessType::Read);

    const auto r = vm.translate(c1, 1, pageA, AccessType::Write);
    ASSERT_TRUE(r.becameUnsafe);
    EXPECT_GE(r.cost, cfg.shootdownInitiatorCycles);
    ASSERT_EQ(r.slaveCosts.size(), 1u);
    EXPECT_EQ(r.slaveCosts[0].first, c0);
    EXPECT_EQ(r.slaveCosts[0].second, cfg.shootdownSlaveCycles);
    (void)c2;
}

TEST(Vm, MinorFaultChargedOnOwnerUpgrade)
{
    VmConfig cfg;
    Vm vm(cfg);
    const int c = vm.addContext();
    vm.translate(c, 0, pageA, AccessType::Read);
    const auto r = vm.translate(c, 0, pageA, AccessType::Write);
    EXPECT_FALSE(r.becameUnsafe);
    EXPECT_EQ(r.cost, cfg.minorFaultCycles);
}

TEST(Vm, FastPathSkipsWalkOnStableStates)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    vm.translate(c, 0, pageA, AccessType::Read);
    const auto before = vm.statGroup().counter("tlb_hits").value();
    // Repeated reads of a private-ro page hit the TLB fast path.
    for (int i = 0; i < 5; ++i) {
        const auto r = vm.translate(c, 0, pageA, AccessType::Read);
        EXPECT_TRUE(r.safeRead);
        EXPECT_EQ(r.cost, 0u);
    }
    EXPECT_EQ(vm.statGroup().counter("tlb_hits").value(), before + 5);
}

TEST(Vm, BenignTransitionUpdatesRemoteTlbInPlace)
{
    Vm vm(VmConfig{});
    const int c0 = vm.addContext();
    const int c1 = vm.addContext();
    vm.translate(c0, 0, pageA, AccessType::Read);     // private-ro @ c0
    vm.translate(c1, 1, pageA, AccessType::Read);     // -> shared-ro
    // c0's cached entry must now be shared-ro: a write by thread 0 has
    // to take the slow path and flag the unsafe transition.
    const auto r = vm.translate(c0, 0, pageA, AccessType::Write);
    EXPECT_TRUE(r.becameUnsafe);
}

TEST(Vm, TlbEvictionForcesRewalk)
{
    VmConfig cfg;
    cfg.tlbEntries = 2;
    Vm vm(cfg);
    const int c = vm.addContext();
    vm.translate(c, 0, 0x10000, AccessType::Read);
    vm.translate(c, 0, 0x20000, AccessType::Read);
    vm.translate(c, 0, 0x30000, AccessType::Read); // evicts 0x10000
    const auto r = vm.translate(c, 0, 0x10000, AccessType::Read);
    EXPECT_EQ(r.cost, cfg.pageWalkCycles); // rewalk, state preserved
    EXPECT_TRUE(r.safeRead);
}

TEST(Vm, PreserveCountsRemoteDemotionFault)
{
    VmConfig cfg;
    cfg.preserveReadOnly = true;
    Vm vm(cfg);
    const int c0 = vm.addContext();
    const int c1 = vm.addContext();
    vm.translate(c0, 0, 0x10000, AccessType::Write); // private-rw @ t0
    const auto r = vm.translate(c1, 1, 0x10000, AccessType::Read);
    EXPECT_TRUE(r.safeRead); // demoted to shared-ro, still safe
    EXPECT_FALSE(r.becameUnsafe);
    EXPECT_GE(r.cost, cfg.minorFaultCycles);
}

// ---- translateFast: the memoized classification probe --------------

TEST(Vm, TranslateFastHitMatchesTranslateAndCountsAsTlbHit)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    vm.translate(c, 0, pageA, AccessType::Read); // fill TLB + memo
    const auto before = vm.statGroup().counter("tlb_hits").value();

    TranslateResult fast;
    ASSERT_TRUE(vm.translateFast(c, pageA + 64, AccessType::Read, fast));
    const auto slow = vm.translate(c, 0, pageA + 128, AccessType::Read);
    EXPECT_EQ(fast.safeRead, slow.safeRead);
    EXPECT_EQ(fast.revocable, slow.revocable);
    EXPECT_EQ(fast.cost, 0u);
    EXPECT_EQ(fast.pageNum, slow.pageNum);
    // Both paths bill the same counter.
    EXPECT_EQ(vm.statGroup().counter("tlb_hits").value(), before + 2);
}

TEST(Vm, TranslateFastMissesOnColdAndTransitioningAccesses)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    TranslateResult r;
    // Cold page: no memo yet.
    EXPECT_FALSE(vm.translateFast(c, pageA, AccessType::Read, r));
    vm.translate(c, 0, pageA, AccessType::Read); // private-ro
    // A write to private-ro transitions the FSM: must take translate().
    EXPECT_FALSE(vm.translateFast(c, pageA, AccessType::Write, r));
    vm.translate(c, 0, pageA, AccessType::Write); // now private-rw
    // Writes to private-rw are stable: fast path applies.
    EXPECT_TRUE(vm.translateFast(c, pageA, AccessType::Write, r));
    EXPECT_FALSE(r.safeRead);
}

TEST(Vm, TranslateFastInvalidatedByShootdown)
{
    Vm vm(VmConfig{});
    const int c0 = vm.addContext();
    const int c1 = vm.addContext();
    vm.translate(c0, 0, pageA, AccessType::Read);
    vm.translate(c1, 1, pageA, AccessType::Read); // shared-ro everywhere
    TranslateResult r;
    ASSERT_TRUE(vm.translateFast(c1, pageA, AccessType::Read, r));
    EXPECT_TRUE(r.safeRead);

    // Thread 0 writes: unsafe transition shoots down c1's TLB entry and
    // must kill its memo too.
    vm.translate(c0, 0, pageA, AccessType::Write);
    EXPECT_FALSE(vm.translateFast(c1, pageA, AccessType::Read, r));
    const auto ref = vm.translate(c1, 1, pageA, AccessType::Read);
    EXPECT_FALSE(ref.safeRead); // shared-rw now
}

TEST(Vm, TranslateFastInvalidatedByTlbEviction)
{
    VmConfig cfg;
    cfg.tlbEntries = 2;
    Vm vm(cfg);
    const int c = vm.addContext();
    vm.translate(c, 0, 0x10000, AccessType::Read);
    vm.translate(c, 0, 0x20000, AccessType::Read);
    TranslateResult r;
    ASSERT_TRUE(vm.translateFast(c, 0x10000, AccessType::Read, r));
    vm.translate(c, 0, 0x20000, AccessType::Read); // refresh 0x20000
    vm.translate(c, 0, 0x30000, AccessType::Read); // evicts 0x10000
    // The memoized entry for the evicted page must be gone: a fast
    // probe that succeeded here would skip the page-walk cost.
    EXPECT_FALSE(vm.translateFast(c, 0x10000, AccessType::Read, r));
}

TEST(Vm, TranslateFastInvalidatedByAnnotation)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    vm.translate(c, 0, pageA, AccessType::Read); // private-ro, revocable
    TranslateResult r;
    ASSERT_TRUE(vm.translateFast(c, pageA, AccessType::Read, r));
    EXPECT_TRUE(r.revocable);

    vm.annotateRange(pageA, 64); // irrevocably safe now
    // The in-place TLB state change must kill the stale memo.
    EXPECT_FALSE(vm.translateFast(c, pageA, AccessType::Read, r));
    const auto ref = vm.translate(c, 0, pageA, AccessType::Read);
    EXPECT_TRUE(ref.safeRead);
    EXPECT_FALSE(ref.revocable);
    // After the refill, the fast path must agree with the annotation.
    ASSERT_TRUE(vm.translateFast(c, pageA, AccessType::Read, r));
    EXPECT_TRUE(r.safeRead);
    EXPECT_FALSE(r.revocable);
}

TEST(Vm, TranslationCacheDisabledNeverFastPaths)
{
    VmConfig cfg;
    cfg.translationCache = false;
    Vm vm(cfg);
    const int c = vm.addContext();
    vm.translate(c, 0, pageA, AccessType::Read);
    TranslateResult r;
    EXPECT_FALSE(vm.translateFast(c, pageA, AccessType::Read, r));
}
