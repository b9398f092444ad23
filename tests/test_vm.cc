/**
 * @file
 * Unit tests for the virtual-memory subsystem: the Fig. 2 page safety
 * state machine (including the preserve-read-only variant), TLB
 * behavior, shootdown cost accounting and translate()'s TLB-hit path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

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

TEST(Tlb, LookupRefreshesTheVictimOrder)
{
    Tlb tlb(3);
    tlb.insert(1, PageState::PrivateRo);
    tlb.insert(2, PageState::PrivateRo);
    tlb.insert(3, PageState::PrivateRo);
    ASSERT_NE(tlb.lookupEntry(1), nullptr); // 1 most recent: 2 is LRU
    tlb.insert(4, PageState::PrivateRo);
    EXPECT_FALSE(tlb.contains(2));
    EXPECT_TRUE(tlb.contains(3));
    tlb.insert(5, PageState::PrivateRo);
    EXPECT_FALSE(tlb.contains(3));
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(4));
    // An invalidated slot is reused before any live entry is evicted.
    EXPECT_TRUE(tlb.invalidate(4));
    tlb.insert(6, PageState::PrivateRo);
    EXPECT_TRUE(tlb.contains(1));
    EXPECT_TRUE(tlb.contains(5));
    EXPECT_TRUE(tlb.contains(6));
    EXPECT_EQ(tlb.size(), 3u);
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
    EXPECT_EQ(r.slaveMask, std::uint64_t(1) << c0);

    // c0's entry was shot down: it walks again and reads shared-rw.
    r = vm.translate(c0, 0, pageA, AccessType::Read);
    EXPECT_FALSE(r.safeRead);
    EXPECT_EQ(r.cost, VmConfig{}.pageWalkCycles);
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
    EXPECT_EQ(r.slaveMask, std::uint64_t(1) << c0);
    (void)c2;
}

TEST(Vm, ShootdownMaskCoversSixtyFourContexts)
{
    Vm vm(VmConfig{});
    for (int i = 0; i < 64; ++i)
        vm.addContext();
    EXPECT_THROW(vm.addContext(), std::logic_error);

    vm.translate(63, 63, pageA, AccessType::Read);
    vm.translate(0, 0, pageA, AccessType::Read);
    const auto r = vm.translate(0, 0, pageA, AccessType::Write);
    ASSERT_TRUE(r.becameUnsafe);
    EXPECT_EQ(r.slaveMask, std::uint64_t(1) << 63);
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
    const auto walk = vm.translate(c, 0, pageA, AccessType::Read);
    const auto before = vm.statGroup().counter("tlb_hits").value();
    // Repeated reads anywhere in a private-ro page hit the TLB fast path.
    for (int i = 0; i < 5; ++i) {
        const auto r = vm.translate(c, 0, pageA + 64 * i, AccessType::Read);
        EXPECT_TRUE(r.safeRead);
        EXPECT_TRUE(r.revocable);
        EXPECT_EQ(r.cost, 0u);
        EXPECT_EQ(r.pageNum, walk.pageNum);
    }
    EXPECT_EQ(vm.statGroup().counter("tlb_hits").value(), before + 5);

    // So do writes to the private-rw page the first write leaves.
    vm.translate(c, 0, pageA, AccessType::Write);
    const auto faults = vm.statGroup().counter("minor_faults").value();
    const auto w = vm.translate(c, 0, pageA + 64, AccessType::Write);
    EXPECT_EQ(w.cost, 0u);
    EXPECT_FALSE(w.safeRead);
    EXPECT_EQ(vm.statGroup().counter("minor_faults").value(), faults);
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

// A TLB entry's safety bits are the only cached classification, so an
// annotation must reach the entry itself.
TEST(Vm, AnnotationReclassifiesACachedPageWithoutRefill)
{
    Vm vm(VmConfig{});
    const int c = vm.addContext();
    const auto before = vm.translate(c, 0, pageA, AccessType::Read);
    ASSERT_TRUE(before.revocable); // private-ro: FSM safety
    const auto misses = vm.statGroup().counter("tlb_misses").value();

    vm.annotateRange(pageA, 64); // irrevocably safe now
    const auto r = vm.translate(c, 0, pageA, AccessType::Read);
    EXPECT_TRUE(r.safeRead);
    EXPECT_FALSE(r.revocable);
    EXPECT_EQ(r.cost, 0u);
    EXPECT_EQ(vm.statGroup().counter("tlb_misses").value(), misses);
}
