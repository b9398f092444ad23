/**
 * @file
 * Unit tests for the memory hierarchy: cache geometry, tag array and LRU
 * replacement (including transactional pinning), MESI state transitions
 * across the snoop bus, latency accounting, and listener notification
 * rules (bus-wide vs SMT-sibling).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/mem_system.hh"

using namespace hintm;
using namespace hintm::mem;

namespace
{

/** Records every event it sees. */
struct RecordingListener : SnoopListener
{
    struct Remote
    {
        Addr block;
        AccessType type;
        ContextId from;
    };
    std::vector<Remote> remote;
    std::vector<Addr> evictions;

    void
    onRemoteAccess(Addr block, AccessType type, ContextId from) override
    {
        remote.push_back({block, type, from});
    }

    void
    onEviction(Addr block, bool) override
    {
        evictions.push_back(block);
    }
};

/** Claims to track every block, so every line it sees filled is
 * pinned. */
struct PinAllListener : RecordingListener
{
    bool tracksBlock(Addr) const override { return true; }
};

MemConfig
smallConfig()
{
    MemConfig c;
    c.l1SizeBytes = 1024; // 2 sets x 8 ways
    c.l1Assoc = 8;
    c.l2SizeBytes = 16 * 1024;
    return c;
}

} // namespace

TEST(Geometry, IndexTagRoundTrip)
{
    CacheGeometry g(32 * 1024, 8);
    EXPECT_EQ(g.numSets(), 64u);
    EXPECT_EQ(g.numLines(), 512u);
    for (Addr a : {Addr(0), Addr(0x12340), Addr(0xFFFFC0)}) {
        const Addr block = blockAlign(a);
        EXPECT_EQ(g.blockAddrOf(g.tagOf(block), g.indexOf(block)), block);
    }
}

TEST(CacheArray, HitMissAndLru)
{
    CacheArray arr(CacheGeometry(256, 2)); // 2 sets x 2 ways
    EXPECT_EQ(arr.lookup(0), nullptr);
    arr.insert(0, CoherState::Shared);
    EXPECT_NE(arr.lookup(0), nullptr);

    // Fill set 0 (same index: stride = 128).
    arr.insert(128, CoherState::Shared);
    // Touch 0 so 128 becomes LRU; next insert evicts 128.
    arr.lookup(0);
    const Eviction ev = arr.insert(256, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 128u);
    EXPECT_FALSE(ev.dirty);
    EXPECT_NE(arr.probe(0), nullptr);
    EXPECT_EQ(arr.probe(128), nullptr);
}

TEST(CacheArray, DirtyEviction)
{
    CacheArray arr(CacheGeometry(128, 1)); // direct mapped, 2 sets
    arr.insert(0, CoherState::Modified);
    const Eviction ev = arr.insert(128, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_TRUE(ev.dirty);
}

TEST(CacheArray, InvalidatedLineIsReusedFirst)
{
    CacheArray arr(CacheGeometry(256, 2));
    arr.insert(0, CoherState::Shared);
    arr.insert(128, CoherState::Shared);
    arr.invalidate(0);
    const Eviction ev = arr.insert(256, CoherState::Shared);
    EXPECT_FALSE(ev.happened); // reused the invalid way
    EXPECT_NE(arr.probe(128), nullptr);
}

TEST(CacheArray, PinnedLinesEvictedLast)
{
    CacheArray arr(CacheGeometry(256, 2));
    arr.insert(0, CoherState::Shared, /*tx_mask=*/1); // pinned
    arr.insert(128, CoherState::Shared);              // unpinned
    arr.lookup(0); // make the pinned line MRU-irrelevant: pin wins anyway
    arr.lookup(128);
    Eviction ev = arr.insert(256, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 128u); // despite 128 being more recent

    // Now both resident lines (0 and 256) — pin both: eviction must fall
    // back to a pinned victim.
    arr.probe(256)->txMask = 0b10;
    ev = arr.insert(384, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
}

TEST(CacheArray, PinnedFallbackPicksLruAmongPinned)
{
    CacheArray arr(CacheGeometry(256, 2)); // 2 sets x 2 ways
    arr.insert(0, CoherState::Shared, 1);
    arr.insert(128, CoherState::Shared, 1);
    arr.lookup(0); // 128 is now LRU
    const Eviction ev = arr.insert(256, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 128u); // LRU even within the pinned set
    EXPECT_NE(arr.probe(0), nullptr);
    EXPECT_NE(arr.probe(256), nullptr);
}

TEST(CacheArray, PinnedFallbackReportsDirtyVictim)
{
    CacheArray arr(CacheGeometry(128, 1)); // direct mapped
    arr.insert(0, CoherState::Modified, 1);
    const Eviction ev = arr.insert(128, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 0u);
    EXPECT_TRUE(ev.dirty); // writeback still owed for a pinned victim
}

TEST(CacheArray, FillSeedsTxBitsAndReinsertKeepsThem)
{
    CacheArray arr(CacheGeometry(256, 2));
    arr.insert(0, CoherState::Shared, 0b11);
    EXPECT_EQ(arr.probe(0)->txMask, 0b11u);
    arr.insert(0, CoherState::Modified); // resident: bits stay
    EXPECT_EQ(arr.probe(0)->txMask, 0b11u);
    // A victim's bits never leak into the line that replaces it.
    arr.insert(128, CoherState::Shared, 1);
    arr.insert(256, CoherState::Shared); // both pinned: LRU (0) goes
    ASSERT_NE(arr.probe(256), nullptr);
    EXPECT_EQ(arr.probe(256)->txMask, 0u);
}

TEST(CacheArray, ReinsertExistingBlockDoesNotEvict)
{
    CacheArray arr(CacheGeometry(256, 2));
    arr.insert(0, CoherState::Shared);
    arr.insert(128, CoherState::Shared);
    // Re-inserting a resident block upgrades in place: no victim even
    // though the set is full.
    const Eviction ev = arr.insert(0, CoherState::Modified);
    EXPECT_FALSE(ev.happened);
    EXPECT_EQ(arr.countValid(), 2u);
    EXPECT_EQ(arr.probe(0)->state, CoherState::Modified);
}

TEST(CacheArray, ProbeDoesNotPerturbLru)
{
    CacheArray arr(CacheGeometry(256, 2));
    arr.insert(0, CoherState::Shared);
    arr.insert(128, CoherState::Shared); // 0 is LRU
    arr.probe(0);                        // must NOT refresh 0
    const Eviction ev = arr.insert(256, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 0u);
}

TEST(CacheArray, LruVictimAcrossManyTouches)
{
    CacheArray arr(CacheGeometry(512, 4)); // 2 sets x 4 ways
    // Fill set 0 (stride 128 at 64B blocks x 2 sets).
    for (Addr a : {Addr(0), Addr(128), Addr(256), Addr(384)})
        arr.insert(a, CoherState::Shared);
    // Touch in an order that leaves 256 least-recent.
    arr.lookup(0);
    arr.lookup(384);
    arr.lookup(128);
    arr.lookup(0);
    const Eviction ev = arr.insert(512, CoherState::Shared);
    EXPECT_TRUE(ev.happened);
    EXPECT_EQ(ev.blockAddr, 256u);
}

TEST(CacheArray, CountValidAndSweep)
{
    CacheArray arr(CacheGeometry(512, 4));
    arr.insert(0, CoherState::Exclusive);
    arr.insert(64, CoherState::Modified);
    EXPECT_EQ(arr.countValid(), 2u);
    unsigned seen = 0;
    arr.forEachValid([&](Addr, CacheLine &) { ++seen; });
    EXPECT_EQ(seen, 2u);
}

namespace
{

/** The replacement policy CacheArray documents, with 64-bit stamps that
 * never wrap: the reference for its 24-bit stamps. */
class ReferenceArray
{
  public:
    ReferenceArray(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {
    }

    bool
    lookup(Addr block)
    {
        Line *l = find(block);
        if (l)
            l->stamp = ++clock_;
        return l != nullptr;
    }

    Eviction
    insert(Addr block, CoherState state, TxMask tx)
    {
        Eviction ev;
        Line *set = &lines_[setOf(block) * ways_];
        Line *victim = nullptr, *pinned = nullptr;
        for (Line *l = set; l != set + ways_; ++l) {
            if (l->valid && l->block == block) {
                l->dirty = state == CoherState::Modified;
                l->stamp = ++clock_;
                return ev;
            }
        }
        for (Line *l = set; l != set + ways_; ++l) {
            if (!l->valid) {
                victim = l; // the first invalid way
                break;
            }
        }
        if (!victim) {
            // LRU among unpinned lines, else LRU among pinned ones.
            for (Line *l = set; l != set + ways_; ++l) {
                Line *&best = l->tx ? pinned : victim;
                if (!best || l->stamp < best->stamp)
                    best = l;
            }
            if (!victim) {
                victim = pinned;
                ++pinnedVictims;
            }
        }
        if (victim->valid) {
            ev.happened = true;
            ev.blockAddr = victim->block;
            ev.dirty = victim->dirty;
        }
        *victim = Line{true, block, state == CoherState::Modified, tx,
                       ++clock_};
        return ev;
    }

    void
    invalidate(Addr block)
    {
        if (Line *l = find(block))
            l->valid = false;
    }

    void
    setTx(Addr block, TxMask tx)
    {
        if (Line *l = find(block))
            l->tx = tx;
    }

    std::uint64_t clock() const { return clock_; }

    /** Fills that found every way of their set pinned. */
    std::uint64_t pinnedVictims = 0;

  private:
    struct Line
    {
        bool valid = false;
        Addr block = 0;
        bool dirty = false;
        TxMask tx = 0;
        std::uint64_t stamp = 0;
    };

    unsigned setOf(Addr block) const { return (block / blockBytes) % sets_; }

    Line *
    find(Addr block)
    {
        Line *set = &lines_[setOf(block) * ways_];
        for (Line *l = set; l != set + ways_; ++l) {
            if (l->valid && l->block == block)
                return l;
        }
        return nullptr;
    }

    unsigned sets_, ways_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

} // namespace

TEST(CacheArray, LruStaysExactPastTheStampWidth)
{
    // 24-bit stamps wrap after 2^24 ticks: the array renumbers its sets
    // first. Drive one small array well past that point, with pinned
    // lines, unpinning, invalidations and re-inserts, and require every
    // hit and every victim to match the 64-bit reference.
    CacheArray arr(CacheGeometry(1024, 4)); // 4 sets x 4 ways
    ReferenceArray ref(4, 4);
    std::mt19937 rng(26);
    const Addr pool = 32; // 8 blocks per set
    const std::uint64_t ticks = (std::uint64_t(1) << lruStampBits) + 300000;
    std::uint64_t evictions = 0;
    while (ref.clock() < ticks) {
        const std::uint32_t r = rng();
        const Addr block = Addr(r % pool) * blockBytes;
        switch ((r >> 8) % 64) {
          case 0:
            arr.invalidate(block);
            ref.invalidate(block);
            continue;
          case 1:
          case 2:
          case 3:
            if (CacheLine *line = arr.probe(block))
                line->txMask = 0;
            ref.setTx(block, 0);
            continue;
          case 4: {
            // Re-insert over a resident copy (an L2 writeback).
            const Eviction a = arr.insert(block, CoherState::Modified);
            const Eviction b = ref.insert(block, CoherState::Modified, 0);
            ASSERT_EQ(a.happened, b.happened) << "tick " << ref.clock();
            ASSERT_EQ(a.blockAddr, b.blockAddr) << "tick " << ref.clock();
            ASSERT_EQ(a.dirty, b.dirty) << "tick " << ref.clock();
            continue;
          }
          default:
            break;
        }
        const bool hit = arr.lookup(block) != nullptr;
        ASSERT_EQ(hit, ref.lookup(block)) << "tick " << ref.clock();
        if (hit)
            continue;
        const CoherState st =
            (r >> 16) % 2 ? CoherState::Modified : CoherState::Shared;
        const TxMask tx = (r >> 20) % 4 == 0 ? TxMask(1) << (r >> 24) % 2
                                             : 0;
        const Eviction a = arr.insert(block, st, tx);
        const Eviction b = ref.insert(block, st, tx);
        ASSERT_EQ(a.happened, b.happened) << "tick " << ref.clock();
        ASSERT_EQ(a.blockAddr, b.blockAddr) << "tick " << ref.clock();
        ASSERT_EQ(a.dirty, b.dirty) << "tick " << ref.clock();
        evictions += a.happened;
    }
    EXPECT_GT(evictions, 1000000u);
    EXPECT_GT(ref.pinnedVictims, 1000u);
}

TEST(CacheArray, TagWiderThan32BitsIsFatal)
{
    MemorySystem ms(smallConfig(), 1);
    const ContextId c0 = ms.addContext(0);
    // 2 sets of 64-byte blocks: tags hold address bits 7 and up, so the
    // highest block with a 32-bit tag ends just below 2^39.
    const Addr top = (Addr(1) << 39) - blockBytes;
    EXPECT_FALSE(ms.access(c0, top, AccessType::Write).l1Hit);
    EXPECT_TRUE(ms.access(c0, top, AccessType::Read).l1Hit);

    testing::internal::CaptureStderr();
    EXPECT_THROW(ms.access(c0, top + blockBytes, AccessType::Read),
                 FatalError);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.rfind("fatal: ", 0), 0u) << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
}

TEST(MemSystem, LatencyTiers)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);

    // Cold: L1 miss + L2 miss -> memory.
    auto r = ms.access(c0, 0x1000, AccessType::Read);
    EXPECT_FALSE(r.l1Hit);
    EXPECT_EQ(r.latency, 3u + 12u + 100u);

    // Warm: L1 hit.
    r = ms.access(c0, 0x1000, AccessType::Read);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, 3u);
}

TEST(MemSystem, MesiReadSharing)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Read);
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Exclusive);

    ms.access(c1, 0x40, AccessType::Read);
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Shared);
    EXPECT_EQ(ms.probeL1(c1, 0x40)->state, CoherState::Shared);
}

TEST(MemSystem, MesiWriteInvalidates)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Read);
    ms.access(c1, 0x40, AccessType::Write);
    EXPECT_EQ(ms.probeL1(c0, 0x40), nullptr); // invalidated
    EXPECT_EQ(ms.probeL1(c1, 0x40)->state, CoherState::Modified);
}

TEST(MemSystem, SilentUpgradeFromExclusive)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Read); // E
    const auto r = ms.access(c0, 0x40, AccessType::Write);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, 3u); // silent E->M
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Modified);
}

TEST(MemSystem, UpgradeFromSharedCostsBus)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Read);
    ms.access(c1, 0x40, AccessType::Read); // both Shared
    const auto r = ms.access(c0, 0x40, AccessType::Write);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(r.latency, 3u + smallConfig().upgradeLatency);
    EXPECT_EQ(ms.probeL1(c1, 0x40), nullptr);
}

TEST(MemSystem, BusNotifiesAllButRequester)
{
    MemorySystem ms(smallConfig(), 3);
    RecordingListener l0, l1, l2;
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);
    const ContextId c2 = ms.addContext(2);
    ms.setListener(c0, &l0);
    ms.setListener(c1, &l1);
    ms.setListener(c2, &l2);

    ms.access(c0, 0x80, AccessType::Write);
    EXPECT_TRUE(l0.remote.empty());
    ASSERT_EQ(l1.remote.size(), 1u);
    EXPECT_EQ(l1.remote[0].block, 0x80u);
    EXPECT_EQ(l1.remote[0].type, AccessType::Write);
    EXPECT_EQ(l1.remote[0].from, c0);
    EXPECT_EQ(l2.remote.size(), 1u);
}

TEST(MemSystem, SiblingSeesEvenL1Hits)
{
    MemorySystem ms(smallConfig(), 1);
    RecordingListener l0, l1;
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(0); // SMT sibling, same L1
    ms.setListener(c0, &l0);
    ms.setListener(c1, &l1);

    ms.access(c0, 0x40, AccessType::Read); // miss: sibling + bus
    ms.access(c0, 0x40, AccessType::Read); // hit: sibling only
    EXPECT_EQ(l1.remote.size(), 2u);
    EXPECT_TRUE(l0.remote.empty());
}

TEST(MemSystem, EvictionNotifiesSharers)
{
    MemConfig cfg = smallConfig(); // 2 sets x 8 ways
    MemorySystem ms(cfg, 1);
    RecordingListener l0;
    const ContextId c0 = ms.addContext(0);
    ms.setListener(c0, &l0);

    // Fill one set (stride 128 = 2 sets * 64B) past associativity.
    for (Addr i = 0; i <= 8; ++i)
        ms.access(c0, i * 128, AccessType::Read);
    ASSERT_EQ(l0.evictions.size(), 1u);
    EXPECT_EQ(l0.evictions[0], 0u); // LRU victim was the first block
}

TEST(MemSystem, DirtyPeerSuppliesAndL2Catches)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Write); // M in c0
    ms.access(c1, 0x40, AccessType::Read);  // c0 downgrades, wb to L2
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Shared);
    EXPECT_GE(ms.statGroup().counter("writebacks").value(), 1u);
}

// ---- directory: sharer-mask maintenance ---------------------------

TEST(Directory, FillSetsMaskAndDecidesExclusiveVsShared)
{
    MemorySystem ms(smallConfig(), 2);
    ASSERT_TRUE(ms.directoryActive());
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b01u); // only L1 0
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Exclusive);

    ms.access(c1, 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b11u); // both L1s
    // The directory found the peer: the fill must be Shared, and the
    // peer's exclusive copy downgrades.
    EXPECT_EQ(ms.probeL1(c1, 0x40)->state, CoherState::Shared);
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Shared);
}

TEST(Directory, EvictionClearsMask)
{
    MemorySystem ms(smallConfig(), 1); // L1: 2 sets x 8 ways
    const ContextId c0 = ms.addContext(0);

    for (Addr i = 0; i <= 8; ++i) // overflow set 0; evicts block 0
        ms.access(c0, i * 128, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0), 0u);
    EXPECT_EQ(ms.sharerMaskOf(8 * 128), 0b1u);
}

TEST(Directory, UpgradeAndReadExclInvalidatePeerBits)
{
    MemorySystem ms(smallConfig(), 3);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);
    const ContextId c2 = ms.addContext(2);

    ms.access(c0, 0x40, AccessType::Read);
    ms.access(c1, 0x40, AccessType::Read);
    ms.access(c2, 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b111u);

    // Upgrade (write hit on Shared) invalidates both peers' copies and
    // their directory bits.
    ms.access(c0, 0x40, AccessType::Write);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b001u);
    EXPECT_EQ(ms.probeL1(c1, 0x40), nullptr);
    EXPECT_EQ(ms.probeL1(c2, 0x40), nullptr);

    // ReadExcl (write miss) steals the block.
    ms.access(c1, 0x40, AccessType::Write);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b010u);
    EXPECT_EQ(ms.probeL1(c0, 0x40), nullptr);
}

TEST(Directory, OwnerHandoffOnReadDowngradesThenStealBack)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 0x40, AccessType::Write); // M at L1 0
    ms.access(c1, 0x40, AccessType::Read); // downgrade: both Shared
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b11u);
    ms.access(c1, 0x40, AccessType::Write); // upgrade: only L1 1
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b10u);
}

TEST(Directory, PinnedLineEvictionStillClearsMask)
{
    MemConfig cfg = smallConfig();
    MemorySystem ms(cfg, 1);
    const ContextId c0 = ms.addContext(0);
    // Pin everything: insertions must still evict (pinned fallback) and
    // the directory must track the forced victim.
    PinAllListener pin_all;
    ms.setListener(c0, &pin_all);
    ms.pinTrackedLines(c0);
    for (Addr i = 0; i <= 8; ++i)
        ms.access(c0, i * 128, AccessType::Read);
    std::uint64_t tracked = 0;
    for (Addr i = 0; i <= 8; ++i) {
        tracked += ms.sharerMaskOf(i * 128) != 0 ? 1 : 0;
        if (const CacheLine *line = ms.probeL1(c0, i * 128)) {
            EXPECT_EQ(line->txMask, 1u) << "line " << i << " unpinned";
        }
    }
    EXPECT_EQ(tracked, 8u); // 9 fills, one eviction, 8 resident
}

TEST(Directory, StaleSharerBitHealsOnMissedProbe)
{
    // Force a stale directory bit by hand, then confirm a snooped
    // access heals it instead of misbehaving.
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    ms.addContext(1);
    Directory *dir = ms.directory();
    ASSERT_NE(dir, nullptr);
    dir->recordFill(0x40, /*l1=*/1); // stale bit
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b10u);

    // c0's miss probes L1 1 (per the stale mask), finds nothing, and
    // heals the bit; with no real peer copy the fill is Exclusive,
    // exactly as the broadcast path would decide.
    ms.access(c0, 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0b01u);
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Exclusive);
}

TEST(Directory, DisabledConfigFallsBackToBroadcast)
{
    MemConfig cfg = smallConfig();
    cfg.directory = false;
    MemorySystem ms(cfg, 2);
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);
    EXPECT_FALSE(ms.directoryActive());
    EXPECT_EQ(ms.directory(), nullptr);

    ms.access(c0, 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), 0u); // directory not maintained
    ms.access(c1, 0x40, AccessType::Read);
    // Broadcast snoop still finds the peer copy.
    EXPECT_EQ(ms.probeL1(c0, 0x40)->state, CoherState::Shared);
}

TEST(Directory, TrackerMaskRegistersAndClears)
{
    Directory dir;
    dir.txTrack(0x40, 3);
    dir.txTrack(0x40, 5);
    dir.txTrack(0x80, 3);
    EXPECT_EQ(dir.txTrackers(0x40), (1u << 3) | (1u << 5));
    EXPECT_EQ(dir.txTrackers(0x80), 1u << 3);
    dir.txUntrack(0x40, 3);
    EXPECT_EQ(dir.txTrackers(0x40), 1u << 5);
    dir.txUntrack(0x40, 5);
    EXPECT_EQ(dir.txTrackers(0x40), 0u);
    // Untracking an absent block is a no-op, not a crash.
    dir.txUntrack(0xF00, 1);
}

TEST(Directory, SigActiveMaskToggles)
{
    Directory dir;
    EXPECT_EQ(dir.sigActiveMask(), 0u);
    dir.setSigActive(2, true);
    dir.setSigActive(7, true);
    EXPECT_EQ(dir.sigActiveMask(), (1u << 2) | (1u << 7));
    dir.setSigActive(2, false);
    EXPECT_EQ(dir.sigActiveMask(), 1u << 7);
}

TEST(Directory, GrowRehashPreservesAllMasks)
{
    Directory dir(/*initial_slots=*/64);
    const std::size_t cap0 = dir.capacity();
    for (Addr i = 0; i < 256; ++i) {
        dir.recordFill(i * 64, unsigned(i % 8));
        dir.txTrack(i * 64, unsigned(i % 16));
    }
    EXPECT_GT(dir.capacity(), cap0); // grew at least once
    for (Addr i = 0; i < 256; ++i) {
        EXPECT_EQ(dir.sharers(i * 64), std::uint64_t(1) << (i % 8));
        EXPECT_EQ(dir.txTrackers(i * 64), std::uint64_t(1) << (i % 16));
    }
    EXPECT_EQ(dir.trackedBlocks(), 256u);
}

TEST(Directory, LiveOnlyTableMatchesMapReference)
{
    // A seeded mix of the four mask updates must leave, after every
    // step, exactly the blocks of a map that forgets a block once both
    // of its masks are zero, each with the same masks. Phase 1 keeps a
    // 64-slot table and crowds its last slots, so probe chains wrap
    // past the end and backward-shift deletion moves entries across
    // it; phase 2 grows the table and then drains it.
    using Masks = std::pair<std::uint64_t, std::uint64_t>;
    Directory dir(/*initial_slots=*/64);
    std::unordered_map<Addr, Masks> ref;
    std::mt19937 rng(7);
    std::size_t peak = 0;

    const auto home = [](Addr b) {
        return std::size_t(b * 0x9E3779B97F4A7C15ull >> 32) & 63;
    };
    std::vector<Addr> crowded, other;
    for (Addr b = 0; crowded.size() < 24 || other.size() < 16; b += 64) {
        if (home(b) >= 60 && crowded.size() < 24)
            crowded.push_back(b);
        else if (home(b) < 60 && other.size() < 16)
            other.push_back(b);
    }
    std::vector<Addr> pool = crowded;
    pool.insert(pool.end(), other.begin(), other.end());

    const auto step = [&](unsigned steps, unsigned remove_pct) {
        for (unsigned n = 0; n < steps; ++n) {
            const std::uint32_t r = rng();
            const Addr b = pool[r % pool.size()];
            const unsigned bit = (r >> 12) % 4;
            const std::uint64_t m = std::uint64_t(1) << bit;
            const bool remove = (r >> 16) % 100 < remove_pct;
            const bool tracker = (r >> 24) % 2;
            if (!remove) {
                Masks &e = ref[b];
                if (tracker) {
                    dir.txTrack(b, bit);
                    e.second |= m;
                } else {
                    dir.recordFill(b, bit);
                    e.first |= m;
                }
            } else {
                if (tracker)
                    dir.txUntrack(b, bit);
                else
                    dir.removeSharer(b, bit);
                auto it = ref.find(b);
                if (it != ref.end()) {
                    (tracker ? it->second.second : it->second.first) &= ~m;
                    if (it->second.first == 0 && it->second.second == 0)
                        ref.erase(it);
                }
            }
            peak = std::max(peak, ref.size());
            ASSERT_EQ(dir.size(), ref.size()) << "step " << n;
            for (const Addr p : pool) {
                const auto it = ref.find(p);
                const Masks want = it == ref.end() ? Masks{} : it->second;
                ASSERT_EQ(dir.sharers(p), want.first) << "step " << n;
                ASSERT_EQ(dir.txTrackers(p), want.second) << "step " << n;
            }
            // A table grows only when its live blocks fill 3/4 of it.
            ASSERT_TRUE(dir.capacity() == 64 ||
                        dir.capacity() * 3 < peak * 8)
                << "capacity " << dir.capacity() << ", peak " << peak;
        }
    };

    step(20000, 45);
    EXPECT_EQ(dir.capacity(), 64u);
    EXPECT_GT(peak, 30u);

    for (Addr b = 1 << 20; pool.size() < 400; b += 64)
        pool.push_back(b);
    step(20000, 30);
    EXPECT_GT(dir.capacity(), 64u);
    step(20000, 100);
    EXPECT_LT(ref.size(), peak / 4);
}

TEST(Directory, HoldsOnlyBlocksSomeL1Caches)
{
    // Evictions and invalidations hand slots back: after a churn of
    // fills, write steals and evictions the table holds exactly the
    // blocks resident in some L1.
    MemorySystem ms(smallConfig(), 2); // 16 lines per L1
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);
    for (unsigned step = 0; step < 500; ++step) {
        const Addr a = Addr(step * 7919 % 97) * 64;
        ms.access(step % 2 ? c1 : c0, a,
                  step % 3 ? AccessType::Read : AccessType::Write);
    }
    std::size_t resident = 0;
    for (Addr b = 0; b < 97; ++b) {
        const std::uint64_t want =
            (ms.probeL1(c0, b * 64) ? 1u : 0u) |
            (ms.probeL1(c1, b * 64) ? 2u : 0u);
        EXPECT_EQ(ms.sharerMaskOf(b * 64), want) << "block " << b;
        resident += want != 0;
    }
    EXPECT_EQ(ms.directory()->size(), resident);
    EXPECT_LE(resident, 32u);
}

TEST(Directory, L1HitWithoutSiblingsClaimsNoSlot)
{
    MemorySystem ms(smallConfig(), 2);
    const ContextId c0 = ms.addContext(0);
    ms.access(c0, 0x40, AccessType::Read);
    Directory *dir = ms.directory();
    ASSERT_EQ(dir->size(), 1u);
    // Drop the entry by hand: a hit that claimed the block's slot would
    // bring an empty one back.
    dir->removeSharer(0x40, 0);
    ASSERT_EQ(dir->size(), 0u);
    EXPECT_TRUE(ms.access(c0, 0x40, AccessType::Read).l1Hit);
    EXPECT_TRUE(ms.access(c0, 0x40, AccessType::Write).l1Hit); // E -> M
    EXPECT_EQ(dir->size(), 0u);
}

TEST(Directory, WideMasksCoverSixtyFourL1s)
{
    MemorySystem ms(smallConfig(), 64);
    ASSERT_TRUE(ms.directoryActive());
    std::vector<ContextId> ids;
    for (unsigned i = 0; i < 64; ++i)
        ids.push_back(ms.addContext(i));
    for (unsigned i = 0; i < 64; ++i)
        ms.access(ids[i], 0x40, AccessType::Read);
    EXPECT_EQ(ms.sharerMaskOf(0x40), ~std::uint64_t(0));
    // A write from the highest L1 invalidates the other 63 copies.
    ms.access(ids[63], 0x40, AccessType::Write);
    EXPECT_EQ(ms.sharerMaskOf(0x40), std::uint64_t(1) << 63);
}

// ---- NUMA latency tiers --------------------------------------------

TEST(Numa, FlatConfigChargesNoPenalty)
{
    MemConfig cfg = smallConfig(); // numaNodes = 1
    MemorySystem ms(cfg, 2);
    const ContextId c0 = ms.addContext(0);
    const auto r = ms.access(c0, 0x1000, AccessType::Read);
    EXPECT_EQ(r.latency, 3u + 12u + 100u);
    EXPECT_EQ(ms.statGroup().counter("numa_remote").value(), 0u);
}

TEST(Numa, RemoteHomeMissPaysExtra)
{
    MemConfig cfg = smallConfig();
    cfg.numaNodes = 2;
    cfg.numaRemoteLatency = 24;
    MemorySystem ms(cfg, 4); // L1s 0,1 -> node 0; 2,3 -> node 1
    const ContextId c0 = ms.addContext(0);
    const ContextId c2 = ms.addContext(2);
    EXPECT_EQ(ms.nodeOfL1(0), 0u);
    EXPECT_EQ(ms.nodeOfL1(3), 1u);

    // Block 0 homes on node 0: local for c0, remote for c2.
    EXPECT_EQ(ms.homeNodeOf(0), 0u);
    auto r = ms.access(c0, 0, AccessType::Read);
    EXPECT_EQ(r.latency, 3u + 12u + 100u);
    r = ms.access(c2, 64, AccessType::Read); // block 1 homes on node 1
    EXPECT_EQ(ms.homeNodeOf(64), 1u);
    EXPECT_EQ(r.latency, 3u + 12u + 100u); // local to c2's node
    r = ms.access(c2, 128, AccessType::Read); // block 2 -> node 0: remote
    EXPECT_EQ(r.latency, 3u + 12u + 100u + 24u);
    EXPECT_EQ(ms.statGroup().counter("numa_remote").value(), 1u);
}

TEST(Numa, UpgradePaysRemotePenaltyAndL1HitsDoNot)
{
    MemConfig cfg = smallConfig();
    cfg.numaNodes = 2;
    cfg.numaRemoteLatency = 24;
    MemorySystem ms(cfg, 2); // L1 0 -> node 0, L1 1 -> node 1
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);

    ms.access(c0, 128, AccessType::Read); // block 2 homes on node 0
    ms.access(c1, 128, AccessType::Read); // both Shared
    // L1 hits never touch the bus: no penalty regardless of home.
    const auto hit = ms.access(c1, 128, AccessType::Read);
    EXPECT_EQ(hit.latency, 3u);
    // c1's upgrade is a bus transaction homed on the remote node 0.
    const auto up = ms.access(c1, 128, AccessType::Write);
    EXPECT_EQ(up.latency, 3u + smallConfig().upgradeLatency + 24u);
}

TEST(Numa, PenaltyIsIdenticalWithAndWithoutDirectory)
{
    const auto run = [](bool directory_on) {
        MemConfig cfg = smallConfig();
        cfg.directory = directory_on;
        cfg.numaNodes = 2;
        MemorySystem ms(cfg, 4);
        std::vector<ContextId> ids;
        for (unsigned i = 0; i < 4; ++i)
            ids.push_back(ms.addContext(i));
        Cycle total = 0;
        for (unsigned step = 0; step < 300; ++step) {
            const Addr a = Addr(step * 7919 % 37) * 128;
            const AccessType t = (step % 4 == 0) ? AccessType::Write
                                                 : AccessType::Read;
            total += ms.access(ids[step % 4], a, t).latency;
        }
        return total;
    };
    EXPECT_EQ(run(true), run(false));
}

// ---- tracker-filtered listener delivery ----------------------------

TEST(TrackerFiltering, FilteredListenerSeesOnlyTrackedBlocks)
{
    MemorySystem ms(smallConfig(), 2);
    RecordingListener l1;
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(1);
    ms.setListener(c1, &l1);
    ms.setListenerTxFiltered(c1, true);
    Directory *dir = ms.directory();
    ASSERT_NE(dir, nullptr);
    dir->txTrack(0x80, unsigned(c1));

    ms.access(c0, 0x80, AccessType::Write); // tracked -> delivered
    ms.access(c0, 0xC0, AccessType::Write); // untracked -> skipped
    ASSERT_EQ(l1.remote.size(), 1u);
    EXPECT_EQ(l1.remote[0].block, 0x80u);

    // Signature-active contexts see every remote write again.
    dir->setSigActive(unsigned(c1), true);
    ms.access(c0, 0x100, AccessType::Write);
    ASSERT_EQ(l1.remote.size(), 2u);
    EXPECT_EQ(l1.remote[1].block, 0x100u);

    // Dropping the filter restores full delivery.
    ms.setListenerTxFiltered(c1, false);
    dir->setSigActive(unsigned(c1), false);
    ms.access(c0, 0x140, AccessType::Write);
    EXPECT_EQ(l1.remote.size(), 3u);
}

TEST(TrackerFiltering, SiblingSeesOnlyTrackedAccessesAndSignatureWrites)
{
    // Same-L1 siblings obey the bus rule: a filtered sibling hears an
    // access only to a block it tracks, plus any write while its read
    // signature is active — L1 hits included.
    MemorySystem ms(smallConfig(), 1);
    RecordingListener l1;
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(0); // SMT sibling, same L1
    ms.setListener(c1, &l1);
    ms.setListenerTxFiltered(c1, true);
    Directory *dir = ms.directory();
    ASSERT_NE(dir, nullptr);
    dir->txTrack(0x80, unsigned(c1));

    ms.access(c0, 0x80, AccessType::Read);  // tracked -> delivered
    ms.access(c0, 0x80, AccessType::Read);  // L1 hit, tracked -> delivered
    ms.access(c0, 0xC0, AccessType::Read);  // untracked -> skipped
    ms.access(c0, 0xC0, AccessType::Write); // no signature -> skipped
    ASSERT_EQ(l1.remote.size(), 2u);
    EXPECT_EQ(l1.remote[0].block, 0x80u);
    EXPECT_EQ(l1.remote[1].block, 0x80u);

    dir->setSigActive(unsigned(c1), true);
    ms.access(c0, 0x100, AccessType::Read);  // untracked read -> skipped
    ms.access(c0, 0x100, AccessType::Write); // signature write -> delivered
    ASSERT_EQ(l1.remote.size(), 3u);
    EXPECT_EQ(l1.remote[2].block, 0x100u);
    EXPECT_EQ(l1.remote[2].type, AccessType::Write);
    EXPECT_EQ(l1.remote[2].from, c0);
}

TEST(TrackerFiltering, SiblingSeesOnlyEvictionsOfTrackedBlocks)
{
    // An eviction can only cost a filtered listener a block it tracks;
    // an active signature does not widen eviction delivery.
    MemorySystem ms(smallConfig(), 1); // 2 sets x 8 ways
    RecordingListener l1;
    const ContextId c0 = ms.addContext(0);
    const ContextId c1 = ms.addContext(0); // SMT sibling, same L1
    ms.setListener(c1, &l1);
    ms.setListenerTxFiltered(c1, true);
    Directory *dir = ms.directory();
    ASSERT_NE(dir, nullptr);
    dir->txTrack(0x80, unsigned(c1));
    dir->setSigActive(unsigned(c1), true);

    // Ten blocks into one set: the two LRU victims are 0x0 (untracked)
    // and then 0x80 (tracked).
    for (Addr i = 0; i < 10; ++i)
        ms.access(c0, i * 128, AccessType::Read);
    ASSERT_EQ(l1.evictions.size(), 1u);
    EXPECT_EQ(l1.evictions[0], 0x80u);
}

// ---- filtered vs broadcast equivalence at the event level ----------

TEST(Directory, FilteredAndBroadcastDeliverIdenticalEventTraces)
{
    // Drive both modes through an access pattern exercising fills,
    // sharing, upgrades, write-steals and evictions; every listener
    // event and all final states/stats must match exactly.
    const auto drive = [](MemorySystem &ms, RecordingListener *ls) {
        const ContextId c0 = ms.addContext(0);
        const ContextId c1 = ms.addContext(1);
        const ContextId c2 = ms.addContext(0); // SMT sibling of c0
        ms.setListener(c0, &ls[0]);
        ms.setListener(c1, &ls[1]);
        ms.setListener(c2, &ls[2]);
        const ContextId ids[3] = {c0, c1, c2};
        for (unsigned step = 0; step < 200; ++step) {
            const ContextId c = ids[step % 3];
            const Addr a = Addr(step * 7919 % 23) * 128;
            const AccessType t = (step % 5 == 0) ? AccessType::Write
                                                 : AccessType::Read;
            ms.access(c, a, t);
        }
    };

    MemConfig on = smallConfig();
    MemConfig off = smallConfig();
    off.directory = false;
    MemorySystem msOn(on, 2), msOff(off, 2);
    RecordingListener lsOn[3], lsOff[3];
    drive(msOn, lsOn);
    drive(msOff, lsOff);

    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(lsOn[i].remote.size(), lsOff[i].remote.size());
        for (std::size_t j = 0; j < lsOn[i].remote.size(); ++j) {
            EXPECT_EQ(lsOn[i].remote[j].block, lsOff[i].remote[j].block);
            EXPECT_EQ(lsOn[i].remote[j].type, lsOff[i].remote[j].type);
            EXPECT_EQ(lsOn[i].remote[j].from, lsOff[i].remote[j].from);
        }
        EXPECT_EQ(lsOn[i].evictions, lsOff[i].evictions);
    }
    for (const auto &[name, ctr] : msOn.statGroup().counters()) {
        EXPECT_EQ(ctr.value(),
                  msOff.statGroup().counter(name).value())
            << "counter " << name;
    }
}
