/**
 * @file
 * Unit tests for the HTM layer: transactional buffer, PBX signature
 * (no false negatives, clear semantics, measurable aliasing), and the
 * controller's behavior per configuration — capacity rules, conflict
 * detection against read/write sets, signature spills and false
 * conflicts, L1TM eviction aborts, page-mode aborts, abort bookkeeping
 * and the undo-hook contract.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "htm/controller.hh"
#include "htm/signature.hh"
#include "htm/tx_buffer.hh"
#include "mem/mem_system.hh"

using namespace hintm;
using namespace hintm::htm;

namespace
{

Addr
blk(unsigned i)
{
    return Addr(i) * blockBytes;
}

struct ControllerFixture
{
    HtmStats stats;
    HtmConfig cfg;
    std::unique_ptr<HtmController> ctl;
    unsigned undoCalls = 0;

    explicit ControllerFixture(HtmKind kind, unsigned entries = 4)
    {
        cfg.kind = kind;
        cfg.bufferEntries = entries;
        cfg.signatureBits = 256;
        ctl = std::make_unique<HtmController>(cfg, 0, &stats);
        ctl->setUndoHook([this] { ++undoCalls; });
    }
};

/**
 * Two L1TM controllers sharing one L1 of one set (2-way SMT): every
 * block lands in the same set, so each fill chooses among all lines.
 */
struct SharedL1
{
    HtmStats stats;
    std::unique_ptr<mem::MemorySystem> ms;
    std::unique_ptr<HtmController> h[2];

    explicit SharedL1(unsigned ways)
    {
        mem::MemConfig mc;
        mc.l1SizeBytes = ways * blockBytes;
        mc.l1Assoc = ways;
        mc.l2SizeBytes = 16 * 1024;
        ms = std::make_unique<mem::MemorySystem>(mc, 1);
        HtmConfig cfg;
        cfg.kind = HtmKind::L1TM;
        for (mem::ContextId c : {0, 1}) {
            EXPECT_EQ(ms->addContext(0), c);
            h[c] = std::make_unique<HtmController>(cfg, c, &stats);
            ms->setListener(c, h[c].get());
            h[c]->attachL1(ms.get());
        }
    }

    /** Track (unless @p tracked is false), then perform the access. */
    void
    access(mem::ContextId c, Addr a, AccessType t, bool tracked = true)
    {
        if (tracked)
            h[c]->trackAccess(a, t, false);
        ms->access(c, a, t);
    }

    mem::TxMask
    bits(Addr a) const
    {
        const mem::CacheLine *line = ms->probeL1(0, a);
        return line ? line->txMask : mem::TxMask(0);
    }
};

} // namespace

TEST(TxBuffer, TracksUntilCapacity)
{
    TxBuffer buf(2);
    EXPECT_EQ(buf.track(blk(1), AccessType::Read), Tracked | NewlyRead);
    // Same entry: tracked, write bit newly set.
    EXPECT_EQ(buf.track(blk(1), AccessType::Write),
              Tracked | NewlyWritten);
    // Repeats set no new direction bit.
    EXPECT_EQ(buf.track(blk(1), AccessType::Read), Tracked);
    EXPECT_EQ(buf.track(blk(2), AccessType::Read), Tracked | NewlyRead);
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.track(blk(3), AccessType::Read), TrackFailed);
    EXPECT_EQ(buf.size(), 2u);

    const TxBufferEntry *e = buf.find(blk(1));
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->read);
    EXPECT_TRUE(e->written);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
}

TEST(TxBuffer, ReadOnlyVictimSelection)
{
    TxBuffer buf(3);
    buf.track(blk(1), AccessType::Write);
    buf.track(blk(2), AccessType::Read);
    const Addr v = buf.findReadOnlyVictim();
    EXPECT_EQ(v, blk(2));
    buf.track(blk(2), AccessType::Write);
    EXPECT_EQ(buf.findReadOnlyVictim(), ~Addr(0));
}

TEST(Signature, NoFalseNegatives)
{
    Signature sig(1024, 2);
    for (unsigned i = 0; i < 200; ++i)
        sig.insert(blk(i * 7));
    for (unsigned i = 0; i < 200; ++i)
        EXPECT_TRUE(sig.test(blk(i * 7))) << i;
}

TEST(Signature, EmptyMatchesNothing)
{
    Signature sig(1024, 2);
    EXPECT_TRUE(sig.empty());
    EXPECT_FALSE(sig.test(blk(1)));
    sig.insert(blk(1));
    EXPECT_FALSE(sig.empty());
    sig.clear();
    EXPECT_TRUE(sig.empty());
    EXPECT_FALSE(sig.test(blk(1)));
}

TEST(Signature, AliasingGrowsWithOccupancy)
{
    Signature sig(256, 2);
    unsigned false_hits = 0;
    for (unsigned i = 0; i < 300; ++i)
        sig.insert(blk(i));
    for (unsigned i = 1000; i < 1300; ++i)
        false_hits += sig.test(blk(i));
    // A near-saturated 256-bit vector must alias heavily.
    EXPECT_GT(false_hits, 100u);
    EXPECT_GT(sig.occupancy(), 0.5);
}

TEST(Controller, CommitClearsState)
{
    ControllerFixture f(HtmKind::P8);
    f.ctl->beginTx(100);
    f.ctl->trackAccess(blk(1), AccessType::Write, false);
    EXPECT_EQ(f.ctl->trackedBlocks(), 1u);
    f.ctl->commitTx(200);
    EXPECT_FALSE(f.ctl->inTx());
    EXPECT_EQ(f.ctl->trackedBlocks(), 0u);
    EXPECT_EQ(f.stats.commits, 1u);
    EXPECT_EQ(f.stats.trackedAtCommit.max(), 1u);
}

TEST(Controller, SafeAccessesAreNotTracked)
{
    ControllerFixture f(HtmKind::P8);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 100; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Read, /*safe=*/true);
    EXPECT_EQ(f.ctl->trackedBlocks(), 0u);
    EXPECT_FALSE(f.ctl->abortPending());
    // A remote write to a safe (untracked) block cannot conflict.
    f.ctl->onRemoteAccess(blk(5), AccessType::Write, 1);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->commitTx(10);
}

TEST(Controller, P8CapacityAbortsAndRunsUndoHook)
{
    ControllerFixture f(HtmKind::P8, 4);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 4; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Read, false);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->trackAccess(blk(99), AccessType::Read, false);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Capacity);
    EXPECT_EQ(f.undoCalls, 1u);

    const AbortReason r = f.ctl->acknowledgeAbort(500);
    EXPECT_EQ(r, AbortReason::Capacity);
    EXPECT_FALSE(f.ctl->inTx());
    EXPECT_EQ(f.stats.aborts[unsigned(AbortReason::Capacity)], 1u);
    EXPECT_GE(f.stats.cyclesLost[unsigned(AbortReason::Capacity)], 500u);
}

TEST(Controller, ConflictRules)
{
    ControllerFixture f(HtmKind::P8, 8);
    f.ctl->beginTx(0);
    f.ctl->trackAccess(blk(1), AccessType::Read, false);
    f.ctl->trackAccess(blk(2), AccessType::Write, false);

    // Remote read vs our read: no conflict.
    f.ctl->onRemoteAccess(blk(1), AccessType::Read, 1);
    EXPECT_FALSE(f.ctl->abortPending());
    // Remote read vs our write: conflict.
    f.ctl->onRemoteAccess(blk(2), AccessType::Read, 1);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Conflict);
    f.ctl->acknowledgeAbort(10);

    // Remote write vs our read: conflict.
    f.ctl->beginTx(20);
    f.ctl->trackAccess(blk(1), AccessType::Read, false);
    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 1);
    EXPECT_TRUE(f.ctl->abortPending());
}

TEST(Controller, FirstAbortReasonWins)
{
    ControllerFixture f(HtmKind::P8, 8);
    f.ctl->beginTx(0);
    f.ctl->trackAccess(blk(1), AccessType::Write, false);
    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 1);
    ASSERT_TRUE(f.ctl->abortPending());
    f.ctl->requestAbort(AbortReason::FallbackLock);
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Conflict);
    EXPECT_EQ(f.undoCalls, 1u); // hook ran exactly once
}

TEST(Controller, P8SReadsSpillToSignature)
{
    ControllerFixture f(HtmKind::P8S, 4);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 20; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Read, false);
    EXPECT_FALSE(f.ctl->abortPending());
    EXPECT_EQ(f.stats.signatureSpills, 16u);
    // A spilled read is still precisely conflict-checked.
    f.ctl->onRemoteAccess(blk(10), AccessType::Write, 1);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Conflict);
}

TEST(Controller, P8SWriteDisplacesReadOnlyEntry)
{
    ControllerFixture f(HtmKind::P8S, 4);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 4; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Read, false);
    // Buffer full of reads; a new write displaces one read.
    f.ctl->trackAccess(blk(50), AccessType::Write, false);
    EXPECT_FALSE(f.ctl->abortPending());
    EXPECT_TRUE(f.ctl->writesBlock(blk(50)));

    // Fill the buffer with writes; the next write aborts.
    for (unsigned i = 51; i < 54; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Write, false);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->trackAccess(blk(60), AccessType::Write, false);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Capacity);
}

TEST(Controller, P8SFalseConflictFromAliasing)
{
    // 1-hash tiny signature: trivial to alias deliberately.
    HtmStats stats;
    HtmConfig cfg;
    cfg.kind = HtmKind::P8S;
    cfg.bufferEntries = 1;
    cfg.signatureBits = 64;
    cfg.signatureHashes = 1;
    HtmController ctl(cfg, 0, &stats);
    ctl.beginTx(0);
    ctl.trackAccess(blk(0), AccessType::Read, false);
    ctl.trackAccess(blk(1), AccessType::Read, false); // spills: bit 1
    // blk(65) hashes to the same bit as blk(1) under pure low-bit
    // folding (65 % 64 == 1 with a zero high field contribution).
    bool aliased = false;
    for (unsigned i = 2; i < 4096 && !aliased; ++i) {
        if (!ctl.readsBlock(blk(i))) {
            ctl.onRemoteAccess(blk(i), AccessType::Write, 1);
            aliased = ctl.abortPending();
            if (aliased) {
                EXPECT_EQ(ctl.pendingReason(),
                          AbortReason::FalseConflict);
            }
        }
    }
    EXPECT_TRUE(aliased);
}

TEST(Controller, L1TMEvictionOfTrackedLineAborts)
{
    ControllerFixture f(HtmKind::L1TM);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 200; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Read, false);
    EXPECT_FALSE(f.ctl->abortPending()); // unbounded controller side
    f.ctl->onEviction(blk(77), false);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Capacity);
}

TEST(Controller, L1TMEvictionOfUntrackedLineIsHarmless)
{
    ControllerFixture f(HtmKind::L1TM);
    f.ctl->beginTx(0);
    f.ctl->trackAccess(blk(1), AccessType::Read, false);
    f.ctl->onEviction(blk(99), true);
    EXPECT_FALSE(f.ctl->abortPending());
}

TEST(L1TxBits, TrackBeforeMissAndTrackAfterHitBothSetTheBit)
{
    SharedL1 f(4);
    f.h[0]->beginTx(0);
    f.h[1]->beginTx(0);
    // handleMem order: the track precedes the access that fills the
    // block, so the fill seeds the bit.
    f.access(0, blk(1), AccessType::Write);
    EXPECT_EQ(f.bits(blk(1)), 0b01u);
    // Lock-subscription order: the access fills first, the track then
    // marks the resident line. The sibling's bit is its slot's.
    f.ms->access(1, blk(2), AccessType::Read);
    EXPECT_EQ(f.bits(blk(2)), 0u);
    f.h[1]->trackAccess(blk(2), AccessType::Read, false);
    EXPECT_EQ(f.bits(blk(2)), 0b10u);
    // Both contexts tracking one block: both bits.
    f.h[0]->trackAccess(blk(2), AccessType::Read, false);
    EXPECT_EQ(f.bits(blk(2)), 0b11u);
}

TEST(L1TxBits, TxEndClearsOnlyItsOwnBits)
{
    SharedL1 f(4);
    f.h[0]->beginTx(0);
    f.h[1]->beginTx(0);
    f.access(0, blk(1), AccessType::Read);
    f.access(1, blk(1), AccessType::Read);
    f.access(1, blk(2), AccessType::Write);
    EXPECT_EQ(f.bits(blk(1)), 0b11u);
    f.h[0]->commitTx(1);
    EXPECT_EQ(f.bits(blk(1)), 0b10u);
    // An acknowledged abort ends the TX too.
    f.h[1]->requestAbort(AbortReason::Conflict);
    EXPECT_EQ(f.bits(blk(1)), 0b10u); // pending: still tracked
    f.h[1]->acknowledgeAbort(2);
    EXPECT_EQ(f.bits(blk(1)), 0u);
    EXPECT_EQ(f.bits(blk(2)), 0u);
}

TEST(L1TxBits, RefillOfABlockAPendingSiblingStillTracksIsPinned)
{
    SharedL1 f(2);
    f.h[0]->beginTx(0);
    f.h[1]->beginTx(0);
    const Addr b = blk(1), x = blk(2), y = blk(3), z = blk(4);
    f.access(0, b, AccessType::Read);
    f.access(1, x, AccessType::Read);
    // Both ways pinned: the fill of y displaces the LRU pinned line, b,
    // which aborts context 0. The abort stays pending until context 0
    // steps again; until then its TX still tracks b.
    f.access(1, y, AccessType::Read, /*tracked=*/false);
    EXPECT_EQ(f.ms->probeL1(0, b), nullptr);
    ASSERT_TRUE(f.h[0]->abortPending());
    ASSERT_TRUE(f.h[0]->inTx());
    f.h[1]->commitTx(1); // x unpinned
    // Context 1 refills b: the fill asks context 0, whose pending TX
    // still tracks b, so the line comes back pinned.
    f.access(1, b, AccessType::Read, /*tracked=*/false);
    EXPECT_EQ(f.bits(b), 0b01u);
    f.ms->access(1, y, AccessType::Read); // y is now more recent than b
    f.ms->access(1, z, AccessType::Read);
    EXPECT_NE(f.ms->probeL1(0, b), nullptr) << "pinned b was evicted";
    EXPECT_EQ(f.ms->probeL1(0, y), nullptr);
    // Acknowledging the abort ends the TX and releases the pin.
    f.h[0]->acknowledgeAbort(2);
    EXPECT_EQ(f.bits(b), 0u);
}

TEST(L1TxBits, OnlyL1TMControllersPinLines)
{
    mem::MemConfig mc;
    mem::MemorySystem ms(mc, 1);
    HtmStats stats;
    HtmConfig cfg;
    cfg.kind = HtmKind::InfCap;
    const mem::ContextId c = ms.addContext(0);
    HtmController h(cfg, c, &stats);
    ms.setListener(c, &h);
    h.attachL1(&ms);
    h.beginTx(0);
    h.trackAccess(blk(1), AccessType::Read, false);
    ms.access(c, blk(1), AccessType::Read);
    EXPECT_EQ(ms.probeL1(c, blk(1))->txMask, 0u);
}

TEST(L1TxBits, MoreContextsOnOneL1ThanMaskBitsIsFatal)
{
    mem::MemorySystem ms(mem::MemConfig{}, 1);
    HtmStats stats;
    HtmConfig cfg;
    cfg.kind = HtmKind::L1TM;
    std::vector<std::unique_ptr<HtmController>> hs;
    for (unsigned i = 0; i <= mem::txMaskBits; ++i) {
        const mem::ContextId c = ms.addContext(0);
        hs.push_back(std::make_unique<HtmController>(cfg, c, &stats));
        ms.setListener(c, hs.back().get());
        if (i < mem::txMaskBits)
            hs.back()->attachL1(&ms);
        else
            EXPECT_THROW(hs.back()->attachL1(&ms), std::runtime_error);
    }
}

TEST(Controller, InfCapNeverCapacityAborts)
{
    ControllerFixture f(HtmKind::InfCap);
    f.ctl->beginTx(0);
    for (unsigned i = 0; i < 5000; ++i)
        f.ctl->trackAccess(blk(i), AccessType::Write, false);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->onEviction(blk(3), true);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->commitTx(1);
    EXPECT_EQ(f.stats.trackedAtCommit.max(), 5000u);
}

TEST(Controller, PageModeAbortOnlyForTouchedSafePages)
{
    ControllerFixture f(HtmKind::P8);
    f.ctl->beginTx(0);
    f.ctl->noteSafePageRead(10);
    f.ctl->onPageBecameUnsafe(11);
    EXPECT_FALSE(f.ctl->abortPending());
    f.ctl->onPageBecameUnsafe(10);
    EXPECT_TRUE(f.ctl->abortPending());
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::PageMode);
}

TEST(Controller, NoConflictCheckingOutsideTx)
{
    ControllerFixture f(HtmKind::P8);
    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 1);
    f.ctl->onEviction(blk(1), false);
    f.ctl->onPageBecameUnsafe(1);
    EXPECT_FALSE(f.ctl->abortPending());
}

TEST(AbortTaxonomy, TransienceClassification)
{
    EXPECT_TRUE(abortIsTransient(AbortReason::Conflict));
    EXPECT_TRUE(abortIsTransient(AbortReason::FalseConflict));
    EXPECT_TRUE(abortIsTransient(AbortReason::PageMode));
    EXPECT_TRUE(abortIsTransient(AbortReason::FallbackLock));
    EXPECT_FALSE(abortIsTransient(AbortReason::Capacity));
}

// ---- the delivery rule's premise: the memory system may skip any
// event for a block the controller does not track, because outside a
// live TX, after an abort fires, and on untracked blocks (barring a
// P8S signature) the controller ignores it --------------------------

TEST(Controller, InterestMatchesEventProcessingPredicate)
{
    ControllerFixture f(HtmKind::P8, 2);
    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 1);
    EXPECT_FALSE(f.ctl->abortPending()); // outside a TX: ignored

    f.ctl->beginTx(0);
    f.ctl->trackAccess(blk(1), AccessType::Read, false);
    ASSERT_TRUE(f.ctl->tracksBlock(blk(1)));
    ASSERT_FALSE(f.ctl->tracksBlock(blk(2)));
    f.ctl->onRemoteAccess(blk(2), AccessType::Write, 1);
    f.ctl->onEviction(blk(2), false);
    EXPECT_FALSE(f.ctl->abortPending()); // untracked block: ignored

    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 1);
    EXPECT_TRUE(f.ctl->abortPending()); // tracked block: the event mattered
    // The block stays tracked until the abort is acknowledged, but a
    // dead TX ignores every further event.
    ASSERT_TRUE(f.ctl->tracksBlock(blk(1)));
    f.ctl->onRemoteAccess(blk(1), AccessType::Write, 2);
    EXPECT_EQ(f.ctl->lastAbortCtx(), 1);
    EXPECT_EQ(f.undoCalls, 1u);
    EXPECT_EQ(f.ctl->pendingReason(), AbortReason::Conflict);
}

TEST(HtmKindNames, ByNameParsesLowerCaseSpellingOfEveryKind)
{
    const std::pair<const char *, HtmKind> table[] = {
        {"p8", HtmKind::P8},
        {"p8s", HtmKind::P8S},
        {"l1tm", HtmKind::L1TM},
        {"infcap", HtmKind::InfCap},
    };
    for (const auto &[name, kind] : table) {
        HtmKind parsed = kind == HtmKind::P8 ? HtmKind::InfCap : HtmKind::P8;
        ASSERT_TRUE(htmKindByName(name, parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
    }
}

TEST(HtmKindNames, UnknownNameLeavesOutputUntouched)
{
    // Only the lower-case CLI spelling parses, not htmKindName's.
    for (const std::string bad : {"", "P8", "InfCap", "l1", "p8s "}) {
        HtmKind k = HtmKind::L1TM;
        EXPECT_FALSE(htmKindByName(bad, k)) << '"' << bad << '"';
        EXPECT_EQ(k, HtmKind::L1TM);
    }
}
