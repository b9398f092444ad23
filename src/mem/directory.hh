/**
 * @file
 * Coherence directory: the record of which L1s hold each block (64-bit
 * sharer mask) and which hardware contexts have it in a transactional
 * read/write set, so bus probes, listener delivery and HTM conflict
 * detection all iterate true sharers — per-access cost O(sharers), not
 * O(cores). A fill's Exclusive-vs-Shared state comes from the probe of
 * those sharers, so the directory keeps no owner or stable state.
 *
 * Alongside the sharer mask, each entry carries a transactional-tracker
 * mask: the set of hardware contexts whose HTM controller currently has
 * the block in its precise read/write set (dedicated buffer or P8S
 * overflow list). Controllers register on insert and deregister when the
 * TX ends, so bus-event delivery can skip every context that provably
 * cannot conflict on the block. P8S read signatures summarize arbitrary
 * blocks, so signature-carrying contexts are recorded in a separate
 * sig-active mask and receive every remote write regardless of trackers.
 *
 * The table is open-addressing with linear probing and holds live
 * blocks only: once both masks of a slot are zero the slot is erased by
 * backward-shift deletion (no tombstones), so its size follows what the
 * L1s cache and the TXs track, not how many blocks were ever touched.
 * The directory is maintained precisely by MemorySystem, but sharer
 * lookups tolerate stale (superset) masks: a probe of a masked L1 that
 * misses simply heals the entry.
 */

#ifndef HINTM_MEM_DIRECTORY_HH
#define HINTM_MEM_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace hintm
{
namespace mem
{

class Directory
{
  public:
    explicit Directory(std::size_t initial_slots = 1024)
    {
        std::size_t cap = 64;
        while (cap < initial_slots)
            cap <<= 1;
        slots_.assign(cap, Slot{});
    }

    /** Bitmask of L1s that may hold @p block (0 = definitely uncached). */
    std::uint64_t
    sharers(Addr block) const
    {
        const Slot &s = *const_cast<Directory *>(this)->findSlot(block);
        return s.block == block ? s.sharerMask : 0;
    }

    /** Record that L1 @p l1 filled @p block. */
    void
    recordFill(Addr block, unsigned l1)
    {
        insertSlot(block)->sharerMask |= std::uint64_t(1) << l1;
    }

    /** L1 @p l1 no longer holds @p block (eviction, snoop invalidation,
     * or a stale-bit heal after a missed probe). */
    void
    removeSharer(Addr block, unsigned l1)
    {
        Slot *s = findSlot(block);
        if (s->block == block) {
            s->sharerMask &= ~(std::uint64_t(1) << l1);
            eraseIfDead(s);
        }
    }

    // ---- transactional trackers ------------------------------------

    /** Hardware context @p ctx tracks @p block in its precise TX
     * read/write set (idempotent). */
    void
    txTrack(Addr block, unsigned ctx)
    {
        Slot *s = insertSlot(block);
        s->trackerMask |= std::uint64_t(1) << ctx;
    }

    /** Context @p ctx dropped @p block from its TX tracking state. */
    void
    txUntrack(Addr block, unsigned ctx)
    {
        Slot *s = findSlot(block);
        if (s->block == block) {
            s->trackerMask &= ~(std::uint64_t(1) << ctx);
            eraseIfDead(s);
        }
    }

    /** Contexts whose TXs track @p block precisely. */
    std::uint64_t
    txTrackers(Addr block) const
    {
        const Slot &s = *const_cast<Directory *>(this)->findSlot(block);
        return s.block == block ? s.trackerMask : 0;
    }

    /** Context @p ctx has (or no longer has) a live read signature that
     * may alias any block; it must see every remote write. */
    void
    setSigActive(unsigned ctx, bool on)
    {
        const std::uint64_t bit = std::uint64_t(1) << ctx;
        if (on)
            sigActiveMask_ |= bit;
        else
            sigActiveMask_ &= ~bit;
    }

    /** Contexts with live (possibly aliasing) read signatures. */
    std::uint64_t sigActiveMask() const { return sigActiveMask_; }

    /** Number of blocks with at least one sharer (testing aid). */
    std::size_t
    trackedBlocks() const
    {
        std::size_t n = 0;
        for (const Slot &s : slots_) {
            if (s.block != emptyKey && s.sharerMask != 0)
                ++n;
        }
        return n;
    }

    /** Number of slots in use: every one holds a live block (testing
     * aid). */
    std::size_t size() const { return used_; }

    std::size_t capacity() const { return slots_.size(); }

  private:
    static constexpr Addr emptyKey = ~Addr(0);

    struct Slot
    {
        Addr block = emptyKey;
        std::uint64_t sharerMask = 0;
        std::uint64_t trackerMask = 0;
    };

    std::size_t
    home(Addr block) const
    {
        return std::size_t(block * 0x9E3779B97F4A7C15ull >> 32) &
               (slots_.size() - 1);
    }

    /** Slot holding @p block, or the empty slot where it would go. */
    Slot *
    findSlot(Addr block)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(block);
        while (slots_[i].block != emptyKey && slots_[i].block != block)
            i = (i + 1) & mask;
        return &slots_[i];
    }

    /** findSlot + claim the slot for @p block, growing as needed. */
    Slot *
    insertSlot(Addr block)
    {
        Slot *s = findSlot(block);
        if (s->block == block)
            return s;
        if ((used_ + 1) * 4 > slots_.size() * 3) {
            grow();
            s = findSlot(block);
        }
        s->block = block;
        ++used_;
        return s;
    }

    /**
     * Erase @p s once both of its masks are zero, by backward-shift
     * deletion: pull each later entry of the probe run into the hole
     * when the hole lies between its home and its slot, so every
     * remaining block stays reachable from its home.
     */
    void
    eraseIfDead(Slot *s)
    {
        if (s->sharerMask | s->trackerMask)
            return;
        const std::size_t mask = slots_.size() - 1;
        std::size_t hole = std::size_t(s - slots_.data());
        for (std::size_t j = (hole + 1) & mask;
             slots_[j].block != emptyKey; j = (j + 1) & mask) {
            if (((j - home(slots_[j].block)) & mask) >=
                ((j - hole) & mask)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --used_;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        used_ = 0;
        for (const Slot &s : old) {
            if (s.block == emptyKey)
                continue;
            Slot *dst = findSlot(s.block);
            *dst = s;
            ++used_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
    std::uint64_t sigActiveMask_ = 0;
};

} // namespace mem
} // namespace hintm

#endif // HINTM_MEM_DIRECTORY_HH
