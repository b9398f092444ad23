/**
 * @file
 * Tag-only set-associative cache array with true-LRU replacement. Holds
 * coherence state but no data: functional values live in the interpreter's
 * address space, so caches model timing and coherence only.
 *
 * A line is 12 bytes: a 32-bit tag, the L1TM TX bits, and the coherence
 * state packed with a 24-bit LRU stamp. Before the array's clock would
 * pass 24 bits, every set's stamps are renumbered 1..k in their existing
 * order, so replacement stays exact LRU. An address whose tag needs
 * more than 32 bits ends the run with a fatal error.
 */

#ifndef HINTM_MEM_CACHE_ARRAY_HH
#define HINTM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/coherence.hh"
#include "mem/geometry.hh"

namespace hintm
{
namespace mem
{

/** Per-line transactional tracking bits: one bit per context on the
 * line's L1, indexed by the context's slot on that L1. */
using TxMask = std::uint32_t;

/** Contexts one L1 can hold when its lines carry their TX bits. */
constexpr unsigned txMaskBits = 32;

/** Bits of CacheLine::lruStamp. */
constexpr unsigned lruStampBits = 24;

/** One cache line's bookkeeping. */
struct CacheLine
{
    std::uint32_t tag = 0;
    /** L1TM tracking bits: bit s is set while the TX of the context in
     * slot s of this L1 tracks the line's block. A line with any bit
     * set is pinned (see CacheArray::insert). Zero in the L2 and under
     * every other HTM kind. */
    TxMask txMask = 0;
    CoherState state : 8 = CoherState::Invalid;
    /** LRU timestamp; larger means more recently used. Unique among the
     * valid lines of a set. */
    std::uint32_t lruStamp : lruStampBits = 0;

    bool valid() const { return state != CoherState::Invalid; }
};

// 131K lines back the 8 MB L2 alone.
static_assert(sizeof(CacheLine) == 12, "CacheLine grew past 12 bytes");

/** Description of a line displaced by an insertion. */
struct Eviction
{
    bool happened = false;
    Addr blockAddr = 0;
    /** True when the victim was Modified (requires a writeback). */
    bool dirty = false;
};

/**
 * Set-associative tag array. All lookups take block-aligned addresses.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom);

    /**
     * Find a block. @return pointer into the array (stable until the next
     * insert in the same set) or nullptr on miss. Updates LRU on hit.
     */
    CacheLine *
    lookup(Addr block_addr)
    {
        CacheLine *line = findLine(block_addr);
        if (line)
            line->lruStamp = tick();
        return line;
    }

    /** Find a block without touching LRU state. */
    const CacheLine *probe(Addr block_addr) const;
    CacheLine *probe(Addr block_addr) { return findLine(block_addr); }

    /**
     * Insert a block in the given state, evicting a victim if the set is
     * full. Victim choice is LRU among lines whose txMask is zero:
     * transactional lines are sticky, as in L1-tracking HTMs. Only when
     * every valid way is pinned does a pinned line get displaced (LRU
     * among them). A newly filled line takes @p tx_mask as its TX bits;
     * a re-insert over a resident copy keeps its own.
     * @return the eviction descriptor (may be empty).
     */
    Eviction insert(Addr block_addr, CoherState state, TxMask tx_mask = 0);

    /** Drop a block (snoop invalidation); no-op when absent. */
    void invalidate(Addr block_addr);

    /** Iterate all valid lines (used by TX-abort invalidation sweeps). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::uint64_t set = 0; set < geom_.numSets(); ++set) {
            for (unsigned way = 0; way < geom_.assoc(); ++way) {
                CacheLine &line = lines_[set * geom_.assoc() + way];
                if (line.valid())
                    fn(geom_.blockAddrOf(line.tag, set), line);
            }
        }
    }

    /** Iterate the valid lines of the set @p block_addr maps to (the
     * metrics layer's overflowing-set occupancy scan). */
    template <typename Fn>
    void
    forEachValidInSet(Addr block_addr, Fn &&fn) const
    {
        const std::uint64_t set = geom_.indexOf(block_addr);
        for (unsigned way = 0; way < geom_.assoc(); ++way) {
            const CacheLine &line = lines_[set * geom_.assoc() + way];
            if (line.valid())
                fn(geom_.blockAddrOf(line.tag, set), line);
        }
    }

    const CacheGeometry &geometry() const { return geom_; }

    /** Number of currently valid lines (testing aid). */
    std::uint64_t countValid() const;

  private:
    static constexpr std::uint32_t maxStamp =
        (std::uint32_t(1) << lruStampBits) - 1;

    /** @p block_addr's tag; fatal when it needs more than 32 bits. */
    std::uint32_t
    tagOf(Addr block_addr) const
    {
        const std::uint64_t tag = geom_.tagOf(block_addr);
        if (tag >> 32) [[unlikely]]
            tagTooWide(block_addr);
        return std::uint32_t(tag);
    }

    [[noreturn]] void tagTooWide(Addr block_addr) const;

    /** The next LRU stamp, renumbering the sets first when the clock
     * would pass lruStampBits. */
    std::uint32_t
    tick()
    {
        if (clock_ == maxStamp) [[unlikely]]
            renumberStamps();
        return ++clock_;
    }

    /** Restamp each set's valid lines 1..k in LRU order and restart the
     * clock above every set's k. */
    void renumberStamps();

    CacheLine *
    findLine(Addr block_addr)
    {
        const std::uint32_t tag = tagOf(block_addr);
        CacheLine *const set =
            &lines_[geom_.indexOf(block_addr) * geom_.assoc()];
        for (CacheLine *line = set, *end = set + geom_.assoc(); line != end;
             ++line) {
            if (line->valid() && line->tag == tag)
                return line;
        }
        return nullptr;
    }

    CacheGeometry geom_;
    std::vector<CacheLine> lines_;
    std::uint32_t clock_ = 0;
};

} // namespace mem
} // namespace hintm

#endif // HINTM_MEM_CACHE_ARRAY_HH
