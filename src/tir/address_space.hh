/**
 * @file
 * Flat functional memory for TxIR programs: a paged sparse store of 64-bit
 * words. Caches in src/mem are tag-only; every architectural value lives
 * here, which keeps transactional rollback purely functional.
 */

#ifndef HINTM_TIR_ADDRESS_SPACE_HH
#define HINTM_TIR_ADDRESS_SPACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace hintm
{
namespace tir
{

/** Sparse, page-granular word store. Accesses must be 8-byte aligned. */
class AddressSpace
{
  public:
    /** Read the word at @p a (untouched memory reads as zero). */
    std::int64_t read(Addr a) const;

    /** Write the word at @p a. */
    void write(Addr a, std::int64_t v);

    /**
     * Stable reference to the word at @p a, materializing its page.
     * Pages are never freed, so the pointer stays valid for the
     * program's lifetime; lets read-modify-write sequences (undo-log +
     * store) resolve the page once.
     */
    std::int64_t *wordRef(Addr a);

    /** Number of materialized pages (testing/profiling aid). */
    std::size_t pageCount() const { return pages_.size(); }

  private:
    static constexpr std::size_t wordsPerPage = pageBytes / 8;
    using Page = std::array<std::int64_t, wordsPerPage>;

    /** Find @p page's backing store, consulting a small direct-mapped
     * pointer cache first. Returns nullptr for untouched pages (which
     * are never cached: absence can change). */
    Page *findPage(Addr page) const;

    /** As findPage, but materializes the page. */
    Page *getPage(Addr page);

    static constexpr unsigned cacheSlotBits = 8;
    struct CacheSlot
    {
        Addr page = ~Addr(0);
        Page *ptr = nullptr;
    };

    /** Memo slot of @p page: a Fibonacci hash of the page number. Thread
     * stacks lie 512 pages apart and arenas 16,384, so the low bits of
     * the page number alone send every thread's page k to one slot. */
    CacheSlot &
    memoSlot(Addr page) const
    {
        return pageCache_[(page * 0x9E3779B97F4A7C15ull) >>
                          (64 - cacheSlotBits)];
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    /** Page-pointer memo. Pages are never erased, so entries can only go
     * stale by slot reuse, never by dangling. */
    mutable std::array<CacheSlot, 1u << cacheSlotBits> pageCache_;
};

/**
 * Fixed virtual-memory layout of a loaded TxIR program. Regions are far
 * apart so that stacks, per-thread heap arenas and globals never share
 * pages — mirroring a real process image with per-thread malloc arenas.
 */
namespace layout
{
constexpr Addr globalsBase = 0x0001'0000;
constexpr Addr stacksBase = 0x2000'0000;
constexpr Addr stackStride = 0x0020'0000; ///< 2MB per thread
constexpr Addr arenasBase = 0x8000'0000;
constexpr Addr arenaStride = 0x0400'0000; ///< 64MB per arena

constexpr Addr
stackBase(ThreadId tid)
{
    return stacksBase + Addr(tid) * stackStride;
}
} // namespace layout

} // namespace tir
} // namespace hintm

#endif // HINTM_TIR_ADDRESS_SPACE_HH
