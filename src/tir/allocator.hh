/**
 * @file
 * Heap allocator for TxIR programs: one bump-plus-free-list arena per
 * thread (plus one for the init phase), mimicking per-thread malloc
 * arenas. Arena placement keeps different threads' heaps on disjoint
 * pages, which is what makes dynamic page classification effective on
 * thread-private scratchpads.
 */

#ifndef HINTM_TIR_ALLOCATOR_HH
#define HINTM_TIR_ALLOCATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace hintm
{
namespace tir
{

/** Multi-arena heap allocator. */
class Allocator
{
  public:
    /**
     * @param num_arenas arenas (typically numThreads + 1 for init)
     */
    explicit Allocator(unsigned num_arenas);

    /** Allocate @p bytes (rounded up to 8) from @p arena. */
    Addr alloc(unsigned arena, std::uint64_t bytes);

    /** Release an allocation previously returned by alloc(). */
    void release(Addr p);

    /** Size of the live allocation at @p p (0 when unknown). */
    std::uint64_t sizeOf(Addr p) const;

    /** Total bytes currently live across all arenas. */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** Optional observer invoked on every release with the freed range
     * (the hint oracle clears shadow state across lifetime boundaries).
     * Purely observational — allocation behavior is unaffected. */
    std::function<void(Addr, std::uint64_t)> onRelease;

  private:
    struct Arena
    {
        Addr base;
        Addr bump;
        Addr limit;
        /** size -> reusable addresses */
        std::map<std::uint64_t, std::vector<Addr>> freeLists;
    };

    struct Allocation
    {
        unsigned arena;
        std::uint64_t size;
    };

    std::vector<Arena> arenas_;
    std::unordered_map<Addr, Allocation> live_;
    std::uint64_t liveBytes_ = 0;
};

} // namespace tir
} // namespace hintm

#endif // HINTM_TIR_ALLOCATOR_HH
