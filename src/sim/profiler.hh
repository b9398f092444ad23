/**
 * @file
 * Whole-run memory sharing profiler backing the paper's Fig. 1 metrics:
 * the fraction of memory regions (cache blocks / pages) with no
 * inter-thread read-write sharing, and the fraction of transactional
 * reads that target such safe regions.
 */

#ifndef HINTM_SIM_PROFILER_HH
#define HINTM_SIM_PROFILER_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace hintm
{
namespace sim
{

/** Fig. 1 summary at one granularity. */
struct SharingSummary
{
    std::uint64_t totalRegions = 0;
    std::uint64_t safeRegions = 0;
    std::uint64_t txReads = 0;
    std::uint64_t txReadsToSafe = 0;

    double
    safeRegionFraction() const
    {
        return totalRegions ? double(safeRegions) / totalRegions : 0.0;
    }

    double
    safeTxReadFraction() const
    {
        return txReads ? double(txReadsToSafe) / txReads : 0.0;
    }
};

/**
 * Tracks per-region reader/writer thread sets over the full parallel
 * region. A region is safe when it has no read-write sharing: at most
 * one thread touches it, or several threads only read it.
 */
class SharingProfiler
{
  public:
    /** Record one access by worker @p tid (0–63: one bit of the 64-bit
     * reader/writer masks per context of the largest machine); @p in_tx
     * marks transactional reads. */
    void record(ThreadId tid, Addr addr, AccessType type, bool in_tx);

    /** Fold the run into Fig. 1 numbers at block granularity. */
    SharingSummary blockSummary() const;
    /** Fold the run into Fig. 1 numbers at page granularity. */
    SharingSummary pageSummary() const;

  private:
    struct Region
    {
        std::uint64_t readers = 0; ///< bitmask over thread ids (< 64)
        std::uint64_t writers = 0;
        std::uint64_t txReads = 0;
    };

    static bool
    regionSafe(const Region &r)
    {
        const std::uint64_t all = r.readers | r.writers;
        // Single-thread regions and read-only shared regions are safe.
        return r.writers == 0 || (all & (all - 1)) == 0;
    }

    static SharingSummary
    fold(const std::unordered_map<Addr, Region> &map, std::uint64_t reads);

    std::unordered_map<Addr, Region> blocks_;
    std::unordered_map<Addr, Region> pages_;
    std::uint64_t txReads_ = 0;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_PROFILER_HH
