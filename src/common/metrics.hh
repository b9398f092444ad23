/**
 * @file
 * Capacity-pressure metrics: typed counters, log2-bucket histograms and
 * an adaptive windowed time series, folded into one per-run registry.
 *
 * Like the TX journal, the metrics layer is strictly observational: the
 * simulation never reads any of it, so results are bit-identical with
 * it on or off (test-locked). Unlike the journal's per-attempt records,
 * the registry answers capacity questions: how fast read/write sets
 * grow, how full the transactional structures were at each capacity
 * abort, which lines the safe hints kept out of the tracked set, and
 * whether those skips were the difference between fitting and
 * overflowing ("hint-saved" commits).
 *
 * Memory is bounded by construction: histograms are fixed arrays, the
 * time series folds itself down whenever a sample lands past its slot
 * budget, and per-site state is bounded by the static number of TX
 * sites in the program.
 */

#ifndef HINTM_COMMON_METRICS_HH
#define HINTM_COMMON_METRICS_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/flat_set.hh"
#include "common/tx_site.hh"
#include "common/types.hh"

namespace hintm
{

/** How a transactional access was classified: tracked by the HTM
 * (None), or skipped under a safe hint from the named source. */
enum class SafeHint : std::uint8_t
{
    None,
    Static,
    Dynamic,
    Annotation,
};

/**
 * Fixed-size histogram over power-of-two buckets: bucket 0 holds the
 * value 0, bucket k >= 1 holds [2^(k-1), 2^k). 33 buckets cover the
 * full uint64 range of cycle counts and footprints.
 */
struct Log2Hist
{
    static constexpr unsigned numBuckets = 33;

    std::uint64_t buckets[numBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    static unsigned bucketOf(std::uint64_t v);

    void add(std::uint64_t v);

    bool empty() const { return count == 0; }

    double
    mean() const
    {
        return count ? double(sum) / double(count) : 0.0;
    }
};

/**
 * Windowed time series with a bounded slot budget. Samples accumulate
 * into fixed-cycle windows; when an add lands past the last slot the
 * window doubles and adjacent slots fold together, so an arbitrarily
 * long run always fits in maxSlots windows and the result is
 * deterministic for a given sample stream.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(Cycle initial_window = 1024,
                        std::size_t max_slots = 512);

    /** Accumulate @p v into the window containing cycle @p at. */
    void add(Cycle at, std::uint64_t v);

    /** Spread the span [begin, end) over the windows it overlaps,
     * crediting each window with the cycles of overlap (the shape used
     * for lock-occupancy timelines). */
    void addSpan(Cycle begin, Cycle end);

    Cycle window() const { return window_; }
    std::size_t maxSlots() const { return maxSlots_; }
    const std::vector<std::uint64_t> &samples() const { return samples_; }
    bool empty() const { return samples_.empty(); }

  private:
    /** Double-and-fold until cycle @p at maps inside the slot budget. */
    void ensureCovers(Cycle at);

    Cycle window_;
    std::size_t maxSlots_;
    std::vector<std::uint64_t> samples_;
};

/**
 * Per-context scratch state for the transaction currently being
 * measured. Lives in the observers' per-context state.
 */
struct TxMetricsCtx
{
    /** Distinct tracked blocks touched so far, by direction (a block
     * both read and written counts in each). Fed by the controller's
     * newly-tracked bits, so the metrics layer keeps no shadow copy of
     * the footprint — the HTM controller already deduplicates. */
    std::uint32_t readBlocks = 0;
    std::uint32_t writeBlocks = 0;
    /** Distinct blocks excluded from tracking by safe hints. */
    AddrSet skips{16};
    /** Safe-skipped accesses by classification source. */
    std::uint64_t skipStatic = 0;
    std::uint64_t skipDyn = 0;
    std::uint64_t skipAnnot = 0;
    /** Last skipped block — a one-entry memo that short-circuits the
     * set insert for back-to-back skips of the same block (the
     * dominant pattern in the workloads' sequential scans). */
    Addr lastSkip = ~Addr(0);
    Cycle beginCycle = 0;
    /** A hardware TX attempt is being measured. */
    bool open = false;
    /** Next growth milestone index per direction (see
     * MetricsRegistry::milestoneBlocks). */
    unsigned nextReadMilestone = 0;
    unsigned nextWriteMilestone = 0;
    /** TX site of the open attempt. */
    std::int32_t fn = -1;
    std::int32_t block = -1;
    std::int32_t instr = -1;
};

/** The per-run metrics registry. */
class MetricsRegistry
{
  public:
    /** @p names renders SiteMetrics sites. */
    explicit MetricsRegistry(SiteNames names = {})
        : names_(std::move(names))
    {
    }

    /** Growth milestones: 2^0 .. 2^16 distinct tracked blocks. */
    static constexpr unsigned numMilestones = 17;

    static constexpr std::uint64_t
    milestoneBlocks(unsigned k)
    {
        return std::uint64_t(1) << k;
    }

    /** Exact per-TX-site capacity/hint aggregates. */
    struct SiteMetrics
    {
        std::int32_t fn = -1;
        std::int32_t block = -1;
        std::int32_t instr = -1;
        /** Hardware commits measured at this site. */
        std::uint64_t commits = 0;
        std::uint64_t capacityAborts = 0;
        /** Safe-skipped accesses by source, over all attempts. */
        std::uint64_t skipStatic = 0;
        std::uint64_t skipDyn = 0;
        std::uint64_t skipAnnot = 0;
        /** Distinct skipped blocks summed over closed attempts ("lines
         * excluded by hints"). */
        std::uint64_t skippedBlocksSum = 0;
        /** Bytes excluded by hints (word-sized accesses: accesses x 8;
         * TxIR has no per-access width, every load/store moves one
         * 8-byte word). */
        std::uint64_t skippedBytes = 0;
        /** Commits whose tracked footprint fit the capacity only
         * because of the skips. */
        std::uint64_t hintSavedCommits = 0;
        /** Peak distinct tracked blocks, summed over commits / max. */
        std::uint64_t peakTrackedSum = 0;
        std::uint64_t peakTrackedMax = 0;
        /** Tracked blocks at capacity-abort time, summed over capacity
         * aborts at this site. */
        std::uint64_t trackedAtCapacitySum = 0;
    };

    // ---- folding (called by the machine) ----------------------------

    /** Start measuring a hardware TX attempt at @p now. */
    void beginTx(TxMetricsCtx &m, Cycle now, std::int32_t fn,
                 std::int32_t block, std::int32_t instr);

    /** The HTM controller newly tracked an access's block in the given
     * direction(s); samples the growth histograms when a milestone is
     * crossed. Inline: this and onSafeSkip run in the per-access hot
     * path, and the counter bump is the whole common case. */
    void
    onTrackedGrowth(TxMetricsCtx &m, bool newly_read, bool newly_written,
                    Cycle now)
    {
        if (newly_read) {
            ++m.readBlocks;
            while (m.nextReadMilestone < numMilestones &&
                   m.readBlocks >=
                       milestoneBlocks(m.nextReadMilestone)) {
                growthRead[m.nextReadMilestone].add(now - m.beginCycle);
                ++m.nextReadMilestone;
            }
        }
        if (newly_written) {
            ++m.writeBlocks;
            while (m.nextWriteMilestone < numMilestones &&
                   m.writeBlocks >=
                       milestoneBlocks(m.nextWriteMilestone)) {
                growthWrite[m.nextWriteMilestone].add(now -
                                                      m.beginCycle);
                ++m.nextWriteMilestone;
            }
        }
    }

    /** An access to @p block_addr skipped tracking under @p hint (a
     * tracked access, hint None, is not a skip). */
    void
    onSafeSkip(TxMetricsCtx &m, Addr block_addr, SafeHint hint)
    {
        switch (hint) {
          case SafeHint::None:
            return;
          case SafeHint::Static:
            ++m.skipStatic;
            break;
          case SafeHint::Dynamic:
            ++m.skipDyn;
            break;
          case SafeHint::Annotation:
            ++m.skipAnnot;
            break;
        }
        if (block_addr == m.lastSkip)
            return;
        m.lastSkip = block_addr;
        m.skips.insert(block_addr);
    }

    /** Close the open attempt as a hardware commit. @p hint_saved is
     * the caller's capacity-model verdict (the model needs the HTM
     * geometry, which lives above this layer). */
    void closeCommit(TxMetricsCtx &m, bool hint_saved);

    /** Close the open attempt as a capacity abort with @p tracked
     * blocks in the transactional structures. */
    void closeCapacityAbort(TxMetricsCtx &m, std::uint64_t tracked);

    /** Close the open attempt for any other outcome (conflict abort,
     * conversion, ...): hint-exclusion accounting still folds. Every
     * close folds through here. @return the attempt's site. */
    SiteMetrics &closeOther(TxMetricsCtx &m);

    /** One valid line of the overflowing cache set, classified. */
    void recordOverflowLine(bool tracked, bool safe_skipped);
    /** One overflowing-set scan completed (normalizes the line mix). */
    void recordOverflowScan() { ++ovScans; }

    // ---- lookup / export --------------------------------------------

    SiteMetrics &site(std::int32_t fn, std::int32_t block,
                      std::int32_t instr);

    /** Keyed by packed site id; std::map so export order is
     * deterministic. */
    const std::map<std::uint64_t, SiteMetrics> &sites() const
    {
        return sites_;
    }

    /** Sites sorted by capacity pressure: capacity aborts desc, then
     * peak tracked footprint desc, then site id. */
    std::vector<const SiteMetrics *> sitesByPressure() const;

    const SiteNames &names() const { return names_; }

    // ---- NUMA traffic matrix ----------------------------------------

    /** Size the node x node matrix (idempotent for the same count). */
    void initNuma(unsigned nodes);
    unsigned numaNodes() const { return numaNodes_; }

    /** Cell [from][to]; inline and unchecked — this runs once per bus
     * transaction, and the node ids come from the memory system's own
     * tables. */
    std::uint64_t &
    numaTraffic(unsigned from, unsigned to)
    {
        return numaMatrix_[std::size_t(from) * numaNodes_ + to];
    }
    const std::vector<std::uint64_t> &numaMatrix() const
    {
        return numaMatrix_;
    }

    // ---- global aggregates (public, POD-copyable) -------------------

    /** Cycles-from-begin at which the read/write set reached milestone
     * 2^k distinct blocks, per milestone k. */
    Log2Hist growthRead[numMilestones];
    Log2Hist growthWrite[numMilestones];
    /** Peer-sharer count, sampled at every sharerSampleEvery-th bus
     * transaction (probing every peer L1 per transaction is too hot
     * for a full census). */
    Log2Hist sharersAtBus;
    static constexpr std::uint64_t sharerSampleEvery = 16;
    std::uint64_t busEvents = 0;
    /** Tracked blocks at each capacity abort. */
    Log2Hist trackedAtCapacityAbort;
    /** Peak distinct tracked blocks at each hardware commit. */
    Log2Hist trackedAtCommit;
    /** Occupancy of the overflowing cache set at capacity aborts. */
    std::uint64_t ovScans = 0;
    std::uint64_t ovTracked = 0;
    std::uint64_t ovSafeSkipped = 0;
    std::uint64_t ovOther = 0;
    /** Fallback-lock occupancy timeline (held cycles per window). */
    TimeSeries fallbackSeries;
    std::uint64_t fallbackAcquisitions = 0;
    /** Whole-run skip totals by source. */
    std::uint64_t skipStaticAccesses = 0;
    std::uint64_t skipDynAccesses = 0;
    std::uint64_t skipAnnotAccesses = 0;
    std::uint64_t hintSavedCommits = 0;
    std::uint64_t capacityAborts = 0;

  private:
    std::map<std::uint64_t, SiteMetrics> sites_;
    SiteNames names_;
    unsigned numaNodes_ = 0;
    std::vector<std::uint64_t> numaMatrix_;
};

} // namespace hintm

#endif // HINTM_COMMON_METRICS_HH
