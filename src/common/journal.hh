/**
 * @file
 * Per-transaction observability journal: a bounded ring of POD records,
 * one per TX attempt (hardware, fallback, or converted), plus exact
 * drop-immune aggregates folded at push time — per-site outcome/abort
 * counters with the hottest offending blocks, and whole-run totals.
 *
 * The journal is strictly observational: the simulation never reads it,
 * so results are bit-identical with it on or off. Memory is bounded by
 * the ring capacity (older records are overwritten and counted as
 * dropped) and by the static number of TX sites in the program; a run
 * can never OOM through the journal.
 *
 * Abort reasons are stored as opaque small integers so this layer stays
 * below the HTM package; the sim layer writes htm::AbortReason values
 * and the exporters (sim/journal_io) map them back to names.
 */

#ifndef HINTM_COMMON_JOURNAL_HH
#define HINTM_COMMON_JOURNAL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/tx_site.hh"
#include "common/types.hh"

namespace hintm
{

/** How a TX attempt ended. */
enum class TxOutcome : std::uint8_t
{
    Commit,          ///< hardware TX committed
    Abort,           ///< hardware TX aborted (see TxRecord::reason)
    FallbackCommit,  ///< ran under the software fallback lock
    ConvertedCommit, ///< pre-abort handler converted it mid-flight
};

const char *txOutcomeName(TxOutcome o);

/** One TX attempt. POD so the ring is a flat overwrite-in-place array. */
struct TxRecord
{
    /** Cycle the attempt entered TX mode (begin completes later). */
    Cycle begin = 0;
    /** Cycle the closing event (commit, abort ack, lock release) was
     * handled. */
    Cycle end = 0;
    /** Offending block-aligned address for conflict/capacity aborts
     * (page base address for page-mode aborts); valid when
     * offendingValid. */
    Addr offendingAddr = 0;
    std::uint32_t ctx = 0;
    /** TX site: function/block/instr of the TxBegin (-1 = unknown). */
    std::int32_t fn = -1;
    std::int32_t block = -1;
    std::int32_t instr = -1;
    /** Remote writer's context for conflict aborts (-1 = none/unknown,
     * e.g. capacity). */
    std::int32_t offendingCtx = -1;
    /** Tracked footprint in blocks at close (readset incl. spills /
     * writeset). Zero for pure fallback runs (nothing is tracked). */
    std::uint32_t readBlocks = 0;
    std::uint32_t writeBlocks = 0;
    /** Retry index of this attempt (0 = first try of the site visit). */
    std::uint16_t retry = 0;
    TxOutcome outcome = TxOutcome::Commit;
    /** htm::AbortReason as a small integer; 0 (None) unless Abort. */
    std::uint8_t reason = 0;
    bool offendingValid = false;
};

static_assert(sizeof(TxRecord) <= 64, "TxRecord grew past a cache block");

/** Sum of a per-reason abort-count array. */
template <std::size_t N>
std::uint64_t
sumAborts(const std::uint64_t (&aborts)[N])
{
    std::uint64_t n = 0;
    for (std::uint64_t a : aborts)
        n += a;
    return n;
}

/** One fixed-cycle window of the interval sampler. */
struct IntervalSample
{
    static constexpr unsigned maxReasons = 8;

    Cycle start = 0;
    /** All committing outcomes (hardware, fallback, converted). */
    std::uint64_t commits = 0;
    std::uint64_t aborts[maxReasons] = {};
    /** Tracked blocks summed over hardware commits in the window. */
    std::uint64_t footprintSum = 0;
    std::uint64_t footprintCount = 0;
    /** Cycles of this window during which the fallback lock was held. */
    Cycle fallbackCycles = 0;

    std::uint64_t totalAborts() const { return sumAborts(aborts); }

    double
    meanFootprint() const
    {
        return footprintCount ? double(footprintSum) / footprintCount
                              : 0.0;
    }
};

/**
 * Bounded per-run TX journal. push() is the only mutation: it appends to
 * the ring (overwriting the oldest record when full) and folds the
 * record into the exact aggregates.
 */
class TxJournal
{
  public:
    static constexpr unsigned maxReasons = IntervalSample::maxReasons;
    /** Distinct offending blocks kept per site before saturating. */
    static constexpr unsigned hotBlockCap = 32;

    explicit TxJournal(std::size_t capacity = 1u << 16,
                       SiteNames names = {});

    void push(const TxRecord &r);

    std::size_t capacity() const { return capacity_; }
    /** Records currently retained in the ring. */
    std::size_t size() const;
    /** Records ever pushed (retained + dropped). */
    std::uint64_t pushed() const { return pushed_; }
    /** Records overwritten by ring wrap-around. */
    std::uint64_t dropped() const;

    /** Chronological access to retained records: 0 = oldest. */
    const TxRecord &at(std::size_t i) const;

    /** Exact whole-run totals (never affected by ring drops). */
    struct Totals
    {
        std::uint64_t commits = 0;
        std::uint64_t fallbackCommits = 0;
        std::uint64_t convertedCommits = 0;
        std::uint64_t aborts[maxReasons] = {};
        /** end - begin summed over aborted attempts. */
        std::uint64_t cyclesLostToAborts = 0;

        std::uint64_t totalAborts() const { return sumAborts(aborts); }

        std::uint64_t
        committedAttempts() const
        {
            return commits + fallbackCommits + convertedCommits;
        }
    };

    const Totals &totals() const { return totals_; }

    /** One offending block and how often it killed TXs at a site. */
    struct HotBlock
    {
        Addr addr = 0;
        std::uint64_t count = 0;
    };

    /** Exact per-TX-site aggregates (drop-immune). */
    struct SiteStats
    {
        std::int32_t fn = -1;
        std::int32_t block = -1;
        std::int32_t instr = -1;
        std::uint64_t commits = 0;
        std::uint64_t fallbackCommits = 0;
        std::uint64_t convertedCommits = 0;
        std::uint64_t aborts[maxReasons] = {};
        std::uint64_t cyclesLostToAborts = 0;
        /** Tracked blocks summed over hardware commits. */
        std::uint64_t footprintSum = 0;
        /** Hottest offending blocks, saturating at hotBlockCap distinct
         * addresses; overflow lands in otherOffenders. */
        std::vector<HotBlock> hotBlocks;
        std::uint64_t otherOffenders = 0;
        /** The hot-block list hit hotBlockCap: counts beyond the listed
         * addresses landed in otherOffenders, so the per-block ranking
         * is a lower bound for this site. */
        bool hotBlocksSaturated = false;

        std::uint64_t totalAborts() const { return sumAborts(aborts); }
    };

    const std::unordered_map<std::uint64_t, SiteStats> &sites() const
    {
        return sites_;
    }

    /** Sites sorted by total aborts (desc), ties broken by site id so
     * the order is deterministic. */
    std::vector<const SiteStats *> sitesByAborts() const;

    /** Sites sorted by cycles lost to aborts (desc), then total aborts
     * (desc), then site id — the cost-ranked view hintm_run --journal
     * prints: a site with few but long-running aborted attempts
     * outranks one with many cheap ones. */
    std::vector<const SiteStats *> sitesByCyclesLost() const;

    /**
     * Fold the *retained* records into fixed-cycle windows. Windows are
     * attributed by record end cycle; fallback-lock occupancy is the
     * overlap of fallback/converted records with each window. When
     * records were dropped the oldest windows under-count (exact
     * aggregates stay in totals()/sites()).
     */
    std::vector<IntervalSample> sampleIntervals(Cycle window) const;

    /** Renders TxRecord sites; the sim layer passes the module's
     * function names at construction. */
    const SiteNames &names() const { return names_; }

  private:
    std::size_t capacity_;
    std::vector<TxRecord> ring_;
    std::uint64_t pushed_ = 0;
    Totals totals_;
    std::unordered_map<std::uint64_t, SiteStats> sites_;
    SiteNames names_;
};

} // namespace hintm

#endif // HINTM_COMMON_JOURNAL_HH
