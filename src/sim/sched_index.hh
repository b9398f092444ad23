/**
 * @file
 * Event-driven ready-context index for the machine scheduler. Replaces
 * the per-step O(contexts) rotating scan with a 64-bit live/eligible
 * bitmask pair plus a lazy-deletion min-heap over readyAt, while
 * reproducing the reference scheduler's pick order exactly:
 *
 *  - The reference scan walks contexts starting at the round-robin
 *    cursor and takes the first strict minimum, so equal-readyAt ties
 *    go to the first context at or after the cursor (wrapping). pick()
 *    reproduces that with a rotate-by-rr + countr_zero bit trick over
 *    the tie mask.
 *
 *  - Heap entries are (readyAt, ctx) at push time and are never
 *    updated in place; an entry is stale once its context's readyAt
 *    moved on or the context stopped being eligible (done / at a
 *    barrier / batch-owned). Stale entries are discarded when they
 *    surface. The invariant the machine maintains is one-sided: every
 *    *eligible* context always has at least one heap entry carrying its
 *    exact current readyAt (duplicates are harmless — the tie mask
 *    dedups them) — or a bit in the tie bucket below.
 *
 *  - Ties persist across picks in a cached bucket (mask + key) instead
 *    of being re-pushed and re-popped each pick. Lockstep phases and
 *    fallback-lock convoys put most of the machine at one readyAt;
 *    serving those picks straight from the bucket keeps the per-step
 *    cost O(1) where bucket-free lazy deletion would degrade to
 *    O(ties log n) — worse than the scan it replaces. Bucket bits are
 *    maintained eagerly (cleared the moment a member's readyAt or
 *    eligibility changes), so any eligible context is findable through
 *    the bucket mask or a valid heap entry.
 *
 *  - Small machines (≤ denseContexts) skip the heap and bucket
 *    entirely: the readyAt mirror is one or two cache lines, so pick()
 *    scans it densely — cheaper than any incremental structure at that
 *    size, and still cheaper than the reference scan, which walks the
 *    same count of scattered few-hundred-byte ContextState records.
 *    The dense scan also yields the exact second minimum, so batched
 *    stepping gets a tight bound the reference scan never computes.
 *
 *  - pick() also reports a batching bound: the smallest key left in the
 *    heap after the pick. Any remaining entry's key never exceeds a
 *    re-push of the same context made after it (per-context readyAt
 *    only moves forward while a context is runnable), so the bound is a
 *    safe lower bound on every other eligible context's true readyAt —
 *    the machine may keep stepping the winner without consulting the
 *    index while the winner's readyAt stays strictly below it.
 *
 * The index is derived state: the machine rebuilds it from context
 * state on construction and after a preemption change.
 */

#ifndef HINTM_SIM_SCHED_INDEX_HH
#define HINTM_SIM_SCHED_INDEX_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace hintm
{
namespace sim
{

class SchedIndex
{
  public:
    /** The bitmasks cap the machine size, here as in the directory
     * and the lock waiters: checkThreadCount rejects bigger machines. */
    static constexpr unsigned maxContexts = 64;

    /** At or below this size the readyAt mirror fits a cache line or
     * two and a dense scan of it beats heap/bucket maintenance. */
    static constexpr unsigned denseContexts = 16;

    /** One scheduling decision. */
    struct Pick
    {
        /** Picked context; -1 when live contexts exist but none is
         * eligible (the deadlock case the caller must report). */
        int winner = -1;
        /** The winner's readyAt at pick time. */
        Cycle key = 0;
        /** Lower bound on every other eligible context's readyAt: the
         * winner provably stays the unique earliest while its readyAt
         * is strictly below this. Ties at @ref key make it key itself
         * (no batching); an empty field makes it far-future. */
        Cycle bound = 0;
    };

    /** Drop everything; contexts re-register through sync(). */
    void
    reset(unsigned n)
    {
        HINTM_ASSERT(n <= maxContexts,
                     "scheduler index supports at most 64 contexts");
        n_ = n;
        ready_.assign(n, 0);
        heap_.clear();
        heap_.reserve(4 * n);
        live_ = 0;
        eligible_ = 0;
        tie_ = 0;
        tieKey_ = 0;
    }

    /** Register context @p c from its full scheduler-visible state
     * (a rebuild after reset()). */
    void
    sync(unsigned c, bool done, bool at_barrier, Cycle ready_at)
    {
        ready_[c] = ready_at;
        const std::uint64_t bit = std::uint64_t(1) << c;
        if (done) {
            live_ &= ~bit;
            eligible_ &= ~bit;
            return;
        }
        live_ |= bit;
        if (at_barrier) {
            eligible_ &= ~bit;
            return;
        }
        eligible_ |= bit;
        if (!dense())
            push(c, ready_at);
    }

    /** Eligible context @p c moved its readyAt (or a batch on it just
     * closed): publish the exact new key. Landing on the bucket key
     * joins the bucket for free; anything else goes to the heap. */
    void
    setReady(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = t;
        if (dense() || !(eligible_ & bit))
            return;
        if (tie_ & bit) {
            if (t == tieKey_)
                return;
            tie_ &= ~bit;
        }
        place(c, bit, t);
    }

    /** @p c blocked at a barrier or parked as a fallback-lock waiter
     * (sim/lock_waiters.hh): out of the pick set until unblock(). */
    void
    block(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = t;
        eligible_ &= ~bit;
        tie_ &= ~bit;
    }

    /** @p c released from a barrier or woken from a lock wait: back in
     * the pick set at @p t, which must not be below the last pick's
     * key (an open tie bucket never has an earlier context behind it). */
    void
    unblock(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = t;
        eligible_ |= bit;
        if (!dense())
            place(c, bit, t);
    }

    /** @p c finished its program: out of the pick set for good (done
     * contexts never come back, so no entry cleanup is needed). */
    void
    retire(unsigned c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        live_ &= ~bit;
        eligible_ &= ~bit;
        tie_ &= ~bit;
    }

    /** The key the next pick() returns (the earliest eligible readyAt),
     * or max when nothing is eligible. Opens no tie bucket, so a context
     * may still unblock() below the key it returns. */
    Cycle
    peekKey()
    {
        if (dense()) {
            Cycle best = std::numeric_limits<Cycle>::max();
            for (std::uint64_t m = eligible_; m; m &= m - 1)
                best = std::min(best, ready_[unsigned(std::countr_zero(m))]);
            return best;
        }
        if (tie_)
            return tieKey_;
        return dropStale() ? heap_.front().key
                           : std::numeric_limits<Cycle>::max();
    }

    bool anyLive() const { return live_ != 0; }

    /**
     * Pop the earliest eligible context, breaking equal-readyAt ties
     * round-robin from @p rr exactly like the reference scan. The
     * winner leaves the bucket/heap — the caller owns it until it
     * republishes via setReady()/block()/retire(); tied losers stay in
     * the bucket and keep their slot for the next pick.
     */
    Pick
    pick(unsigned rr)
    {
        return pick(rr, [](std::uint64_t mask, unsigned r) {
            // First set bit at or after r, wrapping — identical to the
            // strict-< reference scan order (r is always < 64 here).
            const std::uint64_t hi =
                mask & ~((std::uint64_t(1) << r) - 1);
            return unsigned(std::countr_zero(hi ? hi : mask));
        });
    }

    /**
     * pick() with the tie-break delegated to @p choose(mask, rr), which
     * must return a set bit of mask — the hook a ScheduleController
     * uses to steer the interleaving. The default pick() above routes
     * through this with the reference rotate-from-rr rule.
     */
    template <typename Chooser>
    Pick
    pick(unsigned rr, Chooser &&choose)
    {
        if (dense())
            return pickDense(rr, choose);
        Pick p;
        if (tie_ == 0) {
            openBucket();
            if (tie_ == 0) {
                HINTM_ASSERT(eligible_ == 0,
                             "scheduler index lost an eligible context");
                return p;
            }
        }
        // Keys are monotone while a bucket is open and entries at its
        // key join the bucket instead of the heap, so the heap can
        // never hold the bucket key or undercut it.
        HINTM_ASSERT(heap_.empty() || heap_.front().key > tieKey_,
                     "scheduler index bucket behind the heap");
        const Cycle t = tieKey_;
        const unsigned w = choose(tie_, rr);
        HINTM_ASSERT(w < n_ && (tie_ >> w & 1),
                     "tie-break chose a context outside the tie mask");
        tie_ &= ~(std::uint64_t(1) << w);
        p.winner = int(w);
        p.key = t;
        if (tie_)
            p.bound = t;
        else // everyone else sits in the heap
            p.bound = dropStale() ? heap_.front().key
                                  : std::numeric_limits<Cycle>::max();
        return p;
    }

  private:
    bool dense() const { return n_ <= denseContexts; }

    /** Small-machine pick: one pass over the (cache-resident) readyAt
     * mirror finds the minimum, its tie mask, and the strict second
     * minimum — which is the exact batching bound when there are no
     * ties, tighter than any heap-derived one. */
    template <typename Chooser>
    Pick
    pickDense(unsigned rr, Chooser &&choose)
    {
        Pick p;
        Cycle best = std::numeric_limits<Cycle>::max();
        Cycle second = std::numeric_limits<Cycle>::max();
        std::uint64_t tie = 0;
        for (std::uint64_t m = eligible_; m; m &= m - 1) {
            const unsigned c = unsigned(std::countr_zero(m));
            const Cycle t = ready_[c];
            if (t < best) {
                second = best;
                best = t;
                tie = std::uint64_t(1) << c;
            } else if (t == best) {
                tie |= std::uint64_t(1) << c;
            } else if (t < second) {
                second = t;
            }
        }
        if (tie == 0)
            return p;
        const unsigned w = choose(tie, rr);
        HINTM_ASSERT(w < n_ && (tie >> w & 1),
                     "tie-break chose a context outside the tie mask");
        p.winner = int(w);
        p.key = best;
        p.bound = tie & ~(std::uint64_t(1) << w) ? best : second;
        return p;
    }

    struct Entry
    {
        Cycle key;
        std::uint32_t ctx;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return a.key > b.key;
        }
    };

    /** File an eligible context under the exact key @p t: the open
     * bucket if it matches, the heap otherwise. The caller has already
     * removed @p c from the bucket. */
    void
    place(unsigned c, std::uint64_t bit, Cycle t)
    {
        if (tie_ && t == tieKey_)
            tie_ |= bit;
        else
            push(c, t);
    }

    /** Open the bucket at the heap's minimum, absorbing every context
     * tied there. The one-entry-per-eligible-context invariant
     * guarantees they all surface. Leaves tie_ empty only when nothing
     * is eligible. */
    void
    openBucket()
    {
        if (dropStale()) {
            tieKey_ = heap_.front().key;
            absorbTies();
        }
    }

    /** Move every heap entry at the bucket key into the bucket. */
    void
    absorbTies()
    {
        while (!heap_.empty() && heap_.front().key == tieKey_) {
            const Entry e = heap_.front();
            popTop();
            if ((eligible_ >> e.ctx & 1) && ready_[e.ctx] == e.key)
                tie_ |= std::uint64_t(1) << e.ctx;
        }
    }

    /** Discard stale top entries; true iff a valid minimum surfaced. */
    bool
    dropStale()
    {
        while (!heap_.empty()) {
            const Entry &e = heap_.front();
            if ((eligible_ >> e.ctx & 1) && ready_[e.ctx] == e.key)
                return true;
            popTop();
        }
        return false;
    }

    void
    push(unsigned c, Cycle t)
    {
        heap_.push_back({t, std::uint32_t(c)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    void
    popTop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }

    unsigned n_ = 0;
    /** Mirror of each context's current readyAt (entry staleness check). */
    std::vector<Cycle> ready_;
    std::vector<Entry> heap_;
    /** Bit c set: context c has not finished its program. */
    std::uint64_t live_ = 0;
    /** Bit c set: live and not blocked at a barrier. */
    std::uint64_t eligible_ = 0;
    /** Contexts whose readyAt is exactly tieKey_ — the live tie bucket.
     * While non-empty, tieKey_ is the minimum over all eligible
     * contexts (bits are cleared eagerly on every state change). */
    std::uint64_t tie_ = 0;
    Cycle tieKey_ = 0;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_SCHED_INDEX_HH
