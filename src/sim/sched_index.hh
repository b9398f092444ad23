/**
 * @file
 * Event-driven ready-context index for the machine scheduler. Replaces
 * the per-step rotating scan over ContextState records with live and
 * eligible bitmasks, a dense readyAt mirror and one tie bucket, while
 * reproducing the reference scheduler's pick order exactly:
 *
 *  - Equal-readyAt ties go to the first tied context at or after the
 *    round-robin cursor (wrapping), as in the reference scan's strict-<
 *    walk: pick() hands the tie mask to sim::defaultTieBreak.
 *
 *  - One scan of the mirror over the eligible mask yields the minimum,
 *    its tie mask and the second minimum. The tie mask becomes the
 *    bucket, which serves picks until it is empty, so a lockstep phase
 *    or a fallback-lock convoy costs one scan, not one per pick. While
 *    the bucket is non-empty its key is the eligible minimum and its
 *    members are exactly the eligible contexts at that key, less a
 *    winner not yet republished: a context published at the key joins
 *    it, one that moves off the key, blocks or retires leaves it, and
 *    one published below the key empties it, so the next peekKey() or
 *    pick() scans again.
 *
 *  - pick() also reports a batching bound: the key while ties remain,
 *    else the scan's second minimum, lowered by every publication
 *    above the key since. A context that leaves never raises it, so it
 *    is a lower bound on every other eligible context's readyAt (exact
 *    right after a scan): the machine may keep stepping the winner
 *    while its readyAt stays strictly below it, and a low bound only
 *    ends a batch early.
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
#include "sim/schedule.hh"

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
        ready_.assign(n, 0);
        live_ = 0;
        eligible_ = 0;
        tie_ = 0;
    }

    /** Register context @p c from its full scheduler-visible state (a
     * rebuild after reset()). Empties the bucket. */
    void
    sync(unsigned c, bool done, bool at_barrier, Cycle ready_at)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = ready_at;
        live_ = done ? live_ & ~bit : live_ | bit;
        eligible_ = done || at_barrier ? eligible_ & ~bit : eligible_ | bit;
        tie_ = 0;
    }

    /** Context @p c moved its readyAt (or a batch on it just closed):
     * publish the exact new key. A context out of the pick set only
     * updates its mirror. */
    void
    setReady(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = t;
        if (eligible_ & bit)
            place(bit, t);
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
     * the pick set at @p t. */
    void
    unblock(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        ready_[c] = t;
        eligible_ |= bit;
        place(bit, t);
    }

    /** @p c finished its program: out of the pick set for good. */
    void
    retire(unsigned c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        live_ &= ~bit;
        eligible_ &= ~bit;
        tie_ &= ~bit;
    }

    /** The key the next pick() returns (the earliest eligible readyAt),
     * or max when nothing is eligible. A scan it makes opens the bucket
     * the next pick() serves from. */
    Cycle
    peekKey()
    {
        if (tie_ == 0)
            scan();
        return key_;
    }

    bool anyLive() const { return live_ != 0; }

    /** Take the earliest eligible context, ties broken round-robin
     * from @p rr exactly like the reference scan. The winner leaves the
     * bucket, and the caller owns it until it republishes it through
     * setReady(), block() or retire(). */
    Pick pick(unsigned rr) { return pick(rr, defaultTieBreak); }

    /** pick() with the tie-break delegated to @p choose(mask, rr), which
     * must return a set bit of mask: a ScheduleController's hook. */
    template <typename Chooser>
    Pick
    pick(unsigned rr, Chooser &&choose)
    {
        Pick p;
        if (tie_ == 0) {
            scan();
            if (tie_ == 0)
                return p;
        }
        const unsigned w = choose(tie_, rr);
        HINTM_ASSERT(w < maxContexts && (tie_ >> w & 1),
                     "tie-break chose a context outside the tie mask");
        tie_ &= ~(std::uint64_t(1) << w);
        p.winner = int(w);
        p.key = key_;
        p.bound = tie_ ? key_ : second_;
        return p;
    }

  private:
    /** File eligible context @p bit, just published at @p t, against
     * the open bucket (an empty one waits for the next scan). */
    void
    place(std::uint64_t bit, Cycle t)
    {
        if (tie_ == 0)
            return;
        if (t == key_) {
            tie_ |= bit;
        } else if (t < key_) {
            tie_ = 0;
        } else {
            tie_ &= ~bit;
            second_ = std::min(second_, t);
        }
    }

    /** Open the bucket: one pass over the mirror finds the minimum, its
     * tie mask and the strict second minimum. The bucket stays empty,
     * at key max, only when nothing is eligible. */
    void
    scan()
    {
        Cycle best = std::numeric_limits<Cycle>::max();
        Cycle second = best;
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
        tie_ = tie;
        key_ = best;
        second_ = second;
    }

    /** Mirror of each context's current readyAt. */
    std::vector<Cycle> ready_;
    /** Bit c set: context c has not finished its program. */
    std::uint64_t live_ = 0;
    /** Bit c set: live and not blocked at a barrier. */
    std::uint64_t eligible_ = 0;
    /** The bucket: eligible contexts whose readyAt is key_, which is
     * then the minimum over all eligible contexts. */
    std::uint64_t tie_ = 0;
    Cycle key_ = 0;
    /** Lower bound on the readyAt of every eligible context outside the
     * bucket (meaningful while the bucket is open). */
    Cycle second_ = 0;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_SCHED_INDEX_HH
