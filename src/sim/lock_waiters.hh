/**
 * @file
 * Fallback-lock waiters parked outside the scheduler index. A context
 * whose TxBegin finds the global fallback lock taken re-checks it every
 * period. Every re-check after the first is a zero-cost step that
 * changes only three things: the waiter's own readyAt (+period), the
 * scheduler clock and the round-robin cursor rr. The indexed machine
 * loop therefore parks each waiter here after its first re-check and
 * steps none of the later ones:
 *
 *  - A waiter keeps its *phase* (re-check cycle mod the period) while
 *    it waits, so waiters are filed by phase, each with the cycle of its
 *    first parked re-check. The waiters due at one cycle form a *group*:
 *    they tie in one rotation.
 *
 *  - Re-checks are settled lazily against a *settle point* S: every
 *    re-check before S has happened and none at or after S has, except
 *    the members of S's group that re-checked ahead of the context that
 *    stepped at S. A waiter is due at the first cycle of its phase at or
 *    after both S and its first re-check. Moving S costs O(1), which is
 *    how the machine settles re-checks whose only effect, on rr, the
 *    next real step overwrites.
 *
 *  - When rr is read, recheckBefore replays it: every group due before
 *    T, in cycle order, sets rr one past the last member its sweep from
 *    rr reaches (the highest member below rr, else the highest member).
 *
 *  - A group due exactly when a real context w steps splits at w:
 *    members the sweep from rr reaches before w re-check first; the
 *    rest stay due and re-check after w, or see the lock free if w's
 *    step released it.
 *
 * Waiters stay parked across a release; the machine wakes a group once
 * it falls due on a free lock. A waiter's exact readyAt is dueAt(); the
 * machine's own copy is stale until the waiter wakes. Waiters also stay
 * parked when the run loop returns at a commit target: only the indexed
 * loop runs a machine that parks, and its next call resumes them.
 */

#ifndef HINTM_SIM_LOCK_WAITERS_HH
#define HINTM_SIM_LOCK_WAITERS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/logging.hh"
#include "common/types.hh"

namespace hintm
{
namespace sim
{

class LockWaiters
{
  public:
    /** Cycles between two re-checks: one phase per bit of a mask word. */
    static constexpr Cycle period = 64;

    LockWaiters() { reset(0); }

    /** Drop every waiter; @p n is the machine's context count (the
     * round-robin cursor wraps there, at most 64). */
    void
    reset(unsigned n)
    {
        HINTM_ASSERT(n <= 64, "lock waiters support at most 64 contexts");
        n_ = n;
        settled_ = 0;
        members_ = 0;
        occupied_ = 0;
        ahead_ = 0;
        phase_.fill(0);
        firstMin_.fill(never);
        firstMax_.fill(0);
    }

    bool empty() const { return members_ == 0; }
    bool parked(unsigned c) const { return members_ >> c & 1; }

    /** Parked context @p c's next re-check cycle (its exact readyAt). */
    Cycle
    dueAt(unsigned c) const
    {
        const Cycle f = first_[c];
        Cycle d = f >= settled_
                      ? f
                      : f + (settled_ - f + period - 1) / period * period;
        if (d == settled_ && (ahead_ >> c & 1))
            d += period;
        return d;
    }

    /** Cycle of the earliest group; max when nothing is parked. Walks
     * the phases in cycle order through the period after the settle
     * point; the first group due there is the earliest, since any later
     * re-check of a phase is at least a period on. */
    Cycle
    earliest() const
    {
        Cycle best = never;
        const unsigned shift = unsigned(settled_ % period);
        for (std::uint64_t m = std::rotr(occupied_, int(shift)); m;
             m &= m - 1) {
            const unsigned o = unsigned(std::countr_zero(m));
            const unsigned p = (shift + o) % period;
            const std::uint64_t active = activeAt(p, settled_ + o);
            if (o == 0 ? active & ~ahead_ : active)
                return settled_ + o;
            // No one of this phase re-checks now: the ones that just did
            // come back a period on, the rest at their first re-check.
            best = std::min(best, active ? settled_ + period : firstMin_[p]);
        }
        return best;
    }

    /** Park @p c, whose re-check at @p now found the lock held, with
     * its next re-check at @p t. */
    void
    park(unsigned c, Cycle t, Cycle now)
    {
        HINTM_ASSERT(!parked(c), "context parked twice");
        if (members_ == 0) {
            settled_ = now;
            ahead_ = 0;
        }
        HINTM_ASSERT(t > now && now >= settled_,
                     "lock waiter parked into the past");
        add(c, t);
    }

    /** Move parked context @p c's next re-check to @p t. */
    void
    repark(unsigned c, Cycle t)
    {
        HINTM_ASSERT(parked(c) && t >= settled_,
                     "lock waiter reparked into the past");
        remove(unsigned(first_[c] % period), std::uint64_t(1) << c);
        add(c, t);
    }

    /** The members that re-check at @p t (at or after the settle point)
     * once every re-check before @p t has happened; 0 if none. */
    std::uint64_t
    groupAt(Cycle t) const
    {
        std::uint64_t g = activeAt(unsigned(t % period), t);
        if (t == settled_)
            g &= ~ahead_;
        return g;
    }

    /** Replay every re-check due strictly before @p t, in cycle order,
     * on the round-robin cursor @p rr. */
    void
    recheckBefore(Cycle t, unsigned &rr)
    {
        if (t <= settled_)
            return;
        for (Cycle base = settled_; base < t; base += period) {
            // Bit o of m: the phase due at cycle base + o.
            const unsigned shift = unsigned(base % period);
            std::uint64_t m = std::rotr(occupied_, int(shift));
            if (t - base < period)
                m &= (std::uint64_t(1) << (t - base)) - 1;
            for (; m; m &= m - 1) {
                const unsigned o = unsigned(std::countr_zero(m));
                std::uint64_t g =
                    activeAt(unsigned((shift + o) % period), base + o);
                if (base + o == settled_)
                    g &= ~ahead_;
                if (g == 0)
                    continue;
                const std::uint64_t below =
                    g & ((std::uint64_t(1) << rr) - 1);
                const unsigned last =
                    63u - unsigned(std::countl_zero(below ? below : g));
                rr = last + 1 == n_ ? 0 : last + 1;
            }
        }
        settled_ = t;
        ahead_ = 0;
    }

    /** The real context @p w steps at @p t, the settle point, from
     * cursor @p rr: the group due at @p t re-checks the members the
     * rotation reaches before w, which w's own step then follows.
     * @return those members. */
    std::uint64_t
    splitAt(Cycle t, unsigned rr, unsigned w)
    {
        HINTM_ASSERT(t == settled_, "lock waiters split off the settle point");
        const std::uint64_t from = ~((std::uint64_t(1) << rr) - 1);
        const std::uint64_t to = (std::uint64_t(1) << w) - 1;
        const std::uint64_t ahead =
            groupAt(t) & (rr <= w ? from & to : from | to);
        ahead_ |= ahead;
        return ahead;
    }

    /** The real context @p w steps at @p t (at or after the settle
     * point) with the cursor at @p rr, which w's step then overwrites:
     * the re-checks before @p t settle unreplayed, unless a group is due
     * at @p t and must split at w, which needs the cursor. */
    void
    stepAt(Cycle t, unsigned rr, unsigned w)
    {
        if (groupAt(t) != 0) {
            recheckBefore(t, rr);
            splitAt(t, rr, w);
        } else if (t > settled_) {
            settled_ = t;
            ahead_ = 0;
        }
    }

    /** Unpark the group due at @p t: @p f(context) for each member. */
    template <typename F>
    void
    wake(Cycle t, F &&f)
    {
        const std::uint64_t g = groupAt(t);
        remove(unsigned(t % period), g);
        for (std::uint64_t m = g; m; m &= m - 1)
            f(unsigned(std::countr_zero(m)));
    }

  private:
    static constexpr Cycle never = std::numeric_limits<Cycle>::max();

    /** Members of phase @p p whose first re-check is at or before
     * @p t: the ones that re-check at @p t, a cycle of that phase at or
     * after the settle point. */
    std::uint64_t
    activeAt(unsigned p, Cycle t) const
    {
        if (firstMin_[p] > t)
            return 0;
        if (firstMax_[p] <= t)
            return phase_[p];
        std::uint64_t g = 0;
        for (std::uint64_t m = phase_[p]; m; m &= m - 1) {
            const unsigned c = unsigned(std::countr_zero(m));
            if (first_[c] <= t)
                g |= std::uint64_t(1) << c;
        }
        return g;
    }

    void
    add(unsigned c, Cycle t)
    {
        const unsigned p = unsigned(t % period);
        first_[c] = t;
        phase_[p] |= std::uint64_t(1) << c;
        members_ |= std::uint64_t(1) << c;
        occupied_ |= std::uint64_t(1) << p;
        firstMin_[p] = std::min(firstMin_[p], t);
        firstMax_[p] = std::max(firstMax_[p], t);
    }

    /** Drop the members @p mask of phase @p p. */
    void
    remove(unsigned p, std::uint64_t mask)
    {
        phase_[p] &= ~mask;
        members_ &= ~mask;
        ahead_ &= ~mask;
        firstMin_[p] = never;
        firstMax_[p] = 0;
        if (phase_[p] == 0) {
            occupied_ &= ~(std::uint64_t(1) << p);
            return;
        }
        for (std::uint64_t m = phase_[p]; m; m &= m - 1) {
            const Cycle f = first_[unsigned(std::countr_zero(m))];
            firstMin_[p] = std::min(firstMin_[p], f);
            firstMax_[p] = std::max(firstMax_[p], f);
        }
    }

    unsigned n_ = 0;
    /** Settle point: every re-check before it has happened. */
    Cycle settled_ = 0;
    /** Members of the settle point's group that re-checked there
     * already, ahead of the context that stepped. */
    std::uint64_t ahead_ = 0;
    /** Every parked context. */
    std::uint64_t members_ = 0;
    /** Bit p set: some waiter has phase p. */
    std::uint64_t occupied_ = 0;
    /** Waiters by phase. */
    std::array<std::uint64_t, period> phase_{};
    /** Earliest and latest first re-check among each phase's waiters. */
    std::array<Cycle, period> firstMin_{};
    std::array<Cycle, period> firstMax_{};
    /** Each parked context's first re-check cycle. */
    std::array<Cycle, 64> first_{};
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_LOCK_WAITERS_HH
